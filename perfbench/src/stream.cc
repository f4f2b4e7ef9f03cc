/**
 * @file
 * trace-stream: two registry streams encoded as din text, parsed by
 * trace::readDin and swept by sweep::sweepStream. Writes beside reads,
 * dirty evictions and Random replacement use the cache layer
 * differently from the paper workloads, and the isa, sched, cpusim,
 * timing and core layers are bypassed entirely.
 */

#include <random>
#include <sstream>

#include "bench.hh"
#include "cache/cache.hh"
#include "layers.hh"
#include "sweep/stream_sweep.hh"
#include "trace/trace_io.hh"
#include "util/units.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using pipecache::cache::AccessRecord;
using pipecache::cache::CacheStats;
using pipecache::core::DesignPoint;
using pipecache::trace::RefKind;
using pipecache::trace::TraceRecord;

/** Read-mostly with a 2 MiB working set; write-heavy bursts. */
const char *const kStreams[] = {"zipf-hot", "write-burst"};
constexpr std::size_t kNumStreams = 2;

constexpr std::uint32_t kSizesKW[] = {1, 2, 4, 8, 16, 32, 64};
constexpr std::uint32_t kBlocks[] = {2, 4, 8};
constexpr std::uint32_t kAssocs[] = {1, 2, 4, 8};

/** 588 LRU points, then a small Random-replacement grid. */
std::vector<DesignPoint>
streamPoints()
{
    std::vector<DesignPoint> out;
    for (std::uint32_t block : kBlocks)
        for (std::uint32_t assoc : kAssocs)
            for (std::uint32_t i : kSizesKW)
                for (std::uint32_t d : kSizesKW) {
                    DesignPoint p;
                    p.l1iSizeKW = i;
                    p.l1dSizeKW = d;
                    p.blockWords = block;
                    p.assoc = assoc;
                    out.push_back(p);
                }
    for (std::uint32_t kw : {4u, 16u, 64u})
        for (std::uint32_t assoc : {2u, 4u}) {
            DesignPoint p;
            p.l1iSizeKW = kw;
            p.l1dSizeKW = kw;
            p.blockWords = 4;
            p.assoc = assoc;
            p.repl = pipecache::cache::Replacement::Random;
            out.push_back(p);
        }
    return out;
}

/** The fetch and data halves of a flat stream. */
struct Split
{
    std::vector<AccessRecord> fetch;
    std::vector<AccessRecord> data;
};

Split
splitStream(const std::vector<TraceRecord> &stream)
{
    Split s;
    for (const TraceRecord &r : stream) {
        if (r.kind == RefKind::Fetch)
            s.fetch.push_back({r.addr, 0, 0});
        else
            s.data.push_back(
                {r.addr, 0, static_cast<std::uint8_t>(r.kind == RefKind::Write)});
    }
    return s;
}

/** Per-geometry cache::Cache replay of one side. */
CacheStats
replay(const std::vector<AccessRecord> &recs, std::uint32_t kw,
       const DesignPoint &p)
{
    pipecache::cache::CacheConfig cfg;
    cfg.sizeBytes = pipecache::kiloWordsToBytes(kw);
    cfg.blockBytes = p.blockWords * pipecache::bytesPerWord;
    cfg.assoc = p.assoc;
    cfg.repl = p.repl;
    pipecache::cache::Cache cache(cfg);
    for (const AccessRecord &r : recs)
        cache.access(r.addr, r.store != 0);
    return cache.stats();
}

std::string
diffStats(const char *side, const CacheStats &a, const CacheStats &b)
{
    if (a.reads == b.reads && a.writes == b.writes &&
        a.readMisses == b.readMisses && a.writeMisses == b.writeMisses &&
        a.evictions == b.evictions && a.dirtyEvictions == b.dirtyEvictions)
        return "";
    return std::string(side) + " misses " +
           std::to_string(a.readMisses + a.writeMisses) + " vs " +
           std::to_string(b.readMisses + b.writeMisses) + ", evictions " +
           std::to_string(a.evictions) + " vs " + std::to_string(b.evictions);
}

class TraceStream final : public Workload
{
  public:
    explicit TraceStream(const Options &opts)
        : opts_(opts), records_(opts.tiny ? 20000 : 1000000),
          points_(streamPoints())
    {
    }

    void setup() override
    {
        for (std::size_t k = 0; k < kNumStreams; ++k) {
            original_[k] = generate(k);
            din_[k] = encode(original_[k]);
        }
    }

    void run() override
    {
        failed_ = 0;
        for (std::size_t k = 0; k < kNumStreams; ++k) {
            std::istringstream is(std::move(din_[k]));
            parsed_[k] = pipecache::trace::readDin(is);
            try {
                results_[k] = pipecache::sweep::sweepStream(parsed_[k], points_);
            } catch (const std::exception &) {
                failed_ += points_.size();
            }
        }
    }

    void check(std::vector<CheckResult> &out) override
    {
        if (opts_.perturb == "stream-roundtrip")
            parsed_[0][parsed_[0].size() / 2].addr ^= 4;
        std::mt19937_64 rng(opts_.seed ^ 0x51ed270b27b1f7a5ULL);
        const std::size_t lru = points_.size() - 6;
        for (std::size_t k = 0; k < kNumStreams; ++k) {
            const std::string name = kStreams[k];
            out.push_back({"stream." + name + ".din_round_trip",
                           parsed_[k] == original_[k],
                           std::to_string(parsed_[k].size()) + " records"});
            const Split split = splitStream(original_[k]);
            const auto &recs = results_[k].records;
            if (recs.size() != points_.size()) {
                out.push_back({"stream." + name + ".points", false,
                               std::to_string(recs.size()) + " results"});
                continue;
            }
            for (int s = 0; s < 4; ++s) {
                const std::size_t idx = rng() % lru;
                const DesignPoint &p = points_[idx];
                CacheStats gotI = recs[idx].metrics.l1i;
                if (opts_.perturb == "stream-point" && k == 0 && s == 0)
                    ++gotI.readMisses;
                std::string diff =
                    diffStats("I", gotI, replay(split.fetch, p.l1iSizeKW, p));
                if (diff.empty())
                    diff = diffStats("D", recs[idx].metrics.l1d,
                                     replay(split.data, p.l1dSizeKW, p));
                out.push_back({"stream." + name + ".cache[" + p.describe() +
                                   "]",
                               diff.empty(), diff});
            }
            // Random replacement: per-access totals must match the
            // stream's composition.
            bool ok = true;
            for (std::size_t idx = lru; idx < recs.size(); ++idx) {
                const auto &m = recs[idx].metrics;
                ok = ok && m.l1i.accesses() == split.fetch.size() &&
                     m.l1d.accesses() == split.data.size() &&
                     m.l1d.readMisses + m.l1d.writeMisses <= m.l1d.accesses();
            }
            out.push_back({"stream." + name + ".random_totals", ok, ""});
        }
    }

    void teardown() override
    {
        for (std::size_t k = 0; k < kNumStreams; ++k) {
            original_[k] = {};
            parsed_[k] = {};
            din_[k] = {};
            results_[k] = {};
        }
    }

    std::uint64_t attempted() const override
    {
        return kNumStreams * points_.size();
    }
    std::uint64_t failed() const override { return failed_; }

    std::vector<Extra> extras() const override
    {
        return {{"records_per_s", "1/s",
                 static_cast<double>(kNumStreams * records_), true}};
    }

    double traced(Tracer &t, MetricMap &m) override
    {
        Tracer::Span root(t, "run", "");
        {
            Tracer::Span setup(t, "setup", "");
            for (std::size_t k = 0; k < kNumStreams; ++k) {
                {
                    Tracer::Span s(t, "workloads.gen", "workloads");
                    original_[k] = generate(k);
                }
                Tracer::Span s(t, "trace.din_write", "trace");
                din_[k] = encode(original_[k]);
            }
        }
        {
            Tracer::Span run(t, "streams", "");
            for (std::size_t k = 0; k < kNumStreams; ++k) {
                {
                    Tracer::Span s(t, "trace.din_parse", "trace");
                    std::istringstream is(std::move(din_[k]));
                    parsed_[k] = pipecache::trace::readDin(is);
                }
                Tracer::Span s(t, "sweep.stream", "sweep");
                results_[k] = pipecache::sweep::sweepStream(parsed_[k], points_);
            }
        }
        const double recs = static_cast<double>(kNumStreams * records_);
        m["workloads.gen_mrec_per_s"] =
            recs / t.spanSeconds("workloads.gen") * 1e-6;
        m["trace.din_parse_mrec_per_s"] =
            recs / t.spanSeconds("trace.din_parse") * 1e-6;

        const std::int64_t p0 = nowNs();
        {
            Tracer::Span probe(t, "probe", "");
            probeCache(t, m);
        }
        teardown();
        return static_cast<double>(nowNs() - p0) * 1e-9;
    }

    void context(ContextMap &ctx) const override
    {
        ctx["streams"] = "zipf-hot,write-burst";
        ctx["records_per_stream"] = std::to_string(records_);
        ctx["points"] = std::to_string(points_.size());
    }

  private:
    std::vector<TraceRecord> generate(std::size_t k) const
    {
        pipecache::workloads::WorkloadOptions wo;
        wo.seed = opts_.seed;
        wo.records = records_;
        auto src = pipecache::workloads::openWorkload(kStreams[k], wo);
        return pipecache::trace::drain(*src);
    }

    static std::string encode(const std::vector<TraceRecord> &recs)
    {
        std::ostringstream os;
        pipecache::trace::writeDinRecords(os, recs);
        return std::move(os).str();
    }

    /** The stack passes and Random replays sweepStream runs inside. */
    void probeCache(Tracer &t, MetricMap &m)
    {
        double accesses = 0.0;
        for (std::size_t k = 0; k < kNumStreams; ++k) {
            const Split split = splitStream(parsed_[k]);
            for (const auto *side : {&split.fetch, &split.data}) {
                if (side->empty())
                    continue;
                for (std::uint32_t block : kBlocks) {
                    std::vector<pipecache::cache::StackGeometry> geoms;
                    for (std::uint32_t kw : kSizesKW)
                        for (std::uint32_t a : kAssocs)
                            geoms.push_back({log2Sets(kw, block, a), a});
                    Tracer::Span s(t, "cache.stack_pass", "cache");
                    pipecache::cache::StackSimulator sim(
                        block * pipecache::bytesPerWord, geoms, 1);
                    const std::span<const AccessRecord> all(*side);
                    for (std::size_t i = 0; i < all.size(); i += 256)
                        sim.accessBatch(
                            all.subspan(i, std::min<std::size_t>(
                                               256, all.size() - i)));
                    sim.finish();
                    accesses += static_cast<double>(sim.accesses());
                }
            }
            for (std::size_t idx = points_.size() - 6; idx < points_.size();
                 ++idx) {
                Tracer::Span s(t, "cache.random_replay", "cache");
                replay(split.fetch, points_[idx].l1iSizeKW, points_[idx]);
                replay(split.data, points_[idx].l1dSizeKW, points_[idx]);
            }
        }
        const double stackS = t.spanSeconds("cache.stack_pass");
        m["cache.stack_pass_s"] = stackS;
        m["cache.stack_accesses"] = accesses;
        m["cache.stack_maccesses_per_s"] = accesses / stackS * 1e-6;
    }

    Options opts_;
    std::size_t records_;
    std::vector<DesignPoint> points_;
    std::vector<TraceRecord> original_[kNumStreams];
    std::vector<TraceRecord> parsed_[kNumStreams];
    std::string din_[kNumStreams];
    pipecache::sweep::StreamSweepResult results_[kNumStreams];
    std::uint64_t failed_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeTraceStream(const Options &opts)
{
    return std::make_unique<TraceStream>(opts);
}

} // namespace perfbench
