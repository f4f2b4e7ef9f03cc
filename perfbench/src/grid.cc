/**
 * @file
 * paper-grid: the 784-point Figure 12 superset (b, l in 0..3, L1-I and
 * L1-D in 1..64 KW) on the synthetic suite, through
 * CpiModel::prepareFactored and a factored SweepEngine::sweep — the
 * question the repository exists to answer.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>

#include "bench.hh"
#include "cache/hierarchy.hh"
#include "cache/stack_sim.hh"
#include "core/cpi_model.hh"
#include "core/point_eval.hh"
#include "core/tpi_model.hh"
#include "cpusim/cpi_engine.hh"
#include "layers.hh"
#include "sweep/sweep_engine.hh"

namespace perfbench {

namespace {

using pipecache::cache::AccessRecord;
using pipecache::core::DesignPoint;
using pipecache::core::PointMetrics;

constexpr std::uint32_t kSizesKW[] = {1, 2, 4, 8, 16, 32, 64};

std::vector<DesignPoint>
gridPoints()
{
    std::vector<DesignPoint> points;
    for (std::uint32_t b = 0; b <= 3; ++b)
        for (std::uint32_t l = 0; l <= 3; ++l)
            for (std::uint32_t i : kSizesKW)
                for (std::uint32_t d : kSizesKW) {
                    DesignPoint p;
                    p.branchSlots = b;
                    p.loadSlots = l;
                    p.l1iSizeKW = i;
                    p.l1dSizeKW = d;
                    p.blockWords = 4;
                    p.missPenaltyCycles = 10;
                    points.push_back(p);
                }
    return points;
}

/** Bit-exact field-for-field comparison of two PointMetrics. */
std::string
diffMetrics(const PointMetrics &a, const PointMetrics &b)
{
    const std::pair<const char *, std::pair<double, double>> fields[] = {
        {"cpi", {a.cpi, b.cpi}},
        {"branchCpi", {a.branchCpi, b.branchCpi}},
        {"loadCpi", {a.loadCpi, b.loadCpi}},
        {"iMissCpi", {a.iMissCpi, b.iMissCpi}},
        {"dMissCpi", {a.dMissCpi, b.dMissCpi}},
        {"l1iMissRate", {a.l1iMissRate, b.l1iMissRate}},
        {"l1dMissRate", {a.l1dMissRate, b.l1dMissRate}},
        {"tCpuNs", {a.tCpuNs, b.tCpuNs}},
        {"tIsideNs", {a.tIsideNs, b.tIsideNs}},
        {"tDsideNs", {a.tDsideNs, b.tDsideNs}},
        {"tpiNs", {a.tpiNs, b.tpiNs}},
    };
    for (const auto &[name, v] : fields)
        if (std::memcmp(&v.first, &v.second, sizeof(double)) != 0)
            return std::string(name) + " " + fmt(v.first) + " vs " +
                   fmt(v.second);
    return "";
}

/** The one-set hierarchy a stream-only replay runs against. */
pipecache::cache::HierarchyConfig
stubHierarchy()
{
    pipecache::cache::HierarchyConfig hc;
    hc.l1i.sizeBytes = 16;
    hc.l1i.blockBytes = 16;
    hc.l1d.sizeBytes = 16;
    hc.l1d.blockBytes = 16;
    hc.flatPenalty = 1;
    return hc;
}

/**
 * Benchmark-owned stack passes behind a BufferedStreamSink: times
 * every accessBatch() call so the stack-pass share of a replay can be
 * taken out of the replay's span.
 */
class StackPasses final : public pipecache::cpusim::BatchStreamSink
{
  public:
    StackPasses(const std::vector<pipecache::cache::StackGeometry> &geoms,
                std::size_t benches, bool withData)
        : i_(std::make_unique<pipecache::cache::StackSimulator>(
              kBlockBytes, geoms, benches))
    {
        if (withData)
            d_ = std::make_unique<pipecache::cache::StackSimulator>(
                kBlockBytes, geoms, benches);
    }

    void instBatch(std::span<const AccessRecord> r) override
    {
        const std::int64_t t0 = nowNs();
        i_->accessBatch(r);
        ns += nowNs() - t0;
    }

    void dataBatch(std::span<const AccessRecord> r) override
    {
        if (!d_)
            return;
        const std::int64_t t0 = nowNs();
        d_->accessBatch(r);
        ns += nowNs() - t0;
    }

    void finish()
    {
        i_->finish();
        if (d_)
            d_->finish();
    }

    std::uint64_t accesses() const
    {
        return i_->accesses() + (d_ ? d_->accesses() : 0);
    }

    /** Nanoseconds spent inside accessBatch(). */
    std::int64_t ns = 0;

  private:
    static constexpr std::uint32_t kBlockBytes = 16; // the grid's 4 W
    std::unique_ptr<pipecache::cache::StackSimulator> i_;
    std::unique_ptr<pipecache::cache::StackSimulator> d_;
};

class PaperGrid final : public Workload
{
  public:
    explicit PaperGrid(const Options &opts) : opts_(opts)
    {
        cfg_.scaleDivisor = opts.tiny ? 20000.0 : 400.0;
        cfg_.seedSalt = opts.seed;
        points_ = gridPoints();
    }

    void setup() override
    {
        model_ = std::make_unique<pipecache::core::CpiModel>(cfg_);
        tpi_ = std::make_unique<pipecache::core::TpiModel>(*model_);
        model_->prepareFactored(points_);
    }

    void run() override
    {
        pipecache::sweep::SweepOptions so;
        so.threads = opts_.threads;
        pipecache::sweep::SweepEngine engine(*tpi_, so);
        const double cpu0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        records_ = engine.sweep(points_);
        const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
        busyRatio_ = (cpuSeconds() - cpu0) / (opts_.threads * wall);
        pointMsMax_ = 0.0;
        failed_ = 0;
        for (const auto &r : records_) {
            pointMsMax_ = std::max(pointMsMax_, r.wallMs);
            failed_ += r.failed ? 1 : 0;
        }
    }

    void check(std::vector<CheckResult> &out) override
    {
        // One claimant per b (the first point of each b in input
        // order) plus a seeded sample, re-evaluated on the monolithic
        // replay path.
        std::vector<std::size_t> sample;
        const std::size_t perB = points_.size() / 4;
        for (std::size_t b = 0; b < 4; ++b)
            sample.push_back(b * perB);
        std::mt19937_64 rng(opts_.seed ^ 0x9e3779b97f4a7c15ULL);
        for (int k = 0; k < 4; ++k)
            sample.push_back(rng() % points_.size());

        // evaluatePrepared() is thread-safe: replay the sample on the
        // run's thread budget.
        std::vector<PointMetrics> wants(sample.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        for (unsigned k = 0; k < opts_.threads; ++k)
            pool.emplace_back([&] {
                for (std::size_t j = next++; j < sample.size(); j = next++) {
                    const DesignPoint &p = points_[sample[j]];
                    const auto cpi = model_->evaluatePrepared(p);
                    wants[j] = pipecache::core::makeMetrics(
                        cpi, tpi_->combineWithCpi(p, cpi.cpi()));
                }
            });
        for (auto &th : pool)
            th.join();

        for (std::size_t j = 0; j < sample.size(); ++j) {
            const std::size_t idx = sample[j];
            const DesignPoint &p = points_[idx];
            const PointMetrics &want = wants[j];
            PointMetrics got = records_[idx].metrics;
            if (opts_.perturb == "grid-point" && idx == sample.front())
                got.tpiNs = std::nextafter(got.tpiNs, 1e9);
            const std::string diff =
                records_[idx].failed ? "point failed"
                                     : diffMetrics(got, want);
            out.push_back({"grid.monolithic[" + p.describe() + "]",
                           diff.empty(), diff});
        }

        bestTpi_ = 1e300;
        for (const auto &r : records_)
            if (!r.failed)
                bestTpi_ = std::min(bestTpi_, r.metrics.tpiNs);
        out.push_back({"grid.optimum_finite", std::isfinite(bestTpi_),
                       "min TPI " + fmt(bestTpi_) + " ns"});
    }

    void teardown() override
    {
        records_ = {};
        tpi_.reset();
        model_.reset();
    }

    std::uint64_t attempted() const override { return points_.size(); }
    std::uint64_t failed() const override { return failed_; }

    std::vector<Extra> extras() const override
    {
        return {{"points_per_s", "1/s",
                 static_cast<double>(points_.size()), true},
                {"tpi_opt_err_pct", "%", tpiErrPct(bestTpi_)}};
    }

    void untracedLayerMetrics(MetricMap &m) const override
    {
        m["sweep.busy_ratio"] = busyRatio_;
        m["sweep.point_ms_max"] = pointMsMax_;
    }

    double traced(Tracer &t, MetricMap &m) override
    {
        Tracer::Span root(t, "run", "");
        {
            Tracer::Span setup(t, "setup", "");
            {
                Tracer::Span s(t, "core.model_new", "core");
                model_ = std::make_unique<pipecache::core::CpiModel>(cfg_);
                tpi_ = std::make_unique<pipecache::core::TpiModel>(*model_);
            }
            buildSuiteArtifacts(t, *model_, true);
            Tracer::Span s(t, "core.prepare", "core");
            model_->prepareFactored(points_);
        }
        tracedEvaluate(t, m);
        m["cpusim.replays"] =
            static_cast<double>(model_->engineReplays());
        m["core.points_evaluated"] = static_cast<double>(points_.size());
        m["core.replays_saved_ratio"] =
            1.0 - static_cast<double>(model_->engineReplays()) /
                      static_cast<double>(points_.size());

        const std::int64_t p0 = nowNs();
        {
            Tracer::Span probe(t, "probe", "");
            probeSuiteBuild(t, cfg_, m);
            probeReplays(t, m);
        }
        teardown();
        return static_cast<double>(nowNs() - p0) * 1e-9;
    }

    void context(ContextMap &ctx) const override
    {
        ctx["scale"] = fmt(cfg_.scaleDivisor);
        ctx["points"] = std::to_string(points_.size());
        ctx["benchmarks"] = "16";
        if (opts_.trace)
            ctx["trace_overhead_basis"] =
                "traced points run on the benchmark's own pool, one point "
                "per take; untraced runs use SweepEngine's chunked pool, "
                "so trace_overhead_pct also compares the two schedulers";
    }

  private:
    /** The sweep's work, one span per library call, on T threads. */
    void tracedEvaluate(Tracer &t, MetricMap &m)
    {
        Tracer::Span ev(t, "sweep.evaluate", "sweep");
        std::atomic<std::size_t> next{0};
        const unsigned T = opts_.threads;
        auto worker = [&] {
            Tracer::Span w(t, "sweep.worker", "sweep", ev, 1.0 / T);
            for (std::size_t i = next++; i < points_.size(); i = next++) {
                const DesignPoint &p = points_[i];
                pipecache::core::CpiResult cpi;
                {
                    const auto before = model_->engineReplays();
                    Tracer::Span s(t, "core.factored", "core");
                    cpi = model_->evaluateFactored(p);
                    s.rename(model_->engineReplays() > before
                                 ? "core.factored.claim"
                                 : "core.factored.assemble");
                }
                {
                    Tracer::Span s(t, "timing.mintcpu", "timing");
                    volatile double ns = tpi_->cycleNs(p);
                    (void)ns;
                }
                Tracer::Span s(t, "core.tpi_combine", "core");
                pipecache::core::makeMetrics(
                    cpi, tpi_->combineWithCpi(p, cpi.cpi()));
            }
        };
        std::vector<std::thread> pool;
        for (unsigned k = 0; k < T; ++k)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();

        const auto assemble = t.spanDurations("core.factored.assemble");
        m["core.factored.claim_s"] = t.spanSeconds("core.factored.claim");
        m["core.factored.assemble_s"] =
            t.spanSeconds("core.factored.assemble");
        m["core.factored.assemble_us_p50"] = median(assemble) * 1e6;
        m["timing.mintcpu_s"] = t.spanSeconds("timing.mintcpu");
        m["timing.mintcpu_calls"] =
            static_cast<double>(t.spanCount("timing.mintcpu"));
        m["core.tpi_combine_s"] = t.spanSeconds("core.tpi_combine");
    }

    /**
     * The claimants' replays again, from public calls: one CpiEngine
     * run per b feeding benchmark-owned stack passes through a
     * BufferedStreamSink, so replay and stack-pass time separate.
     */
    void probeReplays(Tracer &t, MetricMap &m)
    {
        std::vector<pipecache::cache::StackGeometry> geoms;
        for (std::uint32_t kw : kSizesKW)
            geoms.push_back({log2Sets(kw, 4, 1), 1});
        const std::size_t n = model_->numBenchmarks();

        double replayS = 0.0;
        double stackS = 0.0;
        double fetched = 0.0;
        double accesses = 0.0;
        for (std::uint32_t b = 0; b <= 3; ++b) {
            StackPasses sims(geoms, n, b == 0);
            double innerS = 0.0;
            {
                Tracer::Span s(t, "cpusim.replay", "cpusim");
                const std::int64_t t0 = nowNs();
                std::vector<pipecache::cpusim::BenchWorkload> ws(n);
                for (std::size_t i = 0; i < n; ++i) {
                    ws[i].program = &model_->program(i);
                    ws[i].xlat = &model_->xlat(i, b);
                    ws[i].trace = &model_->traceOf(i);
                }
                pipecache::cache::CacheHierarchy stub(stubHierarchy());
                pipecache::cpusim::EngineConfig ec;
                ec.branchSlots = b;
                pipecache::cpusim::CpiEngine engine(ec, stub,
                                                    std::move(ws));
                pipecache::cpusim::BufferedStreamSink buffer(sims);
                engine.setStreamSink(&buffer);
                engine.run(model_->schedule());
                buffer.flush();
                fetched += static_cast<double>(engine.aggregate().fetches);
                s.addInner("cache", sims.ns);
                innerS = static_cast<double>(sims.ns) * 1e-9;
                replayS += static_cast<double>(nowNs() - t0) * 1e-9 - innerS;
            }
            Tracer::Span s(t, "cache.stack_finish", "cache");
            const std::int64_t t0 = nowNs();
            sims.finish();
            stackS += innerS + static_cast<double>(nowNs() - t0) * 1e-9;
            accesses += static_cast<double>(sims.accesses());
        }
        m["cpusim.replay_s"] = replayS;
        m["cpusim.replay_minsts_per_s"] = fetched / replayS * 1e-6;
        m["cache.stack_pass_s"] = stackS;
        m["cache.stack_accesses"] = accesses;
        m["cache.stack_maccesses_per_s"] = accesses / stackS * 1e-6;
    }

    Options opts_;
    pipecache::core::SuiteConfig cfg_;
    std::vector<DesignPoint> points_;
    std::unique_ptr<pipecache::core::CpiModel> model_;
    std::unique_ptr<pipecache::core::TpiModel> tpi_;
    std::vector<pipecache::sweep::SweepRecord> records_;
    std::uint64_t failed_ = 0;
    double busyRatio_ = 0.0;
    double pointMsMax_ = 0.0;
    double bestTpi_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makePaperGrid(const Options &opts)
{
    return std::make_unique<PaperGrid>(opts);
}

} // namespace perfbench
