/**
 * @file
 * paper-repro: every table and figure of core::experiments rendered in
 * one process on one shared CpiModel/TpiModel — the whole-paper
 * reproduction a user runs, mostly on the monolithic replay path.
 */

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "bench.hh"
#include "core/experiments.hh"
#include "layers.hh"
#include "sweep/sweep_engine.hh"

namespace perfbench {

namespace {

using pipecache::TextTable;
using pipecache::core::DesignPoint;
namespace ex = pipecache::core::experiments;

DesignPoint
basePoint(std::uint32_t penalty)
{
    DesignPoint p;
    p.blockWords = 4;
    p.missPenaltyCycles = penalty;
    p.l1iSizeKW = 8;
    p.l1dSizeKW = 8;
    p.branchSlots = 0;
    p.loadSlots = 0;
    return p;
}

constexpr std::uint32_t kTotalsKW[] = {2, 4, 8, 16, 32, 64, 128};

/** The Figure 12/13 sweep: b = l = depth, I = D = total / 2. */
std::vector<DesignPoint>
tpiSweep(std::uint32_t penalty, pipecache::cpusim::LoadScheme scheme)
{
    std::vector<DesignPoint> out;
    for (std::uint32_t total : kTotalsKW)
        for (std::uint32_t depth = 0; depth <= 3; ++depth) {
            DesignPoint p = basePoint(penalty);
            p.l1iSizeKW = total / 2;
            p.l1dSizeKW = total / 2;
            p.branchSlots = depth;
            p.loadSlots = depth;
            p.loadScheme = scheme;
            out.push_back(p);
        }
    return out;
}

/** Split one CSV line of numbers and labels (no quoting needed). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    return cells;
}

class PaperRepro final : public Workload
{
  public:
    explicit PaperRepro(const Options &opts) : opts_(opts)
    {
        cfg_.scaleDivisor = opts.tiny ? 100000.0 : 2000.0;
        cfg_.seedSalt = opts.seed;
    }

    void setup() override
    {
        model_ = std::make_unique<pipecache::core::CpiModel>(cfg_);
        tpi_ = std::make_unique<pipecache::core::TpiModel>(*model_);
        model_->traceOf(0);
        model_->schedule();
    }

    void run() override
    {
        pipecache::sweep::SweepOptions so;
        so.threads = opts_.threads;
        engine_ = std::make_unique<pipecache::sweep::SweepEngine>(*tpi_, so);
        rendered_.clear();
        failed_ = 0;
        for (const auto &[name, fn] : experiments()) {
            try {
                rendered_.emplace_back(name, fn());
            } catch (const std::exception &e) {
                ++failed_;
                errors_ += name + ": " + e.what() + "; ";
            }
        }
    }

    void check(std::vector<CheckResult> &out) override
    {
        out.push_back({"repro.all_rendered", failed_ == 0, errors_});
        const TextTable *fig12 = nullptr;
        for (const auto &[name, table] : rendered_) {
            if (name == "fig12")
                fig12 = &table;
            if (table.rowCount() == 0)
                out.push_back({"repro." + name + ".rows", false, "empty"});
        }
        if (fig12 == nullptr) {
            out.push_back({"repro.fig12_vs_batch", false, "no Figure 12"});
            return;
        }

        // Figure 12's rendered cells against the same points evaluated
        // by a separate factored SweepEngine::evaluateBatch.
        const auto points =
            tpiSweep(10, pipecache::cpusim::LoadScheme::Static);
        pipecache::sweep::SweepOptions so;
        so.threads = opts_.threads;
        pipecache::sweep::SweepEngine batch(*tpi_, so);
        const auto metrics = batch.evaluateBatch(points);

        std::stringstream csv(fig12->renderCsv());
        std::string line;
        std::getline(csv, line); // header
        std::size_t k = 0;
        std::size_t mismatches = 0;
        std::string detail;
        bestTpi_ = 1e300;
        while (std::getline(csv, line)) {
            const auto cells = splitCsv(line);
            for (std::size_t c = 1; c < cells.size(); ++c, ++k) {
                std::string cell = cells[c];
                if (opts_.perturb == "repro-fig12" && k == 0)
                    cell += "1";
                const std::string want =
                    k < metrics.size() ? TextTable::num(metrics[k].tpiNs, 2)
                                       : "<none>";
                if (cell != want) {
                    ++mismatches;
                    detail = "cell " + std::to_string(k) + " '" + cell +
                             "' vs batch '" + want + "'";
                }
                bestTpi_ = std::min(bestTpi_, std::atof(cell.c_str()));
            }
        }
        if (k != points.size()) {
            ++mismatches;
            detail = std::to_string(k) + " cells for " +
                     std::to_string(points.size()) + " points";
        }
        out.push_back({"repro.fig12_vs_batch", mismatches == 0, detail});
    }

    void teardown() override
    {
        rendered_.clear();
        engine_.reset();
        tpi_.reset();
        model_.reset();
    }

    std::uint64_t attempted() const override { return kExperimentCount; }
    std::uint64_t failed() const override { return failed_; }

    std::vector<Extra> extras() const override
    {
        return {{"tpi_opt_err_pct", "%", tpiErrPct(bestTpi_)}};
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
            buildSuiteArtifacts(t, *model_, false);
        }
        const auto replays0 = model_->engineReplays();
        {
            Tracer::Span run(t, "experiments", "");
            {
                Tracer::Span s(t, "sweep.engine_new", "sweep");
                pipecache::sweep::SweepOptions so;
                so.threads = opts_.threads;
                engine_ =
                    std::make_unique<pipecache::sweep::SweepEngine>(*tpi_, so);
            }
            for (std::uint32_t b = 0; b <= 3; ++b) {
                Tracer::Span s(t, "sched.xlat", "sched");
                model_->xlat(0, b);
            }
            monolithicS_ = 0.0;
            monolithicPoints_ = 0.0;
            for (const auto &[name, fn] : experiments())
                tracedExperiment(t, name, fn);
        }
        m["cpusim.replays"] =
            static_cast<double>(model_->engineReplays() - replays0);
        m["core.monolithic_s"] = monolithicS_;
        m["core.monolithic_points"] = monolithicPoints_;

        const std::int64_t p0 = nowNs();
        {
            Tracer::Span probe(t, "probe", "");
            probeSuiteBuild(t, cfg_, m);
            probeTpi(t, m);
        }
        teardown();
        return static_cast<double>(nowNs() - p0) * 1e-9;
    }

    void context(ContextMap &ctx) const override
    {
        ctx["scale"] = fmt(cfg_.scaleDivisor);
        ctx["experiments"] = std::to_string(kExperimentCount);
    }

  private:
    using Experiment = std::pair<std::string, std::function<TextTable()>>;

    std::vector<Experiment> experiments()
    {
        return {
            {"table1", [this] { return ex::table1(*model_); }},
            {"table2", [this] { return ex::table2(*model_); }},
            {"table3", [this] { return ex::table3(*model_); }},
            {"table4", [this] { return ex::table4(*model_); }},
            {"table5", [this] { return ex::table5(*model_); }},
            {"table6",
             [this] { return ex::table6(*engine_, tpi_->timingParams()); }},
            {"fig3", [this] { return ex::fig3(*engine_); }},
            {"fig4", [this] { return ex::fig4(*engine_); }},
            {"fig5", [this] { return ex::fig5(*model_); }},
            {"fig6", [this] { return ex::fig6(*model_); }},
            {"fig7", [this] { return ex::fig7(*model_); }},
            {"fig8", [this] { return ex::fig8(*model_); }},
            {"fig9", [this] { return ex::fig9(*tpi_); }},
            {"fig11", [this] { return ex::fig11(*model_); }},
            {"fig12", [this] { return ex::fig12(*tpi_); }},
            {"fig12Dynamic", [this] { return ex::fig12Dynamic(*tpi_); }},
            {"fig13", [this] { return ex::fig13(*tpi_); }},
        };
    }

    static constexpr std::uint64_t kExperimentCount = 17;

    /**
     * One experiment in a core.exp.<name> span. An experiment off the
     * SweepEngine that replays (memo misses of CpiModel::evaluate)
     * counts toward core.monolithic_s and core.monolithic_points.
     */
    void tracedExperiment(Tracer &t, const std::string &name,
                          const std::function<TextTable()> &fn)
    {
        const bool viaSweep =
            name == "table6" || name == "fig3" || name == "fig4";
        const std::int64_t t0 = nowNs();
        const auto replays0 = model_->engineReplays();
        {
            Tracer::Span s(t, "core.exp." + name, "core");
            if (name == "table5") {
                Tracer::Span l(t, "sched.load_stats", "sched");
                model_->loadDelayStats();
            }
            if (viaSweep) {
                Tracer::Span e(t, "sweep.batch", "sweep");
                fn();
            } else {
                fn();
            }
        }
        const auto replays = model_->engineReplays() - replays0;
        if (!viaSweep && replays > 0) {
            monolithicS_ += static_cast<double>(nowNs() - t0) * 1e-9;
            monolithicPoints_ += static_cast<double>(replays);
        }
    }

    /**
     * TpiModel's share of the Figure 12/13 points, which the
     * experiments compute inside one call each: t_CPU and the TPI
     * combination again, on CPIs the model has memoized.
     */
    void probeTpi(Tracer &t, MetricMap &m)
    {
        using pipecache::cpusim::LoadScheme;
        for (const auto &points :
             {tpiSweep(10, LoadScheme::Static),
              tpiSweep(10, LoadScheme::Dynamic),
              tpiSweep(6, LoadScheme::Static)}) {
            for (const DesignPoint &p : points) {
                const double cpi = model_->evaluate(p).cpi();
                {
                    Tracer::Span c(t, "timing.mintcpu", "timing");
                    volatile double ns = tpi_->cycleNs(p);
                    (void)ns;
                }
                Tracer::Span c(t, "core.tpi_combine", "core");
                tpi_->combineWithCpi(p, cpi);
            }
        }
        m["timing.mintcpu_s"] = t.spanSeconds("timing.mintcpu");
        m["timing.mintcpu_calls"] =
            static_cast<double>(t.spanCount("timing.mintcpu"));
        m["core.tpi_combine_s"] = t.spanSeconds("core.tpi_combine");
    }

    Options opts_;
    pipecache::core::SuiteConfig cfg_;
    std::unique_ptr<pipecache::core::CpiModel> model_;
    std::unique_ptr<pipecache::core::TpiModel> tpi_;
    std::unique_ptr<pipecache::sweep::SweepEngine> engine_;
    std::vector<std::pair<std::string, TextTable>> rendered_;
    std::uint64_t failed_ = 0;
    std::string errors_;
    double bestTpi_ = 0.0;
    double monolithicS_ = 0.0;
    double monolithicPoints_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makePaperRepro(const Options &opts)
{
    return std::make_unique<PaperRepro>(opts);
}

} // namespace perfbench
