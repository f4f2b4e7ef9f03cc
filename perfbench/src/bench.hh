/**
 * @file
 * Shared pieces of the end-to-end benchmark: host clocks, the
 * benchmark's own span tracer, and the interface every workload
 * implements.
 *
 * All times here are host time. Simulated results (CPI, TPI) appear
 * only as correctness checks and as the accuracy figure.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
std::int64_t nowNs();
/** Process user + system CPU seconds so far. */
double cpuSeconds();
/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);
/** Mean of the middle half of @p v: the lowest and highest quarter
 *  (rounded down) are dropped. */
double middleMean(std::vector<double> v);

/** Command-line knobs a workload reads. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Worker threads: min(nproc, 4). */
    unsigned threads = 1;
    /** Shrinks every workload's input (smoke tests only). */
    bool tiny = false;
    /** Name of an output check to feed a perturbed result. */
    std::string perturb;
    /** Directory the Perfetto trace is written to. */
    std::string outDir = ".";
};

/** One comparison between two independent evaluation paths. */
struct CheckResult
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Spans recorded from the benchmark's own code around calls into the
 * library, kept in memory and written out at the end.
 *
 * Self time is measured on a wall-clock basis so that the layers'
 * self times plus the unattributed remainder add up to the traced
 * wall time exactly: a span opened on a worker of a T-thread phase
 * carries weight 1/T, and a span's contribution to its layer is its
 * weighted duration minus the weighted durations of its children.
 * Time a child layer spends inside a parent span without a span of
 * its own (a batch sink called millions of times) is handed over with
 * addInner().
 */
class Tracer
{
  public:
    /** Spans of one workload run share @p runId. */
    explicit Tracer(std::uint64_t runId) : runId_(runId) {}

    class Span
    {
      public:
        /** @p layer "" attributes the span's self time to nobody. */
        Span(Tracer &t, std::string name, std::string layer);
        /** Opens a worker's top-level span under @p parent. */
        Span(Tracer &t, std::string name, std::string layer,
             Span &parent, double weight);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Move @p ns of this span's time to @p layer. */
        void addInner(const std::string &layer, std::int64_t ns);
        /** Rename a span whose kind is known only after the call. */
        void rename(const std::string &name);

      private:
        friend class Tracer;
        Tracer &t_;
        std::size_t index_;
        Span *parent_;
        Span *prevTop_;
        double weight_;
        double childWeightedNs_ = 0.0;
        std::mutex childMutex_;
    };

    /** Finished span, as written to the Perfetto trace. */
    struct Record
    {
        std::string name;
        std::string layer;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        unsigned tid = 0;
        std::uint64_t id = 0;
        std::uint64_t parentId = 0;
    };

    /** Self seconds per layer; the "" layer is attributed to nobody. */
    std::map<std::string, double> layerSelfSeconds() const;
    /** Summed durations of the top-level spans (those without a
     *  parent). Every span's self time, over all layers including "",
     *  adds up to this. */
    double rootSeconds() const;
    /** Summed durations and counts of spans named @p name. */
    double spanSeconds(const std::string &name) const;
    std::uint64_t spanCount(const std::string &name) const;
    /** Durations of every span named @p name, in seconds. */
    std::vector<double> spanDurations(const std::string &name) const;

    /** Write Chrome/Perfetto trace-event JSON. */
    void writeJson(const std::string &path) const;

    std::uint64_t runId() const { return runId_; }

  private:
    std::size_t open(const std::string &name, const std::string &layer,
                     std::uint64_t parentId);
    void close(std::size_t index, double weight, double childWeightedNs);

    std::uint64_t runId_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    std::map<std::string, double> selfSeconds_;
    std::map<std::string, double> innerSeconds_;
};

/** Numbers one traced run reports, by metric name. */
using MetricMap = std::map<std::string, double>;

/** An end-to-end figure only the report prints (e.g. points_per_s). */
struct Extra
{
    std::string name;
    std::string unit;
    /** Per run; a rate's work count, divided by wall_s when reported. */
    double value = 0.0;
    bool rate = false;
};

/** Human-readable context line items ("nproc", "scale", ...). */
using ContextMap = std::map<std::string, std::string>;

/**
 * One benchmark workload. A timed repetition is setup() then run(),
 * in a process of its own; check() compares that repetition's outputs
 * against an independent evaluation path, outside the timed region.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Cold host-side set-up (reported as setup_s). */
    virtual void setup() = 0;
    /** The timed run (reported as wall_s and cpu_s). */
    virtual void run() = 0;
    /** Output checks of the last run; appends to @p out. */
    virtual void check(std::vector<CheckResult> &out) = 0;
    /** Drop the repetition's state (untimed). */
    virtual void teardown() = 0;

    /** Work items the last run attempted and how many failed. */
    virtual std::uint64_t attempted() const = 0;
    virtual std::uint64_t failed() const = 0;
    /** Report-only end-to-end figures of the last checked run. */
    virtual std::vector<Extra> extras() const = 0;

    /**
     * One traced repetition: the same set-up and run with a span
     * around each library call, followed by a probe that repeats the
     * work hidden inside library calls from the layers' own public
     * functions. Fills @p metrics with the per-layer figures; returns
     * the seconds spent in the probe.
     */
    virtual double traced(Tracer &tracer, MetricMap &metrics) = 0;
    /** Metrics measured around untraced runs (sweep.busy_ratio...). */
    virtual void untracedLayerMetrics(MetricMap &) const {}

    virtual void context(ContextMap &ctx) const = 0;
};

/** The three workloads (see README.md for why each exists). */
std::unique_ptr<Workload> makePaperGrid(const Options &opts);
std::unique_ptr<Workload> makePaperRepro(const Options &opts);
std::unique_ptr<Workload> makeTraceStream(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
