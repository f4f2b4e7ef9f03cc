#include "layers.hh"

#include <cmath>
#include <cstdio>

#include "trace/benchmark.hh"
#include "trace/data_address_generator.hh"
#include "trace/executor.hh"

namespace perfbench {

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

double
tpiErrPct(double tpiNs)
{
    return std::fabs(tpiNs - 6.8) / 6.8 * 100.0;
}

std::uint32_t
log2Sets(std::uint32_t kw, std::uint32_t blockWords, std::uint32_t assoc)
{
    const std::uint64_t sets =
        std::uint64_t{kw} * 1024 / (std::uint64_t{blockWords} * assoc);
    return static_cast<std::uint32_t>(std::log2(static_cast<double>(sets)));
}

void
buildSuiteArtifacts(Tracer &t, pipecache::core::CpiModel &model,
                    bool xlat)
{
    {
        Tracer::Span s(t, "trace.build", "trace");
        model.traceOf(0);
    }
    {
        Tracer::Span s(t, "trace.multiprog", "trace");
        model.schedule();
    }
    if (!xlat)
        return;
    // The first call per b builds the whole suite's translations.
    for (std::uint32_t b = 0; b <= 3; ++b) {
        Tracer::Span s(t, "sched.xlat", "sched");
        model.xlat(0, b);
    }
}

void
probeSuiteBuild(Tracer &t, const pipecache::core::SuiteConfig &cfg,
                MetricMap &m)
{
    const auto &suite = pipecache::trace::table1Suite();
    double insts = 0.0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto asid = static_cast<std::uint32_t>(i);
        pipecache::isa::Program program = [&] {
            Tracer::Span s(t, "isa.progen", "isa");
            return suite[i].makeProgram(asid, cfg.seedSalt);
        }();
        Tracer::Span s(t, "trace.exec", "trace");
        pipecache::trace::DataAddressGenerator dgen(
            suite[i].dataConfig(asid, cfg.seedSalt));
        pipecache::trace::ExecConfig exec;
        exec.seed = suite[i].seed(cfg.seedSalt);
        exec.maxInsts = suite[i].scaledInsts(cfg.scaleDivisor);
        insts += static_cast<double>(
            pipecache::trace::recordTrace(program, dgen, exec).instCount);
    }
    m["trace.exec_minsts_per_s"] = insts / t.spanSeconds("trace.exec") * 1e-6;
}

} // namespace perfbench
