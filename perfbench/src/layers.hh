/**
 * @file
 * Helpers the workloads share for spanning calls into the library's
 * layers and for probing the work the library does inside one call.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "bench.hh"
#include "core/cpi_model.hh"

namespace perfbench {

/** Short human-readable number. */
std::string fmt(double v);

/** |tpi - 6.8 ns| / 6.8 ns in percent: the paper's optimum. */
double tpiErrPct(double tpiNs);

/** log2 of the set count of a @p kw KW cache. */
std::uint32_t log2Sets(std::uint32_t kw, std::uint32_t blockWords,
                       std::uint32_t assoc);

/**
 * Build the model's recorded traces, schedule and (when @p xlat)
 * translation files for b = 0..3, one span per library call.
 */
void buildSuiteArtifacts(Tracer &t, pipecache::core::CpiModel &model,
                         bool xlat);

/**
 * Generate every benchmark's program (isa) and record its trace
 * (trace) again from those layers' own functions, which the model
 * calls inside one lazy build. Sets trace.exec_minsts_per_s.
 */
void probeSuiteBuild(Tracer &t, const pipecache::core::SuiteConfig &cfg,
                     MetricMap &m);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
