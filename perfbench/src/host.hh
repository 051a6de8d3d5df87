/**
 * @file
 * Host fingerprint, environment hygiene and resource probes.
 *
 * Every record the benchmark prints carries the fingerprint, so a
 * number can always be traced back to the CPU, SIMD path, compiler and
 * build that produced it.  Timings from a sanitized or unoptimised
 * build are refused.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>
#include <vector>

namespace perfbench
{

struct Fingerprint
{
    std::string cpu;
    unsigned nproc = 0;
    std::string simdPath;  ///< simd::activePath() for batched groups
    std::string simdEnv;   ///< $VMMX_SIMD as set ("" = unset)
    std::string compiler;
    std::string buildType;
    bool optimized = false;
    bool assertions = false;
    std::string sanitizer;
    std::string gitSha;

    /** Timings from this build may be reported. */
    bool valid() const
    {
        return optimized && !assertions && sanitizer == "none";
    }
    /** Why valid() is false ("" when it is true). */
    std::string invalidReason() const;
    std::string json() const;
};

Fingerprint fingerprint(const std::string &gitSha);

/** CPUs this process may run on (what `nproc` prints). */
unsigned nproc();

/**
 * The VMMX_* knobs that would change what a workload measures, read
 * through common/env.hh.  The benchmark builds its ExecutionPolicy
 * explicitly, but these still reach the program through defaults it
 * reads on its own (fault plans, telemetry, progress, stores), so a
 * set one is refused rather than silently measured.
 */
std::vector<std::string> rejectedKnobsSet();

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
