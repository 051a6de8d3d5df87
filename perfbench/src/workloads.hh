/**
 * @file
 * The benchmark's workloads and the two ways of running them.
 *
 *   fig5-cold   specs/fig5.study on the thread pool, fresh private
 *               repository over an empty store: trace generation and
 *               store writes are on the timed path
 *   fig5-warm   the same grid over a store filled during setup: the
 *               store's read side (load + varint decode), no generation
 *   rob-wide    6 apps x 4 flavours x 3 widths x ROB 16/32/64/128 as
 *               explicit-trace points, traces generated and decoded in
 *               setup: almost all timed work is the SoA step kernel on
 *               12-config groups
 *   fig5-procs  the fig5 grid on ProcessExecutor (3 forked workers) over
 *               the warm store: dist framing, supervision, aggregation
 *
 * The timed run calls runPoints() with an explicit ExecutionPolicy and
 * reports end-to-end host time.  The traced run sends the same trace
 * groups through each layer's public entry points itself, with spans
 * recorded here (spans.hh), and reports self time per layer.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace perfbench
{

using vmmx::u64;

enum class Workload { Fig5Cold, Fig5Warm, RobWide, Fig5Procs };

const char *name(Workload w);
bool parseWorkload(const std::string &text, Workload &w);

struct Options
{
    Workload workload = Workload::Fig5Cold;
    /** Input seed.  rob-wide generates its traces from it; the fig5
     *  workloads are pinned to TraceRepository::defaultSeed because
     *  Study grids key their traces on it. */
    u64 seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Reduced grid (one app) and a single iteration: self-tests. */
    bool smoke = false;
    unsigned threads = 1;
    std::string root = ".";      ///< checkout root (specs/ lives here)
    std::string workDir;         ///< scratch for trace stores
    std::string goldenDir;       ///< committed golden digests
    std::string traceOut;        ///< traced run's Perfetto file ("" = none)
    /** Absolute path of this binary: fig5-procs workers and the store
     *  fill of fig5-warm/fig5-procs run as self-exec'd children, so
     *  neither lands in this process's peak RSS. */
    std::string selfExe;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::string detail; ///< human summary (quartiles, sample counts)
};

struct Outcome
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
};

/** The trace seed rob-wide uses for benchmark seed @p seed; seed 0 is
 *  TraceRepository::defaultSeed, the seed the golden digests cover. */
u64 traceSeedFor(u64 seed);

/** Measure one workload (timed run, or traced run with opts.trace). */
Outcome runWorkload(const Options &opts);

/** Generate every trace of the workload's grid into the store at
 *  @p dir (the child-process half of fig5-warm/fig5-procs setup).
 *  @return false on I/O errors. */
bool fillStore(const Options &opts, const std::string &dir);

/** Recompute golden/fig5.txt and golden/rob-wide.txt with the serial
 *  decode-on-the-fly oracle.  @return false on write errors. */
bool regenerateGolden(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
