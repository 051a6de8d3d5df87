/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries: build a
 * kernel or app trace for a flavour and time it on a Table III/IV
 * machine.
 *
 * Traces are resolved through the repository an ExecutionPolicy names
 * (the process-wide vmmx::TraceRepository by default), so a bench that
 * touches the same (workload, flavour) many times -- every multi-way
 * sweep does -- generates each trace exactly once.  The helpers hand
 * out references, so the first handle seen for a (repository, key) pair
 * is kept alive here for the process lifetime; its RAII pin makes the
 * repository's eviction skip the entry even under a tiny
 * VMMX_TRACE_CACHE_BUDGET, so the references stay stable with no
 * re-materialization churn.  All helpers are safe to call from sweep
 * worker threads: the repository is internally locked, machine
 * construction is pure, and setQuiet() is atomic.
 */

#ifndef VMMX_BENCHUTIL_HH
#define VMMX_BENCHUTIL_HH

#include <iostream>
#include <map>
#include <mutex>
#include <tuple>

#include "apps/app.hh"
#include "common/table.hh"
#include "common/telemetry.hh"
#include "harness/executor.hh"
#include "harness/study.hh"
#include "kernels/kernel.hh"
#include "trace/trace_repo.hh"

namespace vmmx::bench
{

struct TimedRun
{
    RunResult result;
    u64 traceLength = 0;
    std::array<u64, numInstClasses> instByClass{};
};

/** Trace-by-reference lookup, pinned for the process lifetime.  The
 *  trace resolves through @p policy's repository, so a bench running
 *  against a private repository gets (and pins) entries there, not in
 *  the process-wide instance; the pin map keys on the repository too,
 *  so the same trace may be pinned once per repository. */
inline const std::vector<InstRecord> &
pinnedTrace(bool isApp, const std::string &name, SimdKind kind,
            const ExecutionPolicy &policy = {})
{
    TraceRepository &repo = policy.repository();
    using Key = std::tuple<TraceRepository *, bool, std::string, SimdKind>;
    static std::mutex mu;
    static std::map<Key, TraceRepository::TraceHandle> pinned;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = pinned.find({&repo, isApp, name, kind});
        if (it != pinned.end())
            return *it->second;
    }
    // Resolve outside the map lock so distinct traces generate in
    // parallel; a lost race just drops the duplicate handle.
    TraceRepository::TraceHandle h =
        isApp ? repo.app(name, kind) : repo.kernel(name, kind);
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] =
        pinned.try_emplace({&repo, isApp, name, kind}, std::move(h));
    return *it->second;
}

/** Kernel trace for (name, kind), pinned in the policy's repository. */
inline const std::vector<InstRecord> &
kernelTrace(const std::string &kernel, SimdKind kind,
            const ExecutionPolicy &policy = {})
{
    return pinnedTrace(false, kernel, kind, policy);
}

/** App trace for (name, kind), pinned in the policy's repository. */
inline const std::vector<InstRecord> &
appTrace(const std::string &app, SimdKind kind,
         const ExecutionPolicy &policy = {})
{
    return pinnedTrace(true, app, kind, policy);
}

inline TimedRun
time(const std::vector<InstRecord> &trace, SimdKind kind, unsigned way,
     const Config &overrides = {})
{
    TimedRun t;
    t.traceLength = trace.size();
    auto machine = makeMachine(kind, way, overrides);
    t.result = runTrace(machine, trace);
    t.instByClass = t.result.core.instByClass;
    return t;
}

} // namespace vmmx::bench

#endif // VMMX_BENCHUTIL_HH
