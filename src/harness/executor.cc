#include "harness/executor.hh"

#include <atomic>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/wire.hh"
#include "sim/simd_dispatch.hh"

namespace vmmx
{

namespace
{

/** Raw (tier-1) trace of @p point, pinned while borrowed. */
TraceRepository::TraceHandle
resolveRaw(const SweepPoint &point, TraceRepository &repo)
{
    if (point.workload == SweepPoint::Workload::Trace)
        return TraceRepository::TraceHandle(point.trace);
    return repo.raw(traceKeyFor(point));
}

/** Decoded (tier-2) stream of @p point, pinned while borrowed. */
TraceRepository::DecodedHandle
resolveDecoded(const SweepPoint &point, TraceRepository &repo)
{
    if (point.workload == SweepPoint::Workload::Trace)
        return repo.decoded(point.trace);
    return repo.decoded(traceKeyFor(point));
}

/** Resolve @p lead's trace once (decoded tier or raw) and replay it on
 *  every machine; the single tier-dispatch site. */
std::vector<RunResult>
resolveAndRun(const SweepPoint &lead, std::span<const MachineConfig> machines,
              TraceRepository &repo, bool useDecoded, u64 &traceLength)
{
    if (useDecoded) {
        TraceRepository::DecodedHandle stream = resolveDecoded(lead, repo);
        traceLength = stream.records();
        return runTraceBatch(machines, stream.stream());
    }
    TraceRepository::TraceHandle trace = resolveRaw(lead, repo);
    traceLength = trace->size();
    return runTraceBatch(machines, *trace);
}

/** The resolved thread count of @p policy, capped at @p units. */
unsigned
effectiveThreads(const ExecutionPolicy &policy, size_t units)
{
    unsigned threads = policy.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    return std::min<unsigned>(threads, unsigned(units));
}

std::vector<u32>
allIndices(size_t n)
{
    std::vector<u32> all(n);
    for (u32 i = 0; i < all.size(); ++i)
        all[i] = i;
    return all;
}

} // namespace

ExecutionPolicy
ExecutionPolicy::fromEnv()
{
    ExecutionPolicy p;
    p.rawBudget = env::byteSize("VMMX_TRACE_CACHE_BUDGET");
    p.decodedBudget = env::byteSize("VMMX_DECODED_CACHE_BUDGET");
    p.storeDir = env::str("VMMX_TRACE_STORE");
    p.maxRespawns = dist::maxRespawnsFromEnv();
    p.unitTimeoutMs = dist::unitTimeoutMsFromEnv();
    p.maxUnitAttempts = dist::maxUnitAttemptsFromEnv();
    p.faultSpec = dist::faultSpecFromEnv();
    p.journalSync = dist::journalSyncFromEnv();
    return p;
}

TraceRepository &
ExecutionPolicy::repository() const
{
    return repo ? *repo : TraceRepository::instance();
}

const char *
name(ExecutionPolicy::Backend b)
{
    switch (b) {
      case ExecutionPolicy::Backend::Serial: return "serial";
      case ExecutionPolicy::Backend::ThreadPool: return "threads";
      case ExecutionPolicy::Backend::Process: return "processes";
    }
    panic("bad backend %d", int(b));
}

bool
parseBackend(const std::string &text, ExecutionPolicy::Backend &b)
{
    if (text == "serial")
        b = ExecutionPolicy::Backend::Serial;
    else if (text == "threads")
        b = ExecutionPolicy::Backend::ThreadPool;
    else if (text == "processes")
        b = ExecutionPolicy::Backend::Process;
    else
        return false;
    return true;
}

SweepResult
runSweepPoint(const SweepPoint &point, const ExecutionPolicy &policy,
              bool useDecoded)
{
    MachineConfig machine = makeMachine(point.kind, point.way,
                                        point.overrides);
    SweepResult r;
    r.point = point;
    r.result = resolveAndRun(point, {&machine, 1}, policy.repository(),
                             useDecoded, r.traceLength)[0];
    return r;
}

std::vector<SweepResult>
runSerial(const std::vector<SweepPoint> &points,
          const ExecutionPolicy &policy)
{
    std::vector<SweepResult> results;
    results.reserve(points.size());
    for (const auto &point : points)
        results.push_back(runSweepPoint(point, policy,
                                        /*useDecoded=*/false));
    return results;
}

void
runSweepUnit(const std::vector<SweepPoint> &points,
             const std::vector<u32> &unit, const ExecutionPolicy &policy,
             std::vector<SweepResult> &results)
{
    if (!policy.batch) {
        results[unit[0]] = runSweepPoint(points[unit[0]], policy,
                                         policy.decoded);
        return;
    }
    // One trace resolution and one trace pass for the whole group; with
    // the decoded tier on, even the decode happened at most once per
    // process, not once per group.
    std::vector<MachineConfig> machines;
    machines.reserve(unit.size());
    for (u32 i : unit)
        machines.push_back(makeMachine(points[i].kind, points[i].way,
                                       points[i].overrides));
    u64 unitStartNs = telemetry::enabled() ? telemetry::nowNs() : 0;
    std::string leadLabel =
        telemetry::enabled() ? points[unit[0]].label() : std::string();
    u64 traceLength = 0;
    std::vector<RunResult> runs;
    {
        TELEMETRY_SPAN("simulate",
                       leadLabel.empty()
                           ? std::string()
                           : leadLabel + " simd=" +
                                 simd::pathName(simd::pathFor(unit.size())));
        runs = resolveAndRun(points[unit[0]], machines,
                             policy.repository(), policy.decoded,
                             traceLength);
    }
    if (telemetry::enabled()) {
        telemetry::UnitRecord rec;
        rec.traceHash = wire::fnv1a(leadLabel.data(), leadLabel.size());
        rec.label = leadLabel;
        rec.points = u32(unit.size());
        rec.records = traceLength;
        rec.wallNs = telemetry::nowNs() - unitStartNs;
        // Attribute the unit's throughput to the step kernel that
        // produced it: width-1 units take the fused serial (scalar)
        // step, wider units the dispatched host-SIMD path.
        simd::Path path = simd::pathFor(unit.size());
        rec.simd = simd::pathName(path);
        telemetry::Registry &reg = telemetry::Registry::instance();
        reg.setGauge("sim.simd", u64(path));
        reg.addUnit(std::move(rec));
    }
    for (size_t k = 0; k < unit.size(); ++k) {
        SweepResult &r = results[unit[k]];
        r.point = points[unit[k]];
        r.traceLength = traceLength;
        r.result = runs[k];
    }
}

std::vector<SweepResult>
SerialExecutor::run(const std::vector<SweepPoint> &points,
                    const ExecutionPolicy &policy) const
{
    std::vector<std::vector<u32>> units =
        buildSweepUnits(points, allIndices(points.size()), policy.batch);
    std::vector<SweepResult> results(points.size());
    telemetry::Progress progress("sweep", points.size());
    u64 done = 0;
    for (const auto &unit : units) {
        runSweepUnit(points, unit, policy, results);
        done += unit.size();
        progress.update(done);
    }
    progress.finish(done);
    return results;
}

std::vector<SweepResult>
ThreadPoolExecutor::run(const std::vector<SweepPoint> &points,
                        const ExecutionPolicy &policy) const
{
    std::vector<std::vector<u32>> units =
        buildSweepUnits(points, allIndices(points.size()), policy.batch);
    unsigned threads = effectiveThreads(policy, units.size());

    if (threads <= 1) {
        std::vector<SweepResult> results(points.size());
        for (const auto &unit : units)
            runSweepUnit(points, unit, policy, results);
        return results;
    }

    // Units are independent (per-configuration MemorySystem/SimContext,
    // immutable shared trace artifacts); workers pull the next undone
    // unit and write into its submission-order slots, so the result
    // vector is deterministic.
    std::vector<SweepResult> results(points.size());
    std::atomic<size_t> next{0};
    std::atomic<u64> done{0};
    telemetry::Progress progress("sweep", points.size());
    auto worker = [&]() {
        for (size_t u = next.fetch_add(1); u < units.size();
             u = next.fetch_add(1)) {
            runSweepUnit(points, units[u], policy, results);
            progress.update(done.fetch_add(units[u].size()) +
                            units[u].size());
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    progress.finish(done.load());
    return results;
}

std::vector<SweepResult>
ProcessExecutor::run(const std::vector<SweepPoint> &points,
                     const ExecutionPolicy &policy) const
{
    return dist::runSweep(points, policy, policy.distStats);
}

const Executor &
executorFor(ExecutionPolicy::Backend backend)
{
    static const SerialExecutor serial;
    static const ThreadPoolExecutor threads;
    static const ProcessExecutor processes;
    switch (backend) {
      case ExecutionPolicy::Backend::Serial: return serial;
      case ExecutionPolicy::Backend::ThreadPool: return threads;
      case ExecutionPolicy::Backend::Process: return processes;
    }
    panic("bad backend %d", int(backend));
}

std::vector<SweepResult>
runPoints(const std::vector<SweepPoint> &points,
          const ExecutionPolicy &policy)
{
    return executorFor(policy.backend).run(points, policy);
}

} // namespace vmmx
