/**
 * @file
 * Driver side of the distributed sweep subsystem.
 *
 * runSweep() shards a grid of SweepPoints across N worker processes
 * under the Process-backend fields of an ExecutionPolicy.  Workers are
 * spawned from this process (fork, or fork+exec of execPath for
 * binaries that install the self-exec hook) and speak the
 * length-prefixed frame protocol of dist/protocol.hh over a socketpair.
 * The schedulable unit is a *trace group* -- the points that replay one
 * trace, which a worker executes as a single batched pass
 * (runTraceBatch) so the trace is decoded and streamed once per group
 * even across process boundaries; batch = false falls back to one
 * point per unit.  Each worker starts with a contiguous shard of the
 * units; a worker that drains its own shard steals units from the tail
 * of the largest remaining shard, so stragglers (one worker stuck on
 * mpeg2enc) cannot serialize the sweep.
 *
 * The driver is a *supervisor*: a worker that dies (EOF, signal,
 * nonzero exit), sends a malformed or Error frame, or blows the
 * per-unit deadline (unitTimeoutMs) does not kill the run.  Its
 * in-flight units are reclaimed -- only the still-missing points of
 * each -- and its slot is respawned with bounded exponential backoff,
 * up to maxRespawns times.  The attempt count of the unit that was
 * *executing* at death is charged; a unit that has killed
 * maxUnitAttempts workers is quarantined (its remaining points reported
 * failed, never retried).  When the whole fleet is gone and respawn
 * budgets are spent, the driver degrades gracefully: the remaining
 * units run in-driver through the serial unit runner.  Every recovery
 * path is reported in DistStats, and all of them are deterministically
 * exercisable via ExecutionPolicy::faultSpec / $VMMX_FAULT_SPEC
 * (grammar in common/env.hh).
 *
 * Completed results are journaled to disk as they arrive (optional), so
 * a crashed or interrupted sweep resumes from where it stopped: rerun
 * with the same journal path and only the missing grid points execute.
 * The journal is validated against a signature of the full grid and is
 * kept after success -- delete it to force recomputation.
 *
 * Aggregation is by submission index into a pre-sized result vector, so
 * the output order -- and, because per-job state is private and traces
 * are immutable and deterministic in their TraceKey -- every byte of the
 * results is identical to runSerial() on the same grid.  That same
 * property is what makes recovery safe: re-running the missing
 * subset of a trace group yields per-point results identical to the
 * full pass, so recovered and degraded runs stay bit-identical too.
 */

#ifndef VMMX_DIST_DRIVER_HH
#define VMMX_DIST_DRIVER_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/executor.hh"
#include "trace/trace_repo.hh"

namespace vmmx::dist
{

/** One worker's end-of-session trace-repository tier counters. */
struct WorkerTierStats
{
    u64 generations = 0;   ///< traces built from scratch
    u64 hits = 0;          ///< raw-tier RAM hits
    u64 diskLoads = 0;     ///< tier-1 fills from the disk tier
    u64 decodes = 0;       ///< decoded-tier fills
    u64 decodedHits = 0;   ///< decoded-tier RAM hits
    u64 bytesResident = 0; ///< raw bytes resident at exit
    u64 decodedBytes = 0;  ///< decoded bytes resident at exit
};

/** How one worker spawn ended (one entry per spawn, including clean
 *  ones, in the order the driver learned of them). */
struct WorkerExit
{
    enum class Cause : u8
    {
        Clean,     ///< exited 0 after the Done handshake
        Exit,      ///< exited nonzero (crash via _exit, exec failure...)
        Signal,    ///< killed by a signal (SIGKILL, SIGSEGV...)
        Malformed, ///< sent an undecodable or protocol-violating frame
        Hung,      ///< blew the per-unit deadline; driver SIGKILLed it
        Lost,      ///< connection lost mid-session (EOF at the driver)
        Error,     ///< sent an explicit Error frame
    };

    unsigned slot = 0;  ///< worker slot (index into DistStats::perWorker)
    u32 spawnId = 0;    ///< spawn ordinal (the faultSpec "workerN" id)
    Cause cause = Cause::Clean;
    std::string detail; ///< human-readable status ("exit 137", ...)
};

/** Spec spelling of an exit cause ("clean", "signal", ...). */
const char *name(WorkerExit::Cause c);

/** Aggregate execution statistics of one distributed run. */
struct DistStats
{
    // Summed over all workers' private trace repositories.
    u64 generations = 0; ///< traces actually generated this run
    u64 hits = 0;        ///< raw-tier lookups served from worker RAM
    u64 diskLoads = 0;   ///< lookups served from the on-disk TraceStore
    u64 storeSaves = 0;  ///< traces newly persisted to the store
    u64 bytesResident = 0; ///< raw trace bytes held across workers at exit
    u64 decodes = 0;     ///< decoded streams built across workers
    u64 decodedHits = 0; ///< decoded-tier lookups served from worker RAM
    u64 decodedBytes = 0; ///< decoded bytes held across workers at exit
    /** The same counters per worker slot, accumulated across that
     *  slot's spawns (the per-worker tier report of vmmx_study).  A
     *  spawn that dies before its Done handshake never reports; its
     *  tier counters are lost with it. */
    std::vector<WorkerTierStats> perWorker;
    // Driver-side scheduling counters.  Jobs count grid points (the
    // journal/aggregation unit); groups count the batched trace groups
    // those points were dispatched in.
    u64 jobsRun = 0;     ///< grid points executed by workers
    u64 jobsResumed = 0; ///< grid points restored from the journal
    u64 groupsRun = 0;   ///< work units dispatched (trace groups)
    u64 steals = 0;      ///< units migrated off another worker's shard
    unsigned workers = 0;
    // Supervision and fault recovery (zero on an undisturbed run).
    u64 respawns = 0;        ///< worker processes respawned after a death
    u64 reassignedUnits = 0; ///< in-flight units reclaimed from dead workers
    u64 retries = 0;         ///< charged units re-dispatched for another try
    u64 quarantinedUnits = 0; ///< units abandoned after maxUnitAttempts
    /** Grid indices whose results were abandoned by quarantine; the
     *  corresponding SweepResults are the unexecuted defaults. */
    std::vector<u32> quarantinedPoints;
    bool degraded = false; ///< fleet collapsed; remainder ran in-driver
    u64 degradedJobs = 0;  ///< grid points executed in-driver after collapse
    u64 abnormalExits = 0; ///< spawns that exited nonzero or by signal
    u64 journalSkipped = 0; ///< corrupt/truncated journal entries skipped
    /** Every worker spawn's fate, including post-run abnormal exits of
     *  workers whose jobs all completed. */
    std::vector<WorkerExit> exitCauses;

    std::string summary() const;
};

/** Publish a run's aggregate counters as "dist.*" gauges (and the
 *  worker repositories' tier aggregate as "repo.*" gauges) in the
 *  process-wide telemetry registry, for --metrics-json exports. */
void publishMetrics(const DistStats &st);

// Environment defaults for the supervision knobs (common/env.hh
// semantics: unset = built-in default, junk warns and falls back).
unsigned maxRespawnsFromEnv();     ///< $VMMX_MAX_RESPAWNS, default 3
unsigned maxUnitAttemptsFromEnv(); ///< $VMMX_MAX_UNIT_ATTEMPTS, default 3
u64 unitTimeoutMsFromEnv();        ///< $VMMX_UNIT_TIMEOUT_MS, default 0
bool journalSyncFromEnv();         ///< $VMMX_JOURNAL_SYNC, default off
std::string faultSpecFromEnv();    ///< $VMMX_FAULT_SPEC, default ""

/** Stable signature of a grid (journal validation). */
u64 gridSignature(const std::vector<SweepPoint> &points);

/**
 * Run every point of @p points across supervised worker processes and
 * return the results in submission order, bit-identical to runSerial().
 * Reads the Process-backend fields of @p policy (processes, storeDir,
 * budgets, journal, batch/decoded, supervision knobs, faultSpec,
 * execPath) directly; worker output follows vmmx::quiet().  Worker failures are recovered (respawn, reassign, degrade to
 * in-driver execution); only driver-side invariant violations are
 * fatal.  Quarantined points -- see DistStats::quarantinedPoints --
 * come back as default-constructed results.  An interrupted journaled
 * run resumes on the next invocation.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepPoint> &points,
                                  const ExecutionPolicy &policy,
                                  DistStats *stats = nullptr);

} // namespace vmmx::dist

#endif // VMMX_DIST_DRIVER_HH
