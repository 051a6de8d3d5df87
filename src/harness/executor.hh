/**
 * @file
 * Execution backends for grid studies: one ExecutionPolicy describing
 * *how* a grid should run, and an Executor interface with the three
 * implementations behind every result in this repository --
 *
 *   SerialExecutor      the calling thread, unit by unit (the
 *                       reference ordering every backend must match)
 *   ThreadPoolExecutor  an in-process pool pulling schedulable units
 *                       off a shared counter (the PR-1 sweep engine)
 *   ProcessExecutor     sharded worker processes over the src/dist/
 *                       frame protocol, traces shared through the
 *                       on-disk TraceStore (the PR-2 subsystem)
 *
 * All three consume the same buildSweepUnits() schedule (whole trace
 * groups when ExecutionPolicy::batch, single points otherwise) and all
 * write results into submission-order slots, so for any grid and any
 * policy the three result vectors are bit-identical -- asserted by
 * tests/test_study.cc and CI.  A future remote backend (the ROADMAP's
 * TCP rung) is one more implementation of this interface; nothing above
 * it has to change.
 *
 * runSerial() is the decode-on-the-fly oracle the backends are checked
 * against: one point at a time on the calling thread, never batched,
 * never served from the decoded tier.
 *
 * The policy's defaults come from the VMMX_* environment variables
 * through ExecutionPolicy::fromEnv() -- the single place those
 * variables are consulted for execution knobs (via common/env.hh).
 */

#ifndef VMMX_HARNESS_EXECUTOR_HH
#define VMMX_HARNESS_EXECUTOR_HH

#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace vmmx
{

namespace dist
{
struct DistStats;
}

/**
 * How to execute a grid: backend choice plus every knob the backends
 * understand.  The declarative subset (everything up to
 * maxUnitAttempts) round-trips through the [exec] section of a study
 * spec file; the trailing runtime-only fields are never serialized.
 */
struct ExecutionPolicy
{
    enum class Backend : u8 { Serial, ThreadPool, Process };

    Backend backend = Backend::ThreadPool;
    /** ThreadPool worker threads; 0 = hardware_concurrency(). */
    unsigned threads = 0;
    /** Process backend worker count (>= 1). */
    unsigned processes = 2;
    /** Schedule whole trace groups (one batched pass per group); off =
     *  one point per unit.  Bit-identical either way. */
    bool batch = true;
    /** Serve jobs from the repository's decoded tier; off = decode on
     *  the fly per job.  Bit-identical either way. */
    bool decoded = true;
    /** Raw (tier-1) trace RAM budget; 0 = unlimited.  Applied to the
     *  per-worker repositories of the Process backend; in-process
     *  backends only apply it where the caller asks (vmmx_study). */
    u64 rawBudget = 0;
    /** Decoded (tier-2) RAM budget; 0 = unlimited. */
    u64 decodedBudget = 0;
    /** Trace store directory (Process backend); "" = default dir. */
    std::string storeDir;
    /** Crash-resume journal (Process backend); "" = no journal. */
    std::string journalPath;
    /** Process backend: respawns per worker slot before the slot is
     *  abandoned; 0 = never respawn. */
    unsigned maxRespawns = 3;
    /** Process backend: per-unit wall-clock deadline in ms; a worker
     *  that exceeds it is declared hung, SIGKILLed and treated as
     *  crashed.  0 = no deadline. */
    u64 unitTimeoutMs = 0;
    /** Process backend: workers a single unit may kill before it is
     *  quarantined rather than retried (>= 1). */
    unsigned maxUnitAttempts = 3;

    // ---- runtime-only wiring (not part of the declarative spec) ------
    /** Repository to resolve traces against; null = the process-wide
     *  TraceRepository::instance(). */
    TraceRepository *repo = nullptr;
    /** Optional out-param for Process-backend statistics. */
    dist::DistStats *distStats = nullptr;
    /** Self-exec worker binary for the Process backend ("" forks
     *  without exec).  The target's main() must call
     *  dist::maybeWorkerMain() first. */
    std::string execPath;
    /** Extra argv for execPath, before the appended "--worker --fd N". */
    std::vector<std::string> execArgs;
    /** Process backend: deterministic fault plan forwarded to every
     *  worker spawn ("" = none); grammar in common/env.hh
     *  (FaultAction). */
    std::string faultSpec;
    /** Process backend: fdatasync() the journal after every appended
     *  entry, so results survive a host crash, not just a driver
     *  crash.  Off by default: the sync costs more than most points. */
    bool journalSync = false;

    /** The built-in defaults with the environment knobs layered on
     *  top: VMMX_TRACE_CACHE_BUDGET, VMMX_DECODED_CACHE_BUDGET,
     *  VMMX_TRACE_STORE, VMMX_MAX_RESPAWNS, VMMX_UNIT_TIMEOUT_MS,
     *  VMMX_MAX_UNIT_ATTEMPTS, VMMX_FAULT_SPEC, VMMX_JOURNAL_SYNC.
     *  batch and decoded have no variable: the [exec] keys of a study
     *  spec are their one home. */
    static ExecutionPolicy fromEnv();

    /** The repository this policy resolves traces through. */
    TraceRepository &repository() const;

    /** Declarative-field equality (runtime wiring excluded); what the
     *  spec-file round-trip preserves. */
    bool operator==(const ExecutionPolicy &o) const
    {
        return backend == o.backend && threads == o.threads &&
               processes == o.processes && batch == o.batch &&
               decoded == o.decoded && rawBudget == o.rawBudget &&
               decodedBudget == o.decodedBudget &&
               storeDir == o.storeDir && journalPath == o.journalPath &&
               maxRespawns == o.maxRespawns &&
               unitTimeoutMs == o.unitTimeoutMs &&
               maxUnitAttempts == o.maxUnitAttempts;
    }
};

/** Spec-file spelling of a backend ("serial", "threads", "processes"). */
const char *name(ExecutionPolicy::Backend b);
/** Parse a backend name. @return false on unknown names. */
bool parseBackend(const std::string &text, ExecutionPolicy::Backend &b);

/**
 * One execution backend.  Implementations are stateless: run() may be
 * called concurrently with distinct grids.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    virtual const char *name() const = 0;

    /**
     * Run every point of @p points under @p policy and return the
     * results in submission order, bit-identical across backends.
     */
    virtual std::vector<SweepResult>
    run(const std::vector<SweepPoint> &points,
        const ExecutionPolicy &policy) const = 0;
};

/** Unit-by-unit execution on the calling thread. */
class SerialExecutor : public Executor
{
  public:
    const char *name() const override { return "serial"; }
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points,
                                 const ExecutionPolicy &policy) const override;
};

/** In-process thread pool over the shared unit schedule. */
class ThreadPoolExecutor : public Executor
{
  public:
    const char *name() const override { return "threads"; }
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points,
                                 const ExecutionPolicy &policy) const override;
};

/** Sharded worker processes (the src/dist/ subsystem). */
class ProcessExecutor : public Executor
{
  public:
    const char *name() const override { return "processes"; }
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points,
                                 const ExecutionPolicy &policy) const override;
};

/** The (stateless, shared) executor implementing @p backend. */
const Executor &executorFor(ExecutionPolicy::Backend backend);

/** Dispatch @p points through the backend @p policy names. */
std::vector<SweepResult> runPoints(const std::vector<SweepPoint> &points,
                                   const ExecutionPolicy &policy);

/**
 * The reference serial loop: every point of @p points on the calling
 * thread, one at a time, decoding on the fly (never batched, never
 * served from the decoded tier) -- the determinism baseline every
 * backend is checked against.  Traces still resolve through
 * policy.repository(); only that field of @p policy is consulted.
 */
std::vector<SweepResult> runSerial(const std::vector<SweepPoint> &points,
                                   const ExecutionPolicy &policy);

/**
 * Run one grid point under @p policy on the calling thread.
 * @p useDecoded false forces the decode-on-the-fly reference path
 * regardless of policy.decoded (runSerial's baseline).
 */
SweepResult runSweepPoint(const SweepPoint &point,
                          const ExecutionPolicy &policy, bool useDecoded);

/**
 * Run one schedulable unit -- a whole trace group resolved and replayed
 * in a single batched pass when policy.batch, a single point otherwise
 * -- writing into the submission-order slots of @p results.  The common
 * inner loop of the Serial and ThreadPool executors.
 */
void runSweepUnit(const std::vector<SweepPoint> &points,
                  const std::vector<u32> &unit,
                  const ExecutionPolicy &policy,
                  std::vector<SweepResult> &results);

} // namespace vmmx

#endif // VMMX_HARNESS_EXECUTOR_HH
