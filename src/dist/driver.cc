#include "dist/driver.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/telemetry.hh"
#include "dist/protocol.hh"
#include "dist/worker.hh"
#include "harness/executor.hh"
#include "harness/harness_io.hh"
#include "trace/trace_store.hh"

namespace vmmx::dist
{

namespace
{

constexpr u32 journalMagic = 0x4c4a4d56; // "VMJL" little-endian
constexpr u32 journalVersion = 1;
/** Work units kept in flight per worker: one running, one queued behind
 *  it so the worker never idles waiting on the driver's scheduling
 *  latency.  A unit is a trace group (batched) or one point (batch
 *  off). */
constexpr unsigned pipelineDepth = 2;
/** Respawn backoff: base << (respawnsUsed - 1), capped.  Bounded so a
 *  worker that dies instantly on spawn cannot busy-loop the driver, and
 *  short enough that a transient failure costs milliseconds. */
constexpr u64 backoffBaseMs = 20;
constexpr u64 backoffCapMs = 1000;

/** Monotonic milliseconds (deadlines and backoff; never wall clock). */
u64
nowMs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return u64(ts.tv_sec) * 1000 + u64(ts.tv_nsec) / 1000000;
}

/** One dispatched-but-unanswered unit on a worker. */
struct Inflight
{
    u32 unit = 0;    ///< unit id
    u32 expect = 0;  ///< result frames still expected
    u64 started = 0; ///< when this entry reached the running (front) slot
};

/**
 * One worker *slot*.  The slot -- its shard, its perWorker stats row,
 * its respawn budget -- outlives the processes that serve it: when a
 * spawn dies the slot is respawned (fresh pid/fd/spawnId) after a
 * backoff, until maxRespawns is spent and the slot is abandoned.
 */
struct WorkerProc
{
    pid_t pid = -1;
    int fd = -1;
    unsigned slot = 0; ///< stable index into DistStats::perWorker
    u32 spawnId = 0;   ///< spawn ordinal (the faultSpec "workerN" id)
    std::deque<u32> shard; ///< remaining unit ids, front first
    /** Units sent but not fully answered, in send order.  Workers run
     *  units serially and answer a unit's points in order, so the
     *  front entry is always the one being drained. */
    std::deque<Inflight> inflight;
    bool doneSent = false;
    bool statsSeen = false;
    unsigned respawnsUsed = 0;
    bool respawnPending = false;
    u64 respawnDue = 0; ///< nowMs() timestamp the respawn fires at
    u64 diedNs = 0;     ///< death time of the pending respawn's
                        ///< predecessor (telemetry backoff span)

    bool live() const { return fd >= 0; }

    u32 outstandingResults() const
    {
        u32 n = 0;
        for (const Inflight &f : inflight)
            n += f.expect;
        return n;
    }
};

// ---- journal ------------------------------------------------------------

/**
 * Append side of the crash journal.  A plain fd, not an ofstream: with
 * ExecutionPolicy::journalSync each entry is fdatasync()ed so it survives a
 * *host* crash, and that requires the real descriptor.  Opened
 * O_CLOEXEC; fork-without-exec children close it via the spawn-time
 * close list.
 */
class Journal
{
  public:
    explicit Journal(bool sync) : sync_(sync) {}
    ~Journal() { close(); }
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    bool
    open(const std::string &path, bool truncate)
    {
        close();
        int flags =
            O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
        fd_ = ::open(path.c_str(), flags, 0644);
        return fd_ >= 0;
    }

    bool ok() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void
    writeHeader(u64 signature)
    {
        wire::Writer hdr;
        hdr.fixed32(journalMagic);
        hdr.fixed32(journalVersion);
        hdr.fixed64(signature);
        writeAll(hdr);
        commit();
    }

    /** Append one checksummed entry; @p payload is an encoded ResultMsg
     *  (the received Result frame bytes can be reused verbatim). */
    void
    append(const std::vector<u8> &payload)
    {
        TELEMETRY_SPAN("journal.write");
        wire::Writer frame;
        frame.fixed32(u32(payload.size()));
        frame.bytes(payload.data(), payload.size());
        frame.fixed64(wire::fnv1a(payload.data(), payload.size()));
        writeAll(frame);
        commit();
        if (telemetry::enabled())
            telemetry::Registry::instance().addCounter(
                "dist.journal.appends", 1);
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    void
    writeAll(const wire::Writer &w)
    {
        const u8 *p = w.buffer().data();
        size_t n = w.size();
        while (n > 0) {
            ssize_t k = ::write(fd_, p, n);
            if (k < 0) {
                if (errno == EINTR)
                    continue;
                fatal("journal write failed: %s", std::strerror(errno));
            }
            p += k;
            n -= size_t(k);
        }
    }

    /** write() already leaves the entry visible to a resuming driver;
     *  sync mode additionally forces it to stable storage. */
    void
    commit()
    {
        if (!sync_)
            return;
        if (::fdatasync(fd_) != 0)
            warn("journal fdatasync failed: %s", std::strerror(errno));
        if (telemetry::enabled())
            telemetry::Registry::instance().addCounter(
                "dist.journal.syncs", 1);
    }

    int fd_ = -1;
    bool sync_;
};

/**
 * Restore completed entries from @p path into @p results/@p have.
 * Damage is counted, not silently dropped: every entry that cannot be
 * restored bumps @p skipped.  A damaged *tail* (crash mid-append) ends
 * the scan with @p validEnd at the end of the good prefix so the caller
 * can truncate it away and append; a damaged entry in the *middle*
 * (bit rot) sets @p needRewrite -- later good entries are still
 * restored, but the file must be rewritten from the restored state
 * because appending after corrupt bytes would strand the new entries.
 * @return false when the file is missing or belongs to a different grid.
 */
bool
journalLoad(const std::string &path, u64 signature,
            std::vector<SweepResult> &results, std::vector<bool> &have,
            u64 &restored, u64 &validEnd, u64 &skipped, bool &needRewrite)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    u64 fileSize = u64(in.tellg());
    in.seekg(0, std::ios::beg);

    auto readExact = [&in](void *dst, size_t n) {
        return bool(in.read(static_cast<char *>(dst), std::streamsize(n)));
    };

    u8 hdr[16];
    if (!readExact(hdr, sizeof(hdr)))
        return false;
    wire::Reader hr(hdr, sizeof(hdr));
    if (hr.fixed32() != journalMagic || hr.fixed32() != journalVersion) {
        warn("journal '%s' has a bad header; starting fresh", path.c_str());
        return false;
    }
    if (hr.fixed64() != signature) {
        warn("journal '%s' is for a different grid; starting fresh",
             path.c_str());
        return false;
    }
    validEnd = sizeof(hdr);

    u64 offset = sizeof(hdr);
    for (;;) {
        u8 lenBytes[4];
        if (!readExact(lenBytes, 4)) {
            if (offset < fileSize)
                ++skipped; // partial length prefix: crash mid-append
            break;
        }
        wire::Reader lr(lenBytes, 4);
        u32 len = lr.fixed32();
        // A corrupt length prefix must read as a damaged tail, not an
        // attempted multi-GiB allocation.
        if (offset + 4 + u64(len) + 8 > fileSize) {
            ++skipped;
            break;
        }
        std::vector<u8> payload(len);
        u8 sumBytes[8];
        if (!readExact(payload.data(), len) || !readExact(sumBytes, 8)) {
            ++skipped;
            break;
        }
        offset += 4 + len + 8;
        wire::Reader sr(sumBytes, 8);
        ResultMsg m;
        if (sr.fixed64() != wire::fnv1a(payload.data(), payload.size()) ||
            !decode(payload, m) || m.index >= results.size()) {
            // Damage with intact framing: count it, keep scanning --
            // the entries behind it are still good data.
            ++skipped;
            needRewrite = true;
            continue;
        }
        if (!have[m.index]) {
            results[m.index].result = m.result;
            results[m.index].traceLength = m.traceLength;
            have[m.index] = true;
            ++restored;
        }
        if (!needRewrite)
            validEnd = offset;
    }
    return true;
}

// ---- worker lifecycle ---------------------------------------------------

void
setCloexec(int fd)
{
    int flags = fcntl(fd, F_GETFD);
    if (flags >= 0)
        fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/** Fork (or fork+exec) one worker process.  @p closeFds are the
 *  parent-side descriptors the child must drop so a dead driver reads
 *  as EOF everywhere.  @return {pid, driver-side fd}. */
std::pair<pid_t, int>
spawnWorker(const ExecutionPolicy &policy, const std::vector<int> &closeFds)
{
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        fatal("socketpair failed: %s", std::strerror(errno));
    setCloexec(sv[0]);

    pid_t pid = fork();
    if (pid < 0)
        fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::close(sv[0]);
        for (int fd : closeFds)
            ::close(fd);
        if (policy.execPath.empty()) {
            ::_exit(workerServe(sv[1]));
        } else {
            std::vector<std::string> args;
            args.push_back(policy.execPath);
            args.insert(args.end(), policy.execArgs.begin(),
                        policy.execArgs.end());
            args.push_back("--worker");
            args.push_back("--fd");
            args.push_back(std::to_string(sv[1]));
            std::vector<char *> argv;
            for (auto &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(policy.execPath.c_str(), argv.data());
            ::_exit(127); // exec failed
        }
    }
    ::close(sv[1]);
    return {pid, sv[0]};
}

/**
 * Next unit for @p self: its own shard front, else steal from the tail
 * of the fullest other shard (the tail is the work the victim would get
 * to last, so stealing it minimizes contention on hot cache entries).
 * Dead slots' shards -- including units reclaimed onto them -- are
 * valid steal victims.
 */
bool
nextUnitFor(std::vector<WorkerProc> &workers, WorkerProc &self, u32 &unit,
            u64 &steals)
{
    if (!self.shard.empty()) {
        unit = self.shard.front();
        self.shard.pop_front();
        return true;
    }
    WorkerProc *victim = nullptr;
    for (auto &w : workers)
        if (!w.shard.empty() &&
            (!victim || w.shard.size() > victim->shard.size()))
            victim = &w;
    if (!victim)
        return false;
    unit = victim->shard.back();
    victim->shard.pop_back();
    ++steals;
    return true;
}

} // namespace

std::string
DistStats::summary() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << "dist: " << workers << " workers, " << jobsRun << " jobs run in "
       << groupsRun << " units, " << jobsResumed << " resumed from journal, "
       << steals << " stolen; "
       << "worker repositories: " << generations << " generations, " << hits
       << " raw hits, " << diskLoads << " disk loads, " << storeSaves
       << " store saves, " << decodes << " decodes, " << decodedHits
       << " decoded hits, " << bytesResident / (1024.0 * 1024.0)
       << " MiB raw + " << decodedBytes / (1024.0 * 1024.0)
       << " MiB decoded resident at exit";
    if (respawns || reassignedUnits || retries)
        os << "; recovery: " << respawns << " respawns, " << reassignedUnits
           << " units reclaimed, " << retries << " retried";
    if (quarantinedUnits)
        os << "; QUARANTINED " << quarantinedUnits << " units ("
           << quarantinedPoints.size() << " points unexecuted)";
    if (degraded)
        os << "; DEGRADED to in-driver execution (" << degradedJobs
           << " jobs run by the driver)";
    if (abnormalExits)
        os << "; " << abnormalExits << " abnormal worker exits";
    if (journalSkipped)
        os << "; " << journalSkipped << " damaged journal entries skipped";
    return os.str();
}

void
publishMetrics(const DistStats &st)
{
    if (!telemetry::enabled())
        return;
    telemetry::Registry &reg = telemetry::Registry::instance();
    reg.setGauge("dist.workers", st.workers);
    reg.setGauge("dist.jobsRun", st.jobsRun);
    reg.setGauge("dist.jobsResumed", st.jobsResumed);
    reg.setGauge("dist.groupsRun", st.groupsRun);
    reg.setGauge("dist.steals", st.steals);
    reg.setGauge("dist.respawns", st.respawns);
    reg.setGauge("dist.reassignedUnits", st.reassignedUnits);
    reg.setGauge("dist.retries", st.retries);
    reg.setGauge("dist.quarantinedUnits", st.quarantinedUnits);
    reg.setGauge("dist.quarantinedPoints", st.quarantinedPoints.size());
    reg.setGauge("dist.degraded", st.degraded ? 1 : 0);
    reg.setGauge("dist.degradedJobs", st.degradedJobs);
    reg.setGauge("dist.abnormalExits", st.abnormalExits);
    reg.setGauge("dist.journalSkipped", st.journalSkipped);
    // The worker fleet's trace-repository tier aggregate: the "repo"
    // section of a distributed run's metrics export.
    reg.setGauge("repo.generations", st.generations);
    reg.setGauge("repo.raw.hits", st.hits);
    reg.setGauge("repo.diskLoads", st.diskLoads);
    reg.setGauge("repo.storeSaves", st.storeSaves);
    reg.setGauge("repo.raw.bytes", st.bytesResident);
    reg.setGauge("repo.decodes", st.decodes);
    reg.setGauge("repo.decoded.hits", st.decodedHits);
    reg.setGauge("repo.decoded.bytes", st.decodedBytes);
}

const char *
name(WorkerExit::Cause c)
{
    switch (c) {
      case WorkerExit::Cause::Clean: return "clean";
      case WorkerExit::Cause::Exit: return "exit";
      case WorkerExit::Cause::Signal: return "signal";
      case WorkerExit::Cause::Malformed: return "malformed";
      case WorkerExit::Cause::Hung: return "hung";
      case WorkerExit::Cause::Lost: return "lost";
      case WorkerExit::Cause::Error: return "error";
    }
    panic("bad exit cause %d", int(c));
}

unsigned
maxRespawnsFromEnv()
{
    return env::number("VMMX_MAX_RESPAWNS", 3);
}

unsigned
maxUnitAttemptsFromEnv()
{
    return env::number("VMMX_MAX_UNIT_ATTEMPTS", 3);
}

u64
unitTimeoutMsFromEnv()
{
    return env::number("VMMX_UNIT_TIMEOUT_MS", 0);
}

bool
journalSyncFromEnv()
{
    return env::flag("VMMX_JOURNAL_SYNC", false);
}

std::string
faultSpecFromEnv()
{
    return env::str("VMMX_FAULT_SPEC");
}

u64
gridSignature(const std::vector<SweepPoint> &points)
{
    wire::Writer w;
    w.varint(points.size());
    for (const auto &p : points)
        serialize(w, p);
    return wire::fnv1a(w.buffer().data(), w.size());
}

std::vector<SweepResult>
runSweep(const std::vector<SweepPoint> &points, const ExecutionPolicy &policy,
         DistStats *stats)
{
    vmmx_assert(policy.processes >= 1,
                "distributed sweep needs at least one worker");
    DistStats local;
    DistStats &st = stats ? *stats : local;
    st = DistStats{};

    std::vector<SweepResult> results(points.size());
    std::vector<bool> have(points.size(), false);
    for (size_t i = 0; i < points.size(); ++i)
        results[i].point = points[i];
    if (points.empty())
        return results;

    // ---- journal restore ------------------------------------------------
    const u64 signature = gridSignature(points);
    Journal journal(policy.journalSync);
    if (!policy.journalPath.empty()) {
        u64 validEnd = 0;
        bool needRewrite = false;
        bool valid = journalLoad(policy.journalPath, signature, results, have,
                                 st.jobsResumed, validEnd, st.journalSkipped,
                                 needRewrite);
        if (valid && needRewrite) {
            warn("journal '%s' has damaged entries mid-file; rewriting it",
                 policy.journalPath.c_str());
            valid = false; // rewrite from the restored state below
        }
        if (valid) {
            // Drop any half-written tail so appended entries stay
            // reachable on the next resume.
            std::error_code ec;
            std::filesystem::resize_file(policy.journalPath, validEnd, ec);
            if (ec) {
                warn("cannot drop damaged tail of journal '%s' (%s); "
                     "rewriting it", policy.journalPath.c_str(),
                     ec.message().c_str());
                valid = false;
            } else if (!journal.open(policy.journalPath, false)) {
                fatal("cannot open journal '%s'", policy.journalPath.c_str());
            }
        }
        if (!valid) {
            if (!journal.open(policy.journalPath, true))
                fatal("cannot open journal '%s'", policy.journalPath.c_str());
            journal.writeHeader(signature);
            for (size_t i = 0; i < results.size(); ++i) {
                if (!have[i])
                    continue;
                ResultMsg m;
                m.index = u32(i);
                m.traceLength = results[i].traceLength;
                m.result = results[i].result;
                journal.append(encode(m));
            }
        }
    }

    std::vector<u32> pending;
    for (size_t i = 0; i < points.size(); ++i)
        if (!have[i])
            pending.push_back(u32(i));
    size_t remaining = pending.size();
    if (remaining == 0)
        return results; // fully resumed; nothing to spawn

    // The schedulable unit: trace groups when batching (a journal-
    // resumed prefix simply shrinks the affected groups), single points
    // otherwise.  Shared with the thread-pool engine so both backends
    // form units identically.
    std::vector<std::vector<u32>> units =
        buildSweepUnits(points, pending, policy.batch);
    std::vector<unsigned> attempts(units.size(), 0);
    std::vector<bool> failed(points.size(), false); // quarantined points
    const unsigned maxAttempts = std::max(policy.maxUnitAttempts, 1u);

    // Writing to a worker that died must surface as an EPIPE error code,
    // not kill the driver.
    struct sigaction ignore = {}, oldPipe = {};
    ignore.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ignore, &oldPipe);

    // ---- slots and shards -----------------------------------------------
    const unsigned n = unsigned(
        std::min<size_t>(policy.processes, units.size()));
    st.workers = n;
    st.perWorker.resize(n);
    SetupMsg setup; // per-spawn workerId filled in at spawn time
    setup.storeDir =
        policy.storeDir.empty() ? TraceStore::defaultDir() : policy.storeDir;
    setup.cacheBudget = policy.rawBudget;
    setup.decodedBudget = policy.decodedBudget;
    setup.decoded = policy.decoded;
    setup.quiet = vmmx::quiet();
    setup.faultSpec = policy.faultSpec;
    setup.telemetry = telemetry::enabled();

    u32 nextSpawnId = 0;
    std::vector<WorkerProc> workers(n);
    for (unsigned w = 0; w < n; ++w)
        workers[w].slot = w;
    // Contiguous shards of units keep each worker's trace working set
    // small (grid builders emit points for one workload consecutively,
    // so neighbouring groups share store/cache locality).
    for (unsigned w = 0; w < n; ++w) {
        size_t lo = units.size() * w / n, hi = units.size() * (w + 1) / n;
        for (size_t u = lo; u < hi; ++u)
            workers[w].shard.push_back(u32(u));
    }

    // ---- supervision machinery ------------------------------------------

    /** Abandon a unit that has exhausted its attempts: its missing
     *  points are reported failed and never retried, even in degraded
     *  mode. */
    auto quarantineUnit = [&](u32 u) {
        ++st.quarantinedUnits;
        for (u32 i : units[u]) {
            if (have[i] || failed[i])
                continue;
            failed[i] = true;
            st.quarantinedPoints.push_back(i);
            --remaining;
        }
        warn("unit %u quarantined after killing %u workers", u, maxAttempts);
    };

    /** Reclaim a dead worker's in-flight units back onto its slot's
     *  shard (front, preserving order), charging an attempt only to the
     *  unit that was actually executing -- the queued ones were
     *  bystanders. */
    auto reclaim = [&](WorkerProc &w) {
        std::vector<u32> back;
        bool front = true;
        while (!w.inflight.empty()) {
            u32 u = w.inflight.front().unit;
            w.inflight.pop_front();
            if (front) {
                front = false;
                if (++attempts[u] >= maxAttempts) {
                    quarantineUnit(u);
                    continue;
                }
                ++st.retries;
            }
            ++st.reassignedUnits;
            back.push_back(u);
        }
        w.shard.insert(w.shard.begin(), back.begin(), back.end());
    };

    /**
     * A spawn is gone (EOF, malformed frame, deadline...): reap it,
     * record its fate, reclaim its units, and schedule a backed-off
     * respawn of the slot if the budget allows.  @p killFirst for
     * causes where the process may still be running (hung, babbling a
     * corrupt stream) and must be stopped before the blocking waitpid.
     */
    auto workerDied = [&](WorkerProc &w, WorkerExit::Cause cause,
                          const std::string &reason, bool killFirst) {
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        std::string statusText = "status unknown";
        if (w.pid > 0) {
            if (killFirst)
                ::kill(w.pid, SIGKILL);
            int status = 0;
            if (waitpid(w.pid, &status, 0) == w.pid) {
                if (WIFSIGNALED(status)) {
                    statusText =
                        "signal " + std::to_string(WTERMSIG(status));
                    if (cause == WorkerExit::Cause::Lost)
                        cause = WorkerExit::Cause::Signal;
                } else if (WIFEXITED(status)) {
                    statusText = "exit " +
                                 std::to_string(WEXITSTATUS(status));
                    if (cause == WorkerExit::Cause::Lost)
                        cause = WorkerExit::Cause::Exit;
                }
            }
            w.pid = -1;
        }
        ++st.abnormalExits;
        std::string detail =
            reason.empty() ? statusText : reason + "; " + statusText;
        st.exitCauses.push_back({w.slot, w.spawnId, cause, detail});
        if (!setup.quiet)
            warn("worker %u (slot %u) lost -- %s: %s -- recovering",
                 unsigned(w.spawnId), w.slot, name(cause), detail.c_str());
        reclaim(w);
        w.doneSent = false;
        if (remaining > 0 && w.respawnsUsed < policy.maxRespawns) {
            ++w.respawnsUsed;
            w.respawnPending = true;
            u64 backoff = std::min(
                backoffBaseMs << (w.respawnsUsed - 1), backoffCapMs);
            w.respawnDue = nowMs() + backoff;
            if (telemetry::enabled())
                w.diedNs = telemetry::nowNs();
        }
    };

    /** Ship one unit -- only its still-missing points, so a reclaimed,
     *  partially-answered group is not re-run in full.  A fully-covered
     *  unit sends nothing.  @return false when the write fails (caller
     *  must treat the worker as dead). */
    auto sendUnit = [&](WorkerProc &w, u32 unit) -> bool {
        TELEMETRY_SPAN("wire.encode");
        std::vector<u32> indices;
        for (u32 i : units[unit])
            if (!have[i] && !failed[i])
                indices.push_back(i);
        if (indices.empty())
            return true;
        bool ok;
        if (indices.size() == 1) {
            JobMsg job;
            job.index = indices[0];
            job.point = points[indices[0]];
            ok = wire::writeFrame(w.fd, encode(job));
        } else {
            JobGroupMsg group;
            group.indices = indices;
            group.points.reserve(indices.size());
            for (u32 i : indices)
                group.points.push_back(points[i]);
            ok = wire::writeFrame(w.fd, encode(group));
        }
        if (!ok)
            return false;
        w.inflight.push_back({unit, u32(indices.size()), nowMs()});
        ++st.groupsRun;
        return true;
    };

    /** Top the worker's pipeline up to depth, or complete its Done
     *  handshake when no work is left anywhere.  @return false on a
     *  write failure. */
    auto refill = [&](WorkerProc &w) -> bool {
        while (w.live() && !w.doneSent &&
               w.inflight.size() < pipelineDepth) {
            u32 unit;
            if (nextUnitFor(workers, w, unit, st.steals)) {
                if (!sendUnit(w, unit)) {
                    // Not sent, not in flight: back onto the shard so
                    // the unit survives this worker's death.
                    w.shard.push_front(unit);
                    return false;
                }
            } else if (w.inflight.empty()) {
                if (!wire::writeFrame(w.fd, encodeDone()))
                    return false;
                w.doneSent = true;
            } else {
                break; // pipeline part-full and no more units to queue
            }
        }
        return true;
    };

    /** Spawn a process into slot @p w and hand it its setup + first
     *  units; a failure right here re-enters the death path. */
    auto startWorker = [&](WorkerProc &w) {
        std::vector<int> closeFds;
        for (const auto &other : workers)
            if (other.fd >= 0)
                closeFds.push_back(other.fd);
        if (journal.ok())
            closeFds.push_back(journal.fd());
        auto [pid, fd] = spawnWorker(policy, closeFds);
        w.pid = pid;
        w.fd = fd;
        w.spawnId = nextSpawnId++;
        w.doneSent = false;
        w.statsSeen = false;
        w.inflight.clear();
        SetupMsg s = setup;
        s.workerId = w.spawnId;
        if (!wire::writeFrame(w.fd, encode(s)) || !refill(w))
            workerDied(w, WorkerExit::Cause::Lost, "failed during setup",
                       false);
    };

    /** Respawns are deferred to the loop top: never mid-poll-iteration,
     *  so a recycled descriptor can never alias a stale pollfd. */
    auto fireRespawns = [&]() {
        for (auto &w : workers) {
            if (!w.respawnPending || nowMs() < w.respawnDue)
                continue;
            w.respawnPending = false;
            if (remaining == 0)
                continue;
            ++st.respawns;
            // One span covering death -> respawn: the backoff wait is a
            // real scheduling cost the timeline should show.
            if (telemetry::enabled() && w.diedNs) {
                telemetry::SpanRecord rec;
                rec.name = "respawn.backoff";
                rec.detail = "slot " + std::to_string(w.slot);
                rec.startNs = w.diedNs;
                rec.durNs = telemetry::nowNs() - w.diedNs;
                rec.pid = u64(::getpid());
                telemetry::Tracer::instance().record(std::move(rec));
                w.diedNs = 0;
            }
            startWorker(w);
        }
    };

    /** True when work remains but nobody can do it: every slot is dead
     *  or past its Done handshake, and no respawn is coming. */
    auto fleetCollapsed = [&]() {
        if (remaining == 0)
            return false;
        for (const auto &w : workers)
            if ((w.live() && !w.doneSent) || w.respawnPending)
                return false;
        return true;
    };

    /** Graceful degradation: run every still-missing, non-quarantined
     *  point in-driver through the serial unit runner.  Same units,
     *  same submission-order slots, so the bytes match what the fleet
     *  would have produced. */
    auto degrade = [&]() {
        st.degraded = true;
        if (!setup.quiet)
            warn("worker fleet exhausted; running %zu remaining points "
                 "in-driver", remaining);
        auto store = std::make_unique<TraceStore>(setup.storeDir);
        TraceRepository repo(store.get(), policy.rawBudget,
                             policy.decodedBudget);
        ExecutionPolicy pol = policy;
        pol.repo = &repo;
        for (u32 u = 0; u < units.size() && remaining > 0; ++u) {
            std::vector<u32> subset;
            for (u32 i : units[u])
                if (!have[i] && !failed[i])
                    subset.push_back(i);
            if (subset.empty())
                continue;
            runSweepUnit(points, subset, pol, results);
            for (u32 i : subset) {
                have[i] = true;
                --remaining;
                ++st.degradedJobs;
                if (journal.ok()) {
                    ResultMsg m;
                    m.index = i;
                    m.traceLength = results[i].traceLength;
                    m.result = results[i].result;
                    journal.append(encode(m));
                }
            }
        }
        for (auto &w : workers)
            w.shard.clear();
    };

    // ---- spawn ----------------------------------------------------------
    for (auto &w : workers)
        startWorker(w);

    // ---- event loop -----------------------------------------------------
    auto awaitingStats = [&]() {
        for (const auto &w : workers)
            if (w.live() && !w.statsSeen)
                return true;
        return false;
    };

    telemetry::Progress progress("sweep", points.size());
    auto inflightExtra = [&]() {
        if (telemetry::progressMode() == telemetry::ProgressMode::Off)
            return std::string();
        std::string s;
        for (const auto &w : workers) {
            if (!s.empty())
                s += ' ';
            s += 'w' + std::to_string(w.slot) + ':' +
                 (w.live() ? std::to_string(w.inflight.size()) : "dead");
        }
        return s;
    };

    std::vector<u8> frame;
    while (remaining > 0 || awaitingStats()) {
        fireRespawns();
        if (policy.unitTimeoutMs > 0) {
            u64 now = nowMs();
            for (auto &w : workers)
                if (w.live() && !w.inflight.empty() &&
                    now - w.inflight.front().started >= policy.unitTimeoutMs)
                    workerDied(w, WorkerExit::Cause::Hung,
                               "unit " +
                                   std::to_string(w.inflight.front().unit) +
                                   " blew the " +
                                   std::to_string(policy.unitTimeoutMs) +
                                   "ms deadline",
                               true);
        }
        if (fleetCollapsed()) {
            degrade();
            continue;
        }

        // Poll must wake for the earliest pending respawn or unit
        // deadline even if no descriptor stirs.
        int timeout = -1;
        u64 now = nowMs();
        auto wakeAt = [&](u64 when) {
            u64 delta = when > now ? when - now : 0;
            if (timeout < 0 || u64(timeout) > delta)
                timeout = int(std::min<u64>(delta, 60000));
        };
        std::vector<pollfd> pfds;
        for (const auto &w : workers) {
            if (w.respawnPending)
                wakeAt(w.respawnDue);
            if (!w.live() || w.statsSeen)
                continue;
            pfds.push_back({w.fd, POLLIN, 0});
            if (policy.unitTimeoutMs > 0 && !w.inflight.empty())
                wakeAt(w.inflight.front().started + policy.unitTimeoutMs);
        }
        if (pfds.empty()) {
            if (timeout < 0)
                break; // nothing live, nothing scheduled
            poll(nullptr, 0, timeout);
            continue;
        }
        if (poll(pfds.data(), nfds_t(pfds.size()), timeout) < 0) {
            if (errno == EINTR)
                continue;
            fatal("poll failed: %s", std::strerror(errno));
        }
        for (const auto &p : pfds) {
            if (!(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            // Resolve by *current* fd: a worker that died earlier in
            // this same sweep of pfds left a stale entry behind.
            WorkerProc *w = nullptr;
            for (auto &cand : workers)
                if (cand.live() && cand.fd == p.fd)
                    w = &cand;
            if (!w)
                continue;

            if (!wire::readFrame(w->fd, frame)) {
                workerDied(*w, WorkerExit::Cause::Lost,
                           "connection lost with " +
                               std::to_string(w->outstandingResults()) +
                               " results outstanding",
                           false);
                continue;
            }
            switch (frameType(frame)) {
              case Msg::Result: {
                ResultMsg m;
                if (!decode(frame, m) || m.index >= results.size() ||
                    have[m.index] || failed[m.index] ||
                    w->inflight.empty()) {
                    workerDied(*w, WorkerExit::Cause::Malformed,
                               "malformed or protocol-violating result",
                               true);
                    break;
                }
                results[m.index].result = m.result;
                results[m.index].traceLength = m.traceLength;
                have[m.index] = true;
                --remaining;
                ++st.jobsRun;
                if (journal.ok())
                    journal.append(frame); // same bytes as encode(m)
                // Units complete in send order; when the front unit has
                // answered all of its points, the next queued unit
                // starts executing -- its deadline clock starts now.
                if (--w->inflight.front().expect == 0) {
                    w->inflight.pop_front();
                    if (!w->inflight.empty())
                        w->inflight.front().started = nowMs();
                    if (!refill(*w))
                        workerDied(*w, WorkerExit::Cause::Lost,
                                   "write failed during refill", false);
                }
                progress.update(points.size() - remaining,
                                inflightExtra());
                break;
              }
              case Msg::Event: {
                EventMsg m;
                if (!decode(frame, m)) {
                    workerDied(*w, WorkerExit::Cause::Malformed,
                               "malformed event frame", true);
                    break;
                }
                telemetry::Tracer &tracer = telemetry::Tracer::instance();
                tracer.setProcessName(
                    m.pid, "worker slot " + std::to_string(w->slot) +
                               " spawn " + std::to_string(m.workerId));
                for (telemetry::SpanRecord &s : m.spans)
                    tracer.record(std::move(s));
                // Workers only emit Event frames when setup.telemetry
                // was on, and the driver set that from enabled().
                // vmmx_lint: allow(telemetry-guard)
                telemetry::Registry &reg = telemetry::Registry::instance();
                for (telemetry::UnitRecord &u : m.units)
                    reg.addUnit(std::move(u));
                break;
              }
              case Msg::Stats: {
                StatsMsg m;
                if (!decode(frame, m)) {
                    workerDied(*w, WorkerExit::Cause::Malformed,
                               "malformed stats frame", true);
                    break;
                }
                st.generations += m.generations;
                st.hits += m.hits;
                st.diskLoads += m.diskLoads;
                st.storeSaves += m.storeSaves;
                st.bytesResident += m.bytesResident;
                st.decodes += m.decodes;
                st.decodedHits += m.decodedHits;
                st.decodedBytes += m.decodedBytes;
                // += : the slot's earlier spawns may have reported too.
                WorkerTierStats &pw = st.perWorker[w->slot];
                pw.generations += m.generations;
                pw.hits += m.hits;
                pw.diskLoads += m.diskLoads;
                pw.decodes += m.decodes;
                pw.decodedHits += m.decodedHits;
                pw.bytesResident += m.bytesResident;
                pw.decodedBytes += m.decodedBytes;
                w->statsSeen = true;
                break;
              }
              case Msg::Error: {
                std::string what;
                decodeError(frame, what);
                workerDied(*w, WorkerExit::Cause::Error, what, false);
                break;
              }
              default:
                workerDied(*w, WorkerExit::Cause::Malformed,
                           "unexpected frame type " +
                               std::to_string(unsigned(frameType(frame))),
                           true);
            }
        }
    }

    progress.finish(points.size() - remaining);

    // ---- teardown --------------------------------------------------------
    for (auto &w : workers) {
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.pid <= 0)
            continue; // this slot's last spawn was already reaped
        int status = 0;
        if (waitpid(w.pid, &status, 0) != w.pid)
            continue;
        w.pid = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            st.exitCauses.push_back(
                {w.slot, w.spawnId, WorkerExit::Cause::Clean, "exit 0"});
            continue;
        }
        // The worker finished its jobs, then died on the way out; the
        // results are fine but the fate must not be lost (a real crash
        // in teardown code hides real bugs).
        ++st.abnormalExits;
        WorkerExit e;
        e.slot = w.slot;
        e.spawnId = w.spawnId;
        if (WIFSIGNALED(status)) {
            e.cause = WorkerExit::Cause::Signal;
            e.detail = "signal " + std::to_string(WTERMSIG(status)) +
                       " after completing its jobs";
        } else {
            e.cause = WorkerExit::Cause::Exit;
            e.detail = "exit " + std::to_string(WEXITSTATUS(status)) +
                       " after completing its jobs";
        }
        if (!setup.quiet)
            warn("worker %u (slot %u) exited abnormally after completing "
                 "its jobs (%s)", unsigned(w.spawnId), w.slot,
                 e.detail.c_str());
        st.exitCauses.push_back(std::move(e));
    }
    sigaction(SIGPIPE, &oldPipe, nullptr);
    vmmx_assert(remaining == 0, "distributed sweep lost grid points");
    return results;
}

} // namespace vmmx::dist
