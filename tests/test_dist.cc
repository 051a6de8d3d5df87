/**
 * @file
 * Distributed sweep subsystem tests.
 *
 * The headline guarantees: a multi-process sharded sweep is bit-identical
 * to the runSerial() oracle on the same grid; a second run of the
 * same grid is served entirely from the on-disk TraceStore (zero trace
 * regenerations); and an interrupted journaled run resumes without
 * re-executing completed grid points.  Plus the TraceStore (tier-0)
 * mechanics: round trips and corruption tolerance.  Budgeted eviction
 * and the tiered repository itself live in tests/test_trace_repo.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "harness/study.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

class DistTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        dir_ = fs::temp_directory_path() /
               ("vmmx-dist-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string storeDir() const { return (dir_ / "store").string(); }
    std::string journalPath() const { return (dir_ / "sweep.vmjl").string(); }

    /** 3 kernels x 4 flavours x 2 widths = 24 points, 12 distinct
     *  traces.  Short-trace kernels keep the suite fast. */
    static std::vector<SweepPoint> gridPoints()
    {
        StudySpec spec;
        spec.kernels = {"motion1", "motion2", "comp"};
        spec.kinds = {SimdKind::MMX64, SimdKind::MMX128, SimdKind::VMMX64,
                      SimdKind::VMMX128};
        spec.ways = {2, 4};
        return Study(std::move(spec)).points();
    }

    /** The runSerial() oracle over gridPoints(). */
    std::vector<SweepResult> serialReference()
    {
        ExecutionPolicy policy = ExecutionPolicy::fromEnv();
        policy.repo = &serialRepo_;
        return runSerial(gridPoints(), policy);
    }

    /** A Process-backend policy over the test's store; every other
     *  field keeps its environment default, so CI's tiny-budget rerun
     *  reaches the workers' repositories. */
    ExecutionPolicy procPolicy(unsigned processes = 2) const
    {
        ExecutionPolicy policy = ExecutionPolicy::fromEnv();
        policy.backend = ExecutionPolicy::Backend::Process;
        policy.processes = processes;
        policy.storeDir = storeDir();
        return policy;
    }

    /** Run @p points under @p policy through dist::runSweep() directly
     *  or, with @p viaExecutor, through the ProcessExecutor
     *  (runPoints), which must forward the policy -- fault plan and
     *  journal sync included -- unchanged. */
    static std::vector<SweepResult>
    runDistributed(const std::vector<SweepPoint> &points,
                   ExecutionPolicy policy, dist::DistStats &stats,
                   bool viaExecutor)
    {
        if (!viaExecutor)
            return dist::runSweep(points, policy, &stats);
        policy.distStats = &stats;
        return runPoints(points, policy);
    }

    static size_t countCause(const dist::DistStats &s,
                             dist::WorkerExit::Cause c)
    {
        size_t n = 0;
        for (const auto &e : s.exitCauses)
            n += e.cause == c;
        return n;
    }

    fs::path dir_;
    TraceRepository serialRepo_;
};

// The ISSUE acceptance test: 2-process sharded run of a >= 24-point grid
// is bit-identical to the serial sweep, and a second run of the same grid
// is served from the on-disk TraceStore with zero trace regenerations.
TEST_F(DistTest, TwoProcessShardedSweepBitIdenticalAndStoreReuse)
{
    auto expect = serialReference();
    ASSERT_GE(expect.size(), 24u);

    auto points = gridPoints();
    ExecutionPolicy policy = procPolicy();
    dist::DistStats first;
    policy.distStats = &first;

    auto got = runPoints(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(got[i].sameRun(expect[i]))
            << "point " << i << " (" << expect[i].point.label() << ")";
        EXPECT_EQ(got[i].point.label(), expect[i].point.label());
    }
    EXPECT_EQ(first.workers, 2u);
    EXPECT_EQ(first.jobsRun, expect.size());
    // 12 distinct traces and an empty store: every one was generated.
    EXPECT_GE(first.generations, 12u);
    EXPECT_EQ(first.storeSaves, first.generations);

    // Second run of the same grid: every trace comes off disk.
    dist::DistStats second;
    policy.distStats = &second;
    auto rerun = runPoints(points, policy);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "rerun point " << i;
    EXPECT_EQ(second.generations, 0u) << "trace regenerated despite store";
    EXPECT_GE(second.diskLoads, 12u);
}

TEST_F(DistTest, OddWorkerCountsStayIdentical)
{
    auto expect = serialReference();

    for (unsigned processes : {1u, 3u}) {
        ExecutionPolicy policy = procPolicy(processes);
        dist::DistStats stats;
        policy.distStats = &stats;
        auto got = runPoints(gridPoints(), policy);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(got[i].sameRun(expect[i]))
                << processes << " workers, point " << i;
        EXPECT_EQ(stats.workers, processes);
    }
}

TEST_F(DistTest, ExplicitTracePointsCrossTheWire)
{
    TraceRepository repo;
    SharedTrace trace = repo.kernel("addblock", SimdKind::MMX64).shared();

    std::vector<SweepPoint> points;
    for (unsigned way : {2u, 4u, 8u})
        points.push_back({SweepPoint::Workload::Trace, "custom",
                          SimdKind::MMX64, way, {}, trace});
    ExecutionPolicy serial = ExecutionPolicy::fromEnv();
    serial.repo = &repo;
    auto expect = runSerial(points, serial);

    // More workers than grid points: the driver must clamp.  Per-point
    // sharding here; the batched path ships the whole group below.
    ExecutionPolicy policy = procPolicy(8);
    policy.batch = false;
    dist::DistStats stats;
    policy.distStats = &stats;
    auto got = runPoints(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    EXPECT_EQ(stats.workers, expect.size());

    // Batched: the three points are one trace group, so one JobGroup
    // frame (carrying the trace once per point encode) feeds a single
    // worker, and the clamp is by units.
    ExecutionPolicy batched = policy;
    batched.batch = true;
    dist::DistStats groupStats;
    batched.distStats = &groupStats;
    auto groupGot = runPoints(points, batched);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(groupGot[i].sameRun(expect[i])) << "point " << i;
    EXPECT_EQ(groupStats.workers, 1u);
    EXPECT_EQ(groupStats.groupsRun, 1u);
    EXPECT_EQ(groupStats.jobsRun, expect.size());
}

// The PR-3 acceptance test: with batching on (the default), the driver
// shards by trace group -- each group crosses the wire once and runs as
// one batched pass on the worker -- and the aggregated results are still
// bit-identical to the serial per-point sweep.
TEST_F(DistTest, TraceGroupShardingBitIdenticalToSerial)
{
    auto expect = serialReference();
    ASSERT_EQ(expect.size(), 24u);

    auto points = gridPoints();
    ExecutionPolicy policy = procPolicy();
    policy.batch = true;
    dist::DistStats stats;
    policy.distStats = &stats;

    auto got = runPoints(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(got[i].sameRun(expect[i]))
            << "point " << i << " (" << expect[i].point.label() << ")";
        EXPECT_EQ(got[i].point.label(), expect[i].point.label());
    }
    // 12 (kernel, flavour) traces x 2 widths: every dispatch is a whole
    // group, every point still runs and journals individually.
    EXPECT_EQ(stats.workers, 2u);
    EXPECT_EQ(stats.jobsRun, 24u);
    EXPECT_EQ(stats.groupsRun, 12u);

    // And the per-point (batch off) sharding agrees bit for bit.
    ExecutionPolicy unbatched = policy;
    unbatched.batch = false;
    dist::DistStats pointStats;
    unbatched.distStats = &pointStats;
    auto pointGot = runPoints(points, unbatched);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(pointGot[i].sameRun(expect[i])) << "point " << i;
    EXPECT_EQ(pointStats.groupsRun, 24u);
}

TEST_F(DistTest, JournalResumeSkipsCompletedJobs)
{
    auto expect = serialReference();

    auto points = gridPoints();
    ExecutionPolicy policy = procPolicy();
    policy.journalPath = journalPath();
    dist::DistStats first;
    policy.distStats = &first;
    auto got = runPoints(points, policy);
    EXPECT_EQ(first.jobsRun, expect.size());
    EXPECT_EQ(first.jobsResumed, 0u);

    // The journal survives success; a rerun restores every point without
    // spawning a single worker.
    dist::DistStats second;
    policy.distStats = &second;
    auto rerun = runPoints(points, policy);
    EXPECT_EQ(second.jobsRun, 0u);
    EXPECT_EQ(second.jobsResumed, expect.size());
    EXPECT_EQ(second.workers, 0u);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "resumed point " << i;
}

TEST_F(DistTest, TruncatedJournalResumesThePrefix)
{
    auto expect = serialReference();

    auto points = gridPoints();
    ExecutionPolicy policy = procPolicy();
    policy.journalPath = journalPath();
    runPoints(points, policy);

    // Chop mid-entry, as a crash during an append would.
    auto size = fs::file_size(journalPath());
    fs::resize_file(journalPath(), size - 5);

    dist::DistStats stats;
    policy.distStats = &stats;
    auto rerun = runPoints(points, policy);
    EXPECT_EQ(stats.jobsResumed, expect.size() - 1)
        << "exactly the damaged trailing entry should rerun";
    EXPECT_EQ(stats.jobsRun, 1u);
    EXPECT_EQ(stats.journalSkipped, 1u);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "point " << i;
}

TEST_F(DistTest, JournalForADifferentGridIsDiscarded)
{
    ExecutionPolicy policy = procPolicy();
    policy.journalPath = journalPath();
    runPoints(gridPoints(), policy);

    // Same journal path, different grid: must start fresh, not resume.
    dist::DistStats stats;
    policy.distStats = &stats;
    auto got = runPoints(
        {{SweepPoint::Workload::Kernel, "ltpfilt", SimdKind::VMMX128, 4}},
        policy);
    EXPECT_EQ(stats.jobsResumed, 0u);
    EXPECT_EQ(stats.jobsRun, 1u);

    TraceRepository repo;
    auto trace = repo.kernel("ltpfilt", SimdKind::VMMX128);
    RunResult direct = runTrace(makeMachine(SimdKind::VMMX128, 4), *trace);
    EXPECT_TRUE(got[0].result == direct);
}

// ---- fault injection: the supervisor's recovery paths --------------------
//
// These drive dist::runSweep() directly with the fault plan and
// supervision knobs in the ExecutionPolicy; the kill and journal cases
// also go through the ProcessExecutor, which must forward them.  Every
// scenario must end bit-identical to the serial sweep -- recovery is
// invisible in the results and visible only in DistStats.

TEST_F(DistTest, KilledWorkerIsRespawnedAndStaysBitIdentical)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    // Spawn 0 calls _exit(137) the moment its second unit arrives.
    policy.faultSpec = "kill-after-units=1@worker0";
    for (bool viaExecutor : {false, true}) {
        SCOPED_TRACE(viaExecutor ? "ProcessExecutor" : "dist::runSweep");
        dist::DistStats stats;
        auto got = runDistributed(points, policy, stats, viaExecutor);

        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
        EXPECT_EQ(stats.jobsRun, expect.size());
        EXPECT_EQ(stats.abnormalExits, 1u) << "fault plan never arrived";
        EXPECT_EQ(countCause(stats, dist::WorkerExit::Cause::Exit), 1u);
        EXPECT_EQ(stats.retries, 1u) << "only the executing unit is charged";
        EXPECT_GE(stats.reassignedUnits, 1u);
        EXPECT_FALSE(stats.degraded);
        EXPECT_TRUE(stats.quarantinedPoints.empty());
    }
}

TEST_F(DistTest, CorruptResultFrameIsFatalToTheWorkerNotTheRun)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    // Spawn 0 wrecks the type byte of its third result frame; the
    // driver must kill the babbling worker and re-run what was lost.
    policy.faultSpec = "corrupt-frame=3@worker0";
    dist::DistStats stats;
    auto got = dist::runSweep(points, policy, &stats);

    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    EXPECT_EQ(stats.jobsRun, expect.size());
    EXPECT_EQ(countCause(stats, dist::WorkerExit::Cause::Malformed), 1u);
    EXPECT_EQ(stats.abnormalExits, 1u);
    EXPECT_GE(stats.reassignedUnits, 1u);
    EXPECT_FALSE(stats.degraded);
}

TEST_F(DistTest, HungWorkerIsKilledAtTheDeadline)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    // Spawn 0 hangs forever on its first unit; the per-unit deadline
    // must declare it hung, SIGKILL it, and recover.
    policy.faultSpec = "stall@worker0";
    policy.unitTimeoutMs = 1500;
    dist::DistStats stats;
    auto got = dist::runSweep(points, policy, &stats);

    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    EXPECT_GE(countCause(stats, dist::WorkerExit::Cause::Hung), 1u);
    EXPECT_FALSE(stats.degraded);
    EXPECT_TRUE(stats.quarantinedPoints.empty());
}

TEST_F(DistTest, PoisonUnitIsQuarantinedAfterMaxAttempts)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    // Every spawn dies on the unit containing grid point 5: attempt 1
    // kills one worker, attempt 2 hits maxUnitAttempts and the unit is
    // abandoned instead of grinding the fleet down forever.
    policy.faultSpec = "kill-on-point=5";
    policy.maxUnitAttempts = 2;
    dist::DistStats stats;
    auto got = dist::runSweep(points, policy, &stats);

    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(stats.quarantinedUnits, 1u);
    ASSERT_FALSE(stats.quarantinedPoints.empty());
    EXPECT_NE(std::find(stats.quarantinedPoints.begin(),
                        stats.quarantinedPoints.end(), 5u),
              stats.quarantinedPoints.end());
    std::vector<bool> lost(expect.size(), false);
    for (u32 i : stats.quarantinedPoints)
        lost[i] = true;
    for (size_t i = 0; i < expect.size(); ++i) {
        if (lost[i])
            EXPECT_EQ(got[i].traceLength, 0u)
                << "quarantined point " << i << " must not have run";
        else
            EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    }
    EXPECT_EQ(stats.abnormalExits, 2u);
    EXPECT_EQ(stats.jobsRun,
              expect.size() - stats.quarantinedPoints.size());
    EXPECT_FALSE(stats.degraded);
}

TEST_F(DistTest, FleetCollapseDegradesToInDriverExecution)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    // Every spawn dies on its first unit and each slot may respawn only
    // once: four deaths and the fleet is gone with the grid untouched.
    // The driver must finish the sweep itself, still bit-identical.
    policy.faultSpec = "kill-after-units=0";
    policy.maxRespawns = 1;
    dist::DistStats stats;
    auto got = dist::runSweep(points, policy, &stats);

    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.degradedJobs, expect.size());
    EXPECT_EQ(stats.jobsRun, 0u);
    EXPECT_EQ(stats.respawns, 2u);
    EXPECT_EQ(stats.abnormalExits, 4u);
    EXPECT_EQ(stats.exitCauses.size(), 4u);
    EXPECT_TRUE(stats.quarantinedPoints.empty());
}

TEST_F(DistTest, PostRunAbnormalExitIsRecorded)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    // Workers finish every job and the Done/Stats handshake, then exit
    // 7 instead of 0 -- the run succeeded but the exits must not be
    // reported as clean.
    policy.faultSpec = "exit-code=7";
    dist::DistStats stats;
    auto got = dist::runSweep(points, policy, &stats);

    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    EXPECT_EQ(stats.jobsRun, expect.size());
    EXPECT_EQ(stats.respawns, 0u);
    EXPECT_EQ(stats.abnormalExits, 2u);
    ASSERT_EQ(stats.exitCauses.size(), 2u);
    for (const auto &e : stats.exitCauses) {
        EXPECT_EQ(e.cause, dist::WorkerExit::Cause::Exit);
        EXPECT_NE(e.detail.find("exit 7"), std::string::npos) << e.detail;
        EXPECT_NE(e.detail.find("completing its jobs"), std::string::npos)
            << e.detail;
    }
}

TEST_F(DistTest, FaultyRunJournalsCompletelyAndResumes)
{
    auto expect = serialReference();
    auto points = gridPoints();

    for (bool viaExecutor : {false, true}) {
        SCOPED_TRACE(viaExecutor ? "ProcessExecutor" : "dist::runSweep");
        fs::remove(journalPath());
        ExecutionPolicy policy = procPolicy();
        policy.journalPath = journalPath();
        policy.journalSync = true; // the fdatasync path must survive faults
        policy.faultSpec = "kill-after-units=1@worker0";
        dist::DistStats first;
        // Telemetry counts the fdatasync()s, proving the sync request
        // reached the journal (results are identical either way).
        telemetry::Registry &reg = telemetry::Registry::instance();
        telemetry::setEnabled(true);
        telemetry::MetricsSnapshot before = reg.snapshot();
        auto got = runDistributed(points, policy, first, viaExecutor);
        telemetry::MetricsSnapshot synced =
            telemetry::Registry::delta(before, reg.snapshot());
        telemetry::setEnabled(false);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
        EXPECT_EQ(first.abnormalExits, 1u);
        EXPECT_GE(synced.values["dist.journal.syncs"], expect.size())
            << "journal entries were not synced";

        // The journal a fault-recovered run leaves behind is complete.
        policy.faultSpec.clear();
        dist::DistStats second;
        auto rerun = runDistributed(points, policy, second, viaExecutor);
        EXPECT_EQ(second.jobsResumed, expect.size());
        EXPECT_EQ(second.jobsRun, 0u);
        EXPECT_EQ(second.workers, 0u);
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(rerun[i].sameRun(expect[i]))
                << "resumed point " << i;
    }
}

TEST_F(DistTest, MidFileJournalCorruptionSkipsOnlyThatEntry)
{
    auto expect = serialReference();
    auto points = gridPoints();

    ExecutionPolicy policy = procPolicy();
    policy.journalPath = journalPath();
    dist::runSweep(points, policy);

    // Flip a byte inside the FIRST entry's payload (16-byte header,
    // 4-byte length prefix): the framing stays intact, so only this one
    // entry is damaged and everything after it must still restore.
    {
        std::fstream f(journalPath(), std::ios::in | std::ios::out |
                                          std::ios::binary);
        f.seekg(16 + 4 + 2);
        char c;
        f.get(c);
        f.seekp(16 + 4 + 2);
        f.put(char(c ^ 0x01));
    }

    dist::DistStats stats;
    auto rerun = dist::runSweep(points, policy, &stats);
    EXPECT_EQ(stats.journalSkipped, 1u);
    EXPECT_EQ(stats.jobsResumed, expect.size() - 1);
    EXPECT_EQ(stats.jobsRun, 1u);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "point " << i;
}

TEST_F(DistTest, TraceStoreRoundTripAndCorruptionTolerance)
{
    TraceStore store(storeDir());
    TraceRepository repo;
    TraceKey key{false, "idct", SimdKind::VMMX64,
                 TraceRepository::kernelImageBytes,
                 TraceRepository::defaultSeed};
    SharedTrace trace = repo.raw(key).shared();

    EXPECT_EQ(store.load(key), nullptr); // empty store: miss
    EXPECT_EQ(store.misses(), 1u);
    ASSERT_TRUE(store.save(key, *trace));
    EXPECT_TRUE(store.contains(key));

    SharedTrace back = store.load(key);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(*back == *trace);

    // A different key never aliases the stored file.
    TraceKey other = key;
    other.seed ^= 1;
    EXPECT_EQ(store.load(other), nullptr);

    // Flip one payload byte: checksum must reject the file as a miss.
    std::string file = store.path(key);
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(40);
        char c;
        f.seekg(40);
        f.get(c);
        f.seekp(40);
        f.put(char(c ^ 0x01));
    }
    EXPECT_EQ(store.load(key), nullptr);

    // Truncation too.
    ASSERT_TRUE(store.save(key, *trace));
    fs::resize_file(file, fs::file_size(file) / 2);
    EXPECT_EQ(store.load(key), nullptr);
}

} // namespace
} // namespace vmmx
