/**
 * @file
 * Sweep-engine and trace-repository tests: a multi-threaded sweep must
 * be bit-identical to the serial loop, results must come back in
 * submission order, and repeated trace lookups must hit the repository
 * instead of regenerating.  The batched engine adds its own contract:
 * running N machine configurations through one trace pass
 * (runTraceBatch, or a policy with batch on) must be bit-identical to N
 * independent runTrace() calls, for any batch size and any knob
 * overrides -- and replaying a kernel/app trace streamed from its
 * source (no store, cold store, warm store), or an explicit trace's
 * pre-decoded stream, must be bit-identical to decoding on the fly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/study.hh"
#include "kernels/kernel.hh"
#include "trace/trace_repo.hh"

#include "random_machine.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

/** The (kernel x flavour x width) cross product, in Study order. */
std::vector<SweepPoint>
kernelGrid(std::vector<std::string> kernels, std::vector<SimdKind> kinds,
           std::vector<unsigned> ways)
{
    StudySpec spec;
    spec.kernels = std::move(kernels);
    spec.kinds = std::move(kinds);
    spec.ways = std::move(ways);
    return Study(std::move(spec)).points();
}

/** Thread-pool policy over @p repo (environment defaults otherwise). */
ExecutionPolicy
poolPolicy(TraceRepository &repo, unsigned threads)
{
    ExecutionPolicy policy = ExecutionPolicy::fromEnv();
    policy.repo = &repo;
    policy.threads = threads;
    return policy;
}

class SweepTest : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** A private repository per test so counters start at zero.
     *  Budgets come from the environment, so a CI run with tiny
     *  budgets exercises the eviction/refill paths under every test
     *  that only asserts results (count-sensitive tests below build
     *  their own explicitly unbounded repository). */
    TraceRepository repo;
};

TEST_F(SweepTest, RepositoryGeneratesOncePerKey)
{
    TraceRepository unbounded(nullptr, 0, 0);
    EXPECT_EQ(unbounded.generations(), 0u);
    auto t1 = unbounded.kernel("idct", SimdKind::VMMX128);
    EXPECT_EQ(unbounded.generations(), 1u);
    EXPECT_EQ(unbounded.rawStats().hits, 0u);

    // Second and third lookups of the same key: raw-tier hits, no
    // regeneration, same shared immutable trace object.
    auto t2 = unbounded.kernel("idct", SimdKind::VMMX128);
    auto t3 = unbounded.kernel("idct", SimdKind::VMMX128);
    EXPECT_EQ(unbounded.generations(), 1u);
    EXPECT_EQ(unbounded.rawStats().hits, 2u);
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_EQ(t1.get(), t3.get());

    // A different key generates again.
    auto t4 = unbounded.kernel("idct", SimdKind::MMX64);
    EXPECT_EQ(unbounded.generations(), 2u);
    EXPECT_EQ(unbounded.size(), 2u);
}

TEST_F(SweepTest, RepositoryDistinguishesKindAndWorkload)
{
    auto a = repo.kernel("motion1", SimdKind::MMX64);
    auto b = repo.kernel("motion1", SimdKind::MMX128);
    auto c = repo.kernel("motion2", SimdKind::MMX64);
    EXPECT_EQ(repo.generations(), 3u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    // Traces are genuinely different programs.
    EXPECT_NE(a->size(), 0u);
    EXPECT_NE(b->size(), 0u);
}

TEST_F(SweepTest, CachedTraceMatchesDirectGeneration)
{
    auto cached = repo.kernel("ycc", SimdKind::VMMX64);

    auto k = makeKernel("ycc");
    MemImage mem(TraceRepository::kernelImageBytes);
    Rng rng(TraceRepository::defaultSeed);
    k->prepare(mem, rng);
    Program p(mem, SimdKind::VMMX64);
    k->emit(p);
    auto direct = p.takeTrace();

    ASSERT_EQ(cached->size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ((*cached)[i].op, direct[i].op) << "at " << i;
        EXPECT_EQ((*cached)[i].addr, direct[i].addr) << "at " << i;
        EXPECT_EQ((*cached)[i].staticId, direct[i].staticId) << "at " << i;
    }
}

TEST_F(SweepTest, DecodedStreamMatchesOnTheFlyDecode)
{
    // The decoded-tier contract: replaying an explicit trace's decoded
    // stream is bit-identical to handing runTrace the raw records.
    auto trace = repo.kernel("h2v2", SimdKind::VMMX128);
    auto stream = repo.decoded(trace.shared());
    ASSERT_EQ(stream.records(), trace->size());

    for (unsigned way : {2u, 8u}) {
        MachineConfig machine = makeMachine(SimdKind::VMMX128, way);
        RunResult raw = runTrace(machine, *trace);
        RunResult decoded = runTrace(machine, stream.stream());
        EXPECT_TRUE(raw == decoded) << way << "-way";
    }
}

TEST_F(SweepTest, ParallelSweepBitIdenticalToSerial)
{
    // >= 8 (kernel x flavour x width) points with distinct shapes.
    auto points = kernelGrid({"idct", "h2v2"},
                             {SimdKind::MMX64, SimdKind::VMMX128}, {2, 4});
    points.push_back({SweepPoint::Workload::Kernel, "motion1",
                      SimdKind::MMX128, 8});
    points.push_back({SweepPoint::Workload::App, "gsmenc", SimdKind::VMMX64,
                      4});
    ASSERT_GE(points.size(), 8u);
    ExecutionPolicy pooled = poolPolicy(repo, 4);

    auto a = runSerial(points, poolPolicy(repo, 1));
    auto b = runPoints(points, pooled);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].sameRun(b[i])) << "point " << i << " ("
                                        << a[i].point.label() << ")";
        EXPECT_EQ(a[i].point.label(), b[i].point.label());
    }

    // Repeated threaded runs stay deterministic.
    auto c = runPoints(points, pooled);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].sameRun(c[i])) << "point " << i;
}

/** The points of @p grid turned into explicit-trace points, one shared
 *  trace object per (kernel, flavour) from @p repo. */
std::vector<SweepPoint>
explicitTraces(std::vector<SweepPoint> grid, TraceRepository &repo)
{
    for (SweepPoint &p : grid) {
        p.trace = repo.kernel(p.name, p.kind).shared();
        p.workload = SweepPoint::Workload::Trace;
    }
    return grid;
}

TEST_F(SweepTest, SweepSharesDecodedStreamsAcrossPoints)
{
    TraceRepository unbounded(nullptr, 0, 0);
    ExecutionPolicy policy = poolPolicy(unbounded, 4);
    policy.batch = false; // per-point jobs: each point looks its trace up
    policy.decoded = true;
    // 3 widths x 2 flavours of one kernel: 6 points, 2 trace objects.
    auto points = explicitTraces(
        kernelGrid({"rgb"}, {SimdKind::MMX64, SimdKind::VMMX128}, {2, 4, 8}),
        unbounded);
    auto results = runPoints(points, policy);
    EXPECT_EQ(results.size(), 6u);
    // Each trace was decoded exactly once; the other four per-point
    // lookups were decoded-tier hits.
    EXPECT_EQ(unbounded.generations(), 2u);
    EXPECT_EQ(unbounded.decodes(), 2u);
    EXPECT_EQ(unbounded.decodedStats().hits, 4u);

    // Same trace => same dynamic length at every width.
    EXPECT_EQ(results[0].traceLength, results[1].traceLength);
    EXPECT_EQ(results[0].traceLength, results[2].traceLength);

    // Batched: the whole group resolves its stream once, so the second
    // sweep adds one decoded hit per distinct trace -- and identical
    // results, with still no re-decode.
    ExecutionPolicy batched = policy;
    batched.batch = true;
    auto batchedResults = runPoints(points, batched);
    EXPECT_EQ(unbounded.generations(), 2u);
    EXPECT_EQ(unbounded.decodes(), 2u);
    EXPECT_EQ(unbounded.decodedStats().hits, 6u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results[i].sameRun(batchedResults[i])) << "point " << i;
}

TEST_F(SweepTest, DecodedTierOffMatchesDecodedTierOn)
{
    ExecutionPolicy on = poolPolicy(repo, 2);
    on.decoded = true;
    ExecutionPolicy off = on;
    off.decoded = false;

    auto points = explicitTraces(
        kernelGrid({"ltpfilt", "comp"}, {SimdKind::VMMX64, SimdKind::MMX128},
                   {2, 8}),
        repo);
    auto a = runPoints(points, on);
    auto b = runPoints(points, off);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].sameRun(b[i]))
            << "point " << i << " (" << a[i].point.label() << ")";
}

/** A fresh trace store directory for one test, removed afterwards. */
class StoreDir
{
  public:
    StoreDir()
        : dir_(fs::temp_directory_path() /
               ("vmmx-sweep-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()))
    {
        fs::remove_all(dir_);
    }
    ~StoreDir() { fs::remove_all(dir_); }
    std::string path(const std::string &leaf) const
    {
        return (dir_ / leaf).string();
    }

  private:
    fs::path dir_;
};

// The streamed unit's identity contract: a randomized grid of kernel
// and app points, swept with batching on and off over no store, an
// empty (cold) store and the store that cold run filled (warm), is
// bit-identical to the runSerial oracle every time.  Each run gets a
// fresh repository, so every unit really streams from its source.
TEST_F(SweepTest, RandomizedGridStreamedUnitsMatchSerial)
{
    std::mt19937 rng(0x57ea);
    const std::vector<std::pair<bool, std::string>> workloads = {
        {false, "motion1"}, {false, "idct"}, {false, "ltpfilt"},
        {false, "rgb"}, {true, "gsmdec"}};
    const SimdKind kinds[] = {SimdKind::MMX64, SimdKind::MMX128,
                              SimdKind::VMMX64, SimdKind::VMMX128};
    std::vector<SweepPoint> points;
    for (int i = 0; i < 24; ++i) {
        Config knobs;
        if (rng() % 2)
            knobs.set("core.rob", s64(16 << (rng() % 4)));
        if (rng() % 2)
            knobs.set("core.iq", s64(8 << (rng() % 3)));
        if (rng() % 2)
            knobs.set("mem.l2.latency", s64(6 + 6 * (rng() % 3)));
        unsigned way = 2u << (rng() % 3);
        SimdKind kind = kinds[rng() % 4];
        const auto &[isApp, name] = workloads[rng() % workloads.size()];
        points.push_back({isApp ? SweepPoint::Workload::App
                                : SweepPoint::Workload::Kernel,
                          name, kind, way, knobs});
    }
    const size_t traces = groupPointsByTrace(points).size();

    TraceRepository oracleRepo(nullptr, 0, 0);
    auto want = runSerial(points, poolPolicy(oracleRepo, 1));

    StoreDir dir;
    for (bool batch : {true, false}) {
        TraceStore store(dir.path(batch ? "batched" : "per-point"));
        for (const char *mode : {"no store", "cold", "warm"}) {
            const bool stored = std::string(mode) != "no store";
            TraceRepository fresh(stored ? &store : nullptr, 0, 0);
            ExecutionPolicy policy = poolPolicy(fresh, 4);
            policy.batch = batch;
            auto got = runPoints(points, policy);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i)
                EXPECT_TRUE(got[i].sameRun(want[i]))
                    << mode << (batch ? ", batched" : ", per point")
                    << ": point " << i << " (" << want[i].point.label()
                    << ")";
            if (std::string(mode) == "cold") {
                EXPECT_EQ(fresh.generations(), traces) << "batch " << batch;
                EXPECT_EQ(fresh.rawStats().bytes, 0u);
            }
            if (std::string(mode) == "warm") {
                // Nothing of a warm run stays in RAM: every unit
                // streamed its store file and kept nothing.
                EXPECT_EQ(fresh.generations(), 0u);
                EXPECT_EQ(fresh.diskLoads(), batch ? traces : points.size());
                EXPECT_EQ(fresh.rawStats().bytes, 0u);
                EXPECT_EQ(fresh.decodedStats().bytes, 0u);
            }
        }
    }
}

TEST_F(SweepTest, LabelIncludesAblationOverrides)
{
    // Two points that differ only in a knob must not print identically.
    Config robSmall;
    robSmall.set("core.robEntries", s64(32));
    Config robLarge;
    robLarge.set("core.robEntries", s64(128));
    robLarge.set("mem.l2Latency", s64(9));

    const std::vector<SweepPoint> pts = {
        {SweepPoint::Workload::Kernel, "idct", SimdKind::VMMX128, 4,
         robSmall},
        {SweepPoint::Workload::Kernel, "idct", SimdKind::VMMX128, 4,
         robLarge},
        {SweepPoint::Workload::Kernel, "idct", SimdKind::VMMX128, 4},
    };

    EXPECT_NE(pts[0].label(), pts[1].label());
    EXPECT_NE(pts[0].label(), pts[2].label());
    EXPECT_EQ(pts[2].label(), "idct/vmmx128/4-way");
    EXPECT_EQ(pts[0].label(),
              "idct/vmmx128/4-way+core.robEntries=32");
    // Multiple overrides all appear (sorted by key).
    EXPECT_EQ(pts[1].label(),
              "idct/vmmx128/4-way+core.robEntries=128+mem.l2Latency=9");
}

TEST_F(SweepTest, ExplicitTracePointsRun)
{
    auto trace = repo.kernel("addblock", SimdKind::MMX64);
    std::vector<SweepPoint> points;
    for (unsigned way : {2u, 4u, 8u})
        points.push_back({SweepPoint::Workload::Trace, "trace",
                          SimdKind::MMX64, way, {}, trace.shared()});
    auto results = runPoints(points, poolPolicy(repo, 0));
    ASSERT_EQ(results.size(), 3u);
    // Wider machines are not slower on the same trace.
    EXPECT_GE(results[0].cycles(), results[1].cycles());
    EXPECT_GE(results[1].cycles(), results[2].cycles());
}

TEST_F(SweepTest, ResultsMatchDirectRunTrace)
{
    auto results = runPoints(
        {{SweepPoint::Workload::Kernel, "ltpfilt", SimdKind::VMMX128, 4}},
        poolPolicy(repo, 2));
    ASSERT_EQ(results.size(), 1u);

    auto trace = repo.kernel("ltpfilt", SimdKind::VMMX128);
    RunResult direct = runTrace(makeMachine(SimdKind::VMMX128, 4), *trace);
    EXPECT_TRUE(results[0].result == direct);
}

// The batched-execution contract: one trace pass through N randomized
// configurations is bit-identical to N independent runTrace() calls --
// for a batch of one, a pair, and a batch wider than the sweep engine's
// thread pool -- and the pre-decoded (tier-2) pass agrees with both.
TEST_F(SweepTest, RunTraceBatchMatchesPerConfigRunTrace)
{
    for (SimdKind kind : {SimdKind::MMX64, SimdKind::VMMX128}) {
        auto trace = repo.kernel("idct", kind);
        auto stream = repo.decoded(trace.shared());
        std::mt19937 rng(0xbeef);
        for (size_t batchSize : {size_t(1), size_t(2), size_t(9)}) {
            std::vector<MachineConfig> machines;
            machines.reserve(batchSize);
            for (size_t i = 0; i < batchSize; ++i)
                machines.push_back(randomMachine(rng, kind));

            auto batched = runTraceBatch(machines, *trace);
            auto decoded = runTraceBatch(machines, stream.stream());
            ASSERT_EQ(batched.size(), batchSize);
            for (size_t i = 0; i < batchSize; ++i) {
                RunResult alone = runTrace(machines[i], *trace);
                EXPECT_TRUE(batched[i] == alone)
                    << name(kind) << " batch of " << batchSize
                    << ", config " << i;
                EXPECT_TRUE(decoded[i] == alone)
                    << name(kind) << " decoded batch of " << batchSize
                    << ", config " << i;
            }
        }
    }
}

// A batched sweep over a grid with trace groups wider than the thread
// pool must stay bit-identical to the per-point serial reference.
TEST_F(SweepTest, BatchedSweepBitIdenticalToSerial)
{
    // One trace replayed on 6 knob variants: a group wider than the
    // 4-thread pool; plus ordinary (flavour x width) groups.
    std::vector<SweepPoint> points;
    for (s64 rob : {16, 24, 32, 48, 64, 128}) {
        Config knobs;
        knobs.set("core.rob", rob);
        points.push_back({SweepPoint::Workload::Kernel, "h2v2",
                          SimdKind::VMMX64, 4, knobs});
    }
    for (const SweepPoint &p : kernelGrid(
             {"motion1"}, {SimdKind::MMX64, SimdKind::MMX128}, {2, 4, 8}))
        points.push_back(p);
    ExecutionPolicy batched = poolPolicy(repo, 4);
    batched.batch = true;

    auto expect = runSerial(points, poolPolicy(repo, 1));
    auto got = runPoints(points, batched);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(got[i].sameRun(expect[i]))
            << "point " << i << " (" << expect[i].point.label() << ")";
        EXPECT_EQ(got[i].point.label(), expect[i].point.label());
    }

    // The grouping itself: 6 knob variants of one trace form one group.
    auto groups = groupPointsByTrace(points);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].size(), 6u);
    EXPECT_EQ(groups[1].size(), 3u);
    EXPECT_EQ(groups[2].size(), 3u);
}

} // namespace
} // namespace vmmx
