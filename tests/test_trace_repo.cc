/**
 * @file
 * Tiered TraceRepository tests: the decoded tier amortizes the
 * per-record decode process-wide, pins protect borrowed traces and
 * decoded streams against eviction, evicted copies re-materialize from
 * the tier below (decoded from raw, raw from disk), and -- the headline
 * guarantee -- results are bit-identical no matter how tiny the
 * budgets, because budgets only ever change *when* memory is reclaimed,
 * never *what* a run computes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/executor.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

class TraceRepoTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        dir_ = fs::temp_directory_path() /
               ("vmmx-repo-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string storeDir() const { return (dir_ / "store").string(); }

    static const TraceKey &key(int i)
    {
        static const TraceKey keys[] = {
            {false, "motion1", SimdKind::MMX64,
             TraceRepository::kernelImageBytes, TraceRepository::defaultSeed},
            {false, "motion2", SimdKind::MMX64,
             TraceRepository::kernelImageBytes, TraceRepository::defaultSeed},
            {false, "comp", SimdKind::MMX64,
             TraceRepository::kernelImageBytes, TraceRepository::defaultSeed},
        };
        return keys[i];
    }

    fs::path dir_;
};

TEST_F(TraceRepoTest, DecodedStreamBuiltOncePerKey)
{
    TraceRepository repo(nullptr, 0, 0);
    auto s1 = repo.decoded(key(0));
    EXPECT_EQ(repo.generations(), 1u);
    EXPECT_EQ(repo.decodes(), 1u);
    EXPECT_GT(s1.records(), 0u);

    // Further decoded lookups -- the second group of a sweep, another
    // thread, another batch -- share the same stream object.
    auto s2 = repo.decoded(key(0));
    EXPECT_EQ(repo.decodes(), 1u);
    EXPECT_EQ(repo.decodedStats().hits, 1u);
    EXPECT_EQ(s1.get(), s2.get());

    // The decoded bytes follow the documented ~1.3x raw ratio.
    auto raw = repo.raw(key(0));
    u64 rawBytes = raw->size() * sizeof(InstRecord);
    EXPECT_GT(repo.decodedStats().bytes, rawBytes);
    EXPECT_LT(repo.decodedStats().bytes, 2 * rawBytes);
}

TEST_F(TraceRepoTest, DecodedMatchesPerRecordDecode)
{
    TraceRepository repo(nullptr, 0, 0);
    auto raw = repo.raw(key(1));
    auto stream = repo.decoded(key(1));
    ASSERT_EQ(stream.records(), raw->size());
    for (size_t i = 0; i < raw->size(); ++i) {
        DecodedInst direct = decodeInst((*raw)[i]);
        const DecodedInst &cached = stream.stream().insts[i];
        // DecodedInst is plain data; compare the identity-relevant
        // fields (a full memcmp would be padding-sensitive).
        EXPECT_EQ(direct.addr, cached.addr) << "at " << i;
        EXPECT_EQ(direct.flags, cached.flags) << "at " << i;
        EXPECT_EQ(direct.fu, cached.fu) << "at " << i;
        EXPECT_EQ(direct.latency, cached.latency) << "at " << i;
        EXPECT_EQ(direct.dstReg, cached.dstReg) << "at " << i;
        EXPECT_EQ(direct.nSrcs, cached.nSrcs) << "at " << i;
    }
}

TEST_F(TraceRepoTest, TinyDecodedBudgetEvictsAndRematerializes)
{
    // A 1-byte decoded budget: every unpinned stream is evicted as soon
    // as the next lookup enforces the budget.
    TraceRepository repo(nullptr, 0, 1);
    { auto s = repo.decoded(key(0)); }
    EXPECT_EQ(repo.decodes(), 1u);

    // The next decoded lookup of another key evicts the first (it is
    // unpinned); looking the first up again re-decodes from raw.
    { auto s = repo.decoded(key(1)); }
    EXPECT_GE(repo.decodedStats().evictions, 1u);
    { auto s = repo.decoded(key(0)); }
    EXPECT_EQ(repo.decodes(), 3u);
    // ... but never regenerates the trace itself: tier 1 is intact.
    EXPECT_EQ(repo.generations(), 2u);
}

TEST_F(TraceRepoTest, PinnedDecodedStreamSurvivesTinyBudget)
{
    TraceRepository repo(nullptr, 0, 1);
    auto pinned = repo.decoded(key(0));
    const DecodedStream *object = pinned.get();

    // Budget pressure from other keys cannot evict the pinned stream.
    { auto other = repo.decoded(key(1)); }
    { auto other = repo.decoded(key(2)); }
    auto again = repo.decoded(key(0));
    EXPECT_EQ(again.get(), object) << "pinned stream was evicted";
    EXPECT_EQ(repo.decodedStats().hits, 1u);

    // Once the pins drop, the same pressure does evict it.
    again = TraceRepository::DecodedHandle();
    pinned = TraceRepository::DecodedHandle();
    { auto other = repo.decoded(key(1)); }
    auto rebuilt = repo.decoded(key(0));
    EXPECT_EQ(repo.decodedStats().hits, 1u) << "expected a re-decode";
}

TEST_F(TraceRepoTest, EvictedRawTraceRematerializesFromDisk)
{
    TraceStore store(storeDir());
    TraceRepository repo(&store, /*rawBudgetBytes=*/1, 0);
    u64 aBytes = 0;
    {
        auto a = repo.kernel("motion1", SimdKind::MMX64);
        aBytes = a->size() * sizeof(InstRecord);
    } // unpinned: the repository's copy is now evictable

    // Generating a second trace pushes the first out of RAM (it is disk
    // backed), leaving only the just-returned trace resident.
    auto b = repo.kernel("motion2", SimdKind::MMX64);
    EXPECT_EQ(repo.generations(), 2u);
    EXPECT_GE(repo.rawStats().evictions, 1u);
    EXPECT_LT(repo.rawStats().bytes,
              aBytes + b->size() * sizeof(InstRecord));

    // The evicted trace comes back from disk, not from regeneration.
    auto a2 = repo.kernel("motion1", SimdKind::MMX64);
    EXPECT_EQ(repo.generations(), 2u);
    EXPECT_EQ(repo.diskLoads(), 1u);
    ASSERT_TRUE(bool(a2));

    // A pinned raw trace survives the same pressure.
    auto pinnedB = repo.kernel("motion2", SimdKind::MMX64);
    const std::vector<InstRecord> *object = pinnedB.get();
    { auto c = repo.kernel("comp", SimdKind::MMX64); }
    auto b2 = repo.kernel("motion2", SimdKind::MMX64);
    EXPECT_EQ(b2.get(), object) << "pinned raw trace was evicted";

    // Without a store, the budget cannot evict (nothing is disk backed).
    TraceRepository ramOnly(nullptr, 1, 0);
    { auto t1 = ramOnly.kernel("motion1", SimdKind::MMX64); }
    { auto t2 = ramOnly.kernel("motion2", SimdKind::MMX64); }
    EXPECT_EQ(ramOnly.rawStats().evictions, 0u);
    EXPECT_EQ(ramOnly.size(), 2u);
}

TEST_F(TraceRepoTest, AdoptedExplicitTraceSharesOneDecode)
{
    TraceRepository repo(nullptr, 0, 0);
    SharedTrace trace = repo.kernel("comp", SimdKind::VMMX128).shared();

    auto s1 = repo.decoded(trace);
    auto s2 = repo.decoded(trace);
    EXPECT_EQ(s1.get(), s2.get());
    EXPECT_EQ(repo.decodes(), 1u);
    EXPECT_EQ(repo.decodedStats().hits, 1u);

    // A different trace object decodes separately even if equal bytes.
    SharedTrace copy =
        std::make_shared<const std::vector<InstRecord>>(*trace);
    auto s3 = repo.decoded(copy);
    EXPECT_NE(s3.get(), s1.get());
    EXPECT_EQ(repo.decodes(), 2u);
}

TEST_F(TraceRepoTest, BudgetFromEnvParsesSuffixes)
{
    for (const char *var :
         {"VMMX_TRACE_CACHE_BUDGET", "VMMX_DECODED_CACHE_BUDGET"}) {
        ::setenv(var, "64M", 1);
        EXPECT_EQ(TraceRepository::budgetFromEnv(var), 64ull << 20);
        ::setenv(var, "2g", 1);
        EXPECT_EQ(TraceRepository::budgetFromEnv(var), 2ull << 30);
        ::setenv(var, "4096", 1);
        EXPECT_EQ(TraceRepository::budgetFromEnv(var), 4096ull);
        ::setenv(var, "potato", 1);
        EXPECT_EQ(TraceRepository::budgetFromEnv(var), 0u);
        ::setenv(var, "-5", 1);
        EXPECT_EQ(TraceRepository::budgetFromEnv(var), 0u);
        ::unsetenv(var);
        EXPECT_EQ(TraceRepository::budgetFromEnv(var), 0u);
    }
}

// The ISSUE acceptance test: a randomized ablation grid swept with a
// 1-byte decoded budget (set through the environment, as CI does) is
// bit-identical to the unbounded sweep -- constant eviction and
// re-decode changes memory behaviour only, never results.
TEST_F(TraceRepoTest, RandomizedGridTinyDecodedBudgetBitIdentical)
{
    ::setenv("VMMX_DECODED_CACHE_BUDGET", "1", 1);
    TraceRepository tiny; // budgets read from the environment
    ::unsetenv("VMMX_DECODED_CACHE_BUDGET");
    ASSERT_EQ(tiny.decodedBudget(), 1u);
    TraceRepository unbounded(nullptr, 0, 0);

    std::mt19937 rng(0x5eed);
    // One grid, built once so both runs see identical points (the
    // builder draws from the RNG).
    const std::vector<std::string> kernels = {"motion1", "comp",
                                              "addblock"};
    const SimdKind kinds[] = {SimdKind::MMX64, SimdKind::VMMX128};
    std::vector<SweepPoint> points;
    for (int i = 0; i < 18; ++i) {
        Config knobs;
        if (rng() % 2)
            knobs.set("core.rob", s64(16 << (rng() % 4)));
        if (rng() % 2)
            knobs.set("core.iq", s64(8 << (rng() % 3)));
        // Drawn way, kind, then kernel: the draw order fixes the grid
        // this seed yields.
        unsigned way = 2u << (rng() % 3);
        SimdKind kind = kinds[rng() % 2];
        const std::string &kernel = kernels[rng() % kernels.size()];
        points.push_back(
            {SweepPoint::Workload::Kernel, kernel, kind, way, knobs});
    }

    ExecutionPolicy tinyPolicy = ExecutionPolicy::fromEnv();
    tinyPolicy.repo = &tiny;
    tinyPolicy.threads = 4;
    ExecutionPolicy bigPolicy = tinyPolicy;
    bigPolicy.repo = &unbounded;

    auto a = runPoints(points, tinyPolicy);
    auto b = runPoints(points, bigPolicy);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].sameRun(b[i]))
            << "point " << i << " (" << a[i].point.label() << ")";

    // The tiny-budget run really did exercise the eviction path.
    EXPECT_GT(tiny.decodedStats().evictions, 0u);
    EXPECT_LE(tiny.decodedStats().bytes, unbounded.decodedStats().bytes);
}

} // namespace
} // namespace vmmx
