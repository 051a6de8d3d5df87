/**
 * @file
 * Tiered TraceRepository tests: the decoded tier amortizes the
 * per-record decode process-wide, pins protect borrowed traces and
 * decoded streams against eviction, evicted copies re-materialize from
 * the tier below (decoded from disk or raw, raw from disk), a store
 * fills the decoded tier without keeping a raw copy, hostile store
 * bytes read as a miss, and -- the headline
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

    /** Fill a store at storeDir() with @p keys, as an earlier run
     *  would have; @return the number of records of each. */
    std::vector<size_t> fillStore(std::initializer_list<int> keys) const
    {
        TraceStore store(storeDir());
        TraceRepository filler(&store, 0, 0);
        std::vector<size_t> records;
        for (int k : keys)
            records.push_back(filler.raw(key(k))->size());
        return records;
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

    // Without a store the raw copy the decode came from stays resident.
    auto raw = repo.raw(key(0));
    u64 rawBytes = raw->size() * sizeof(InstRecord);
    EXPECT_EQ(repo.rawStats().hits, 1u);
    EXPECT_EQ(repo.rawStats().bytes, rawBytes);
    EXPECT_EQ(repo.generations(), 1u);

    // The decoded bytes follow the documented ~1.3x raw ratio.
    EXPECT_GT(repo.decodedStats().bytes, rawBytes);
    EXPECT_LT(repo.decodedStats().bytes, 2 * rawBytes);
}

TEST_F(TraceRepoTest, DecodedMatchesPerRecordDecode)
{
    TraceRepository repo(nullptr, 0, 0);
    auto raw = repo.raw(key(1));
    auto stream = repo.decoded(key(1));
    ASSERT_EQ(stream.records(), raw->size());
    for (size_t i = 0; i < raw->size(); ++i)
        ASSERT_TRUE(decodeInst((*raw)[i]) == stream.stream().insts[i])
            << "at " << i;
}

TEST_F(TraceRepoTest, StoreStreamedDecodeMatchesRawDecode)
{
    TraceStore store(storeDir());
    TraceRepository filler(&store, 0, 0);
    std::vector<TraceKey> keys;
    for (const char *kernel : {"motion1", "comp", "idct"})
        for (SimdKind kind : {SimdKind::MMX64, SimdKind::MMX128,
                              SimdKind::VMMX64, SimdKind::VMMX128})
            keys.push_back({false, kernel, kind,
                            TraceRepository::kernelImageBytes,
                            TraceRepository::defaultSeed});
    keys.push_back({true, "gsmdec", SimdKind::VMMX128,
                    TraceRepository::appImageBytes,
                    TraceRepository::defaultSeed});

    for (const TraceKey &k : keys) {
        { auto generated = filler.raw(k); } // generates and saves
        SharedDecoded streamed = store.loadDecoded(k);
        SharedTrace loaded = store.load(k);
        ASSERT_TRUE(streamed && loaded) << k.describe();
        DecodedStream viaRaw = decodeStream(*loaded);
        ASSERT_EQ(streamed->size(), viaRaw.size()) << k.describe();
        for (size_t i = 0; i < viaRaw.size(); ++i)
            ASSERT_TRUE(streamed->insts[i] == viaRaw.insts[i])
                << k.describe() << " at " << i;
    }
}

TEST_F(TraceRepoTest, WarmStoreFillsDecodedTierWithoutRawCopy)
{
    std::vector<size_t> records = fillStore({0});
    TraceStore store(storeDir());
    TraceRepository repo(&store, 0, 0);
    auto s = repo.decoded(key(0));
    EXPECT_EQ(s.records(), records[0]);
    EXPECT_EQ(repo.generations(), 0u);
    EXPECT_EQ(repo.diskLoads(), 1u);
    EXPECT_EQ(repo.decodes(), 1u);
    EXPECT_EQ(repo.rawStats().bytes, 0u);
    EXPECT_EQ(repo.rawStats().fills, 0u);
}

TEST_F(TraceRepoTest, ColdStoreDropsRawCopyAfterDecodedFill)
{
    TraceStore store(storeDir());
    TraceRepository repo(&store, 0, 0);
    auto s = repo.decoded(key(0));
    EXPECT_EQ(repo.generations(), 1u);
    EXPECT_EQ(store.saves(), 1u);
    EXPECT_EQ(repo.rawStats().bytes, 0u) << "raw copy outlived its decode";

    // The dropped copy comes back from disk, not from regeneration.
    auto raw = repo.raw(key(0));
    EXPECT_EQ(raw->size(), s.records());
    EXPECT_EQ(repo.generations(), 1u);
    EXPECT_EQ(repo.diskLoads(), 1u);
}

TEST_F(TraceRepoTest, PinnedRawSurvivesDecodedFill)
{
    TraceStore store(storeDir());
    TraceRepository repo(&store, 0, 0);
    auto raw = repo.raw(key(0));
    const std::vector<InstRecord> *object = raw.get();
    auto s = repo.decoded(key(0)); // decodes the resident copy
    EXPECT_EQ(repo.diskLoads(), 0u);
    EXPECT_EQ(repo.rawStats().bytes, raw->size() * sizeof(InstRecord));
    EXPECT_EQ(repo.raw(key(0)).get(), object);
    EXPECT_EQ(repo.rawStats().hits, 1u);
}

TEST_F(TraceRepoTest, TinyDecodedBudgetOverStoreRematerializesFromDisk)
{
    fillStore({0, 1});
    TraceStore store(storeDir());
    TraceRepository repo(&store, 0, 1);
    { auto s = repo.decoded(key(0)); }
    { auto s = repo.decoded(key(1)); } // evicts key(0)'s stream
    { auto s = repo.decoded(key(0)); }
    EXPECT_GE(repo.decodedStats().evictions, 1u);
    EXPECT_EQ(repo.decodes(), 3u);
    EXPECT_EQ(repo.diskLoads(), 3u);
    EXPECT_EQ(repo.generations(), 0u);
    EXPECT_EQ(repo.rawStats().bytes, 0u);
}

TEST_F(TraceRepoTest, HostileRegisterIndexInStoreReadsAsMiss)
{
    // A checksum-valid store file whose one record names register 200
    // of a 64-entry class: save() checksums whatever it is given, so
    // the file passes every check up to the record decode.
    InstRecord hostile;
    hostile.op = Opcode::ADD;
    hostile.dst = {RegClass::Int, 200};
    TraceStore store(storeDir());
    ASSERT_TRUE(store.save(key(0), {hostile}));
    EXPECT_EQ(store.load(key(0)), nullptr);
    EXPECT_EQ(store.loadDecoded(key(0)), nullptr);
    EXPECT_EQ(store.misses(), 2u);

    wire::Writer payload;
    encodeTrace({hostile}, payload);
    std::vector<InstRecord> raw;
    wire::Reader rawReader(payload.buffer());
    EXPECT_FALSE(decodeTrace(rawReader, raw));
    DecodedStream decoded;
    wire::Reader decodedReader(payload.buffer());
    EXPECT_FALSE(decodeTrace(decodedReader, decoded));

    // Both lookups regenerate the real trace instead of panicking.
    TraceRepository viaDecoded(&store, 0, 0);
    auto s = viaDecoded.decoded(key(0));
    EXPECT_GT(s.records(), 1u);
    EXPECT_EQ(viaDecoded.generations(), 1u);
    EXPECT_EQ(viaDecoded.diskLoads(), 0u);

    ASSERT_TRUE(store.save(key(0), {hostile}));
    TraceRepository viaRaw(&store, 0, 0);
    auto t = viaRaw.raw(key(0));
    EXPECT_EQ(t->size(), s.records());
    EXPECT_EQ(viaRaw.generations(), 1u);
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
