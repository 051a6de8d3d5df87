/**
 * @file
 * Timing-core property tests: width limits, dependency chains, register
 * pressure, issue-queue and ROB stalls, branch prediction effects, and
 * vector lane occupancy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "harness/runner.hh"
#include "common/rng.hh"
#include "sim/bpred.hh"
#include "sim/resources.hh"
#include "trace/program.hh"
#include "trace/vmmx.hh"

namespace vmmx
{
namespace
{

std::vector<InstRecord>
independentAlus(unsigned n)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg r[8];
    for (auto &x : r)
        x = p.sreg();
    for (unsigned i = 0; i < n; ++i)
        p.li(r[i % 8], i);
    return p.takeTrace();
}

TEST(Core, IpcBoundedByWidth)
{
    auto trace = independentAlus(4000);
    for (unsigned way : {2u, 4u, 8u}) {
        auto r = runTrace(makeMachine(SimdKind::MMX64, way), trace);
        EXPECT_LE(r.core.ipc(), double(way) + 1e-9);
        // Independent work should come close to the width limit.
        EXPECT_GT(r.core.ipc(), 0.8 * way);
    }
}

TEST(Core, DependencyChainSerializes)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    p.li(a, 0);
    for (int i = 0; i < 2000; ++i)
        p.addi(a, a, 1);
    auto r = runTrace(makeMachine(SimdKind::MMX64, 8), p.trace());
    // A serial chain of 1-cycle adds cannot beat 1 IPC.
    EXPECT_LE(r.core.ipc(), 1.05);
    EXPECT_EQ(p.val(a), 2000u);
}

TEST(Core, MulLatencyLongerThanAdd)
{
    MemImage mem(1 << 16);
    Program pa(mem, SimdKind::MMX64);
    SReg a = pa.sreg();
    pa.li(a, 1);
    for (int i = 0; i < 500; ++i)
        pa.addi(a, a, 1);
    Program pm(mem, SimdKind::MMX64);
    SReg b = pm.sreg();
    pm.li(b, 1);
    for (int i = 0; i < 500; ++i)
        pm.muli(b, b, 1);
    auto machine = makeMachine(SimdKind::MMX64, 4);
    auto ra = runTrace(machine, pa.trace());
    auto rm = runTrace(machine, pm.trace());
    EXPECT_GT(rm.core.cycles, 2 * ra.core.cycles);
}

TEST(Core, PredictableBranchesCostLittle)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    p.li(a, 0);
    p.forLoop(2000, [&](SReg) { p.addi(a, a, 1); });
    auto r = runTrace(makeMachine(SimdKind::MMX64, 4), p.trace());
    EXPECT_GT(r.core.branches, 1900u);
    // The loop-closing branch is learned after a few iterations.
    EXPECT_LT(double(r.core.mispredicts) / double(r.core.branches), 0.05);
}

TEST(Core, RandomBranchesMispredict)
{
    MemImage mem(1 << 16);
    Rng rng(3);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    SReg b = p.sreg();
    p.li(a, 0);
    p.li(b, 0);
    u64 taken = 0;
    for (int i = 0; i < 2000; ++i) {
        bool t = rng.below(2) == 0;
        taken += t;
        p.branch(t, a, b);
    }
    auto slow = runTrace(makeMachine(SimdKind::MMX64, 4), p.trace());
    EXPECT_GT(double(slow.core.mispredicts) / double(slow.core.branches),
              0.25);
}

TEST(Core, VectorLengthDrivesOccupancy)
{
    MemImage mem(1 << 20);
    Addr buf = mem.alloc(4096);
    auto makeTrace = [&](u16 vl) {
        Program p(mem, SimdKind::VMMX128);
        Vmmx v(p);
        SReg base = p.sreg();
        p.li(base, buf);
        v.setvl(vl);
        VR x = p.vreg();
        VR y = p.vreg();
        VR d[6];
        for (auto &r : d)
            r = p.vreg();
        v.loadU(x, base, 0);
        v.loadU(y, base, 0);
        // Long independent sequence of vector adds (throughput-bound).
        for (int i = 0; i < 400; ++i)
            v.padd(d[i % 6], x, y, ElemWidth::B8);
        return p.takeTrace();
    };
    auto machine = makeMachine(SimdKind::VMMX128, 2);
    auto shortVl = runTrace(machine, makeTrace(4));
    auto longVl = runTrace(machine, makeTrace(16));
    // VL=16 occupies the 4-lane FU 4x longer than VL=4; the 2-way
    // VMMX machine's tiny rename headroom (20 physical vs 16 logical
    // registers, Table III) adds a constant per-op cost that compresses
    // the observable ratio below 4.
    EXPECT_GT(double(longVl.core.cycles),
              2.0 * double(shortVl.core.cycles));
}

TEST(Core, RegisterPressureStallsRename)
{
    // Many live SIMD registers with long-latency producers: the small
    // VMMX free list (20 phys - 16 logical at 2-way) must throttle.
    MemImage mem(1 << 20);
    Addr buf = mem.alloc(8192);
    Program p(mem, SimdKind::VMMX128);
    Vmmx v(p);
    SReg base = p.sreg();
    p.li(base, buf);
    v.setvl(16);
    VR r[8];
    for (auto &x : r)
        x = p.vreg();
    for (int i = 0; i < 64; ++i)
        v.loadU(r[i % 8], base, (i % 4) * 256);
    auto res = runTrace(makeMachine(SimdKind::VMMX128, 2), p.trace());
    EXPECT_GT(res.core.renameStallRegs, 0u);
}

TEST(Core, StoreToLoadDependencyHonored)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(64);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    SReg addr = p.sreg();
    p.li(addr, buf);
    p.li(a, 7);
    p.store(a, addr, 0, 8);
    p.load(a, addr, 0, 8);
    EXPECT_EQ(p.val(a), 7u);
    auto r = runTrace(makeMachine(SimdKind::MMX64, 4), p.trace());
    EXPECT_GT(r.core.cycles, 4u);
}

TEST(Resources, WidthGateLimitsPerCycle)
{
    WidthGate g(2);
    EXPECT_EQ(g.pass(5), 5u);
    EXPECT_EQ(g.pass(5), 5u);
    EXPECT_EQ(g.pass(5), 6u);
    EXPECT_EQ(g.pass(5), 6u);
    EXPECT_EQ(g.pass(9), 9u);
}

TEST(Resources, SlotPoolOccupancy)
{
    SlotPool pool(2);
    EXPECT_EQ(pool.acquire(0, 4), 0u);
    EXPECT_EQ(pool.acquire(0, 4), 0u);
    EXPECT_EQ(pool.acquire(0, 4), 4u);
    EXPECT_EQ(pool.acquire(10, 1), 10u);
}

TEST(Resources, IssueQueueBlocksWhenFull)
{
    IssueQueueModel iq(2);
    EXPECT_EQ(iq.waitForSpace(0), 0u);
    iq.insert(100);
    EXPECT_EQ(iq.waitForSpace(1), 1u);
    iq.insert(50);
    // Full: next rename waits for the earliest leaver (cycle 50).
    EXPECT_EQ(iq.waitForSpace(2), 51u);
}

TEST(Resources, RegFreeListReleases)
{
    RegFreeList fl(6, 4); // two free
    EXPECT_EQ(fl.allocate(0), 0u);
    EXPECT_EQ(fl.allocate(0), 0u);
    fl.release(20);
    EXPECT_EQ(fl.allocate(5), 20u); // must wait for the release
}

/** The SoA batch's free-list rule for one lane, transcribed scalar:
 *  a history of release cycles indexed by the class's destination
 *  count k (@p rows at least @p free, as wide as the widest lane of a
 *  batch would make it), plus the floor h of the highest allocation
 *  cycle so far.  Allocation k waits for release k - free unless the
 *  floor or the request already reaches it. */
class FreeListHistoryRef
{
  public:
    FreeListHistoryRef(u64 free, size_t rows)
        : free_(free), hist_(rows, 0), mask_(rows - 1)
    {}

    Cycle allocate(Cycle rn, bool &stalled)
    {
        Cycle want = hist_[(count_ - free_) & mask_];
        stalled = want > std::max(floor_, rn);
        if (stalled)
            rn = want;
        floor_ = std::max(floor_, rn);
        return rn;
    }

    void release(Cycle cc) { hist_[count_++ & mask_] = cc; }

  private:
    u64 free_;
    std::vector<Cycle> hist_;
    u64 mask_;
    u64 count_ = 0;
    Cycle floor_ = 0;
};

// The history rule against the FIFO free list it replaces in the batch
// kernel: seeded sequences where request cycles move up and down (fetch
// is not back-pressured by register stalls, so a later rename can ask
// below an earlier allocation) and commit cycles never decrease and
// follow their own allocation, as the timing core guarantees.  Every
// allocation cycle and the stall count must agree.
TEST(Resources, FreeListHistoryMatchesFifo)
{
    u64 stallsSeen = 0;
    for (u64 free = 1; free <= 40; ++free) {
        for (size_t widen : {size_t(1), size_t(4)}) {
            for (u64 seed = 1; seed <= 8; ++seed) {
                Rng rng(seed * 0x9e3779b97f4a7c15ull + free);
                RegFreeList fifo(unsigned(32 + free), 32);
                FreeListHistoryRef hist(free,
                                        std::bit_ceil(free) * widen);
                u64 fifoStalls = 0, histStalls = 0;
                Cycle base = 0, lastCommit = 0;
                for (int op = 0; op < 3000; ++op) {
                    base += rng.below(3);
                    Cycle rn = base + rng.below(40);
                    Cycle a = fifo.allocate(rn);
                    fifoStalls += a > rn;
                    bool stalled = false;
                    ASSERT_EQ(hist.allocate(rn, stalled), a)
                        << "free " << free << " seed " << seed << " op "
                        << op;
                    histStalls += stalled;
                    lastCommit =
                        std::max(lastCommit, a + 1 + rng.below(60));
                    fifo.release(lastCommit);
                    hist.release(lastCommit);
                }
                EXPECT_EQ(histStalls, fifoStalls)
                    << "free " << free << " seed " << seed;
                stallsSeen += fifoStalls;
            }
        }
    }
    EXPECT_GT(stallsSeen, 0u);
}

// The batch's ROB history against the per-context ring it replaces:
// record n reads row (n - robSize) & mask of a power-of-two history as
// wide as the batch's widest ROB, which must be the commit cycle the
// ring holds at its cursor -- 0 until robSize records have committed.
TEST(Resources, RobHistoryMatchesRing)
{
    for (size_t robSize : {1u, 3u, 16u, 24u, 48u, 100u}) {
        for (size_t rows : {std::bit_ceil(robSize), size_t(128)}) {
            Rng rng(robSize * 131 + rows);
            std::vector<Cycle> ring(robSize, 0);
            size_t pos = 0;
            std::vector<Cycle> hist(rows, 0);
            Cycle cc = 0;
            for (u64 n = 0; n < 2000; ++n) {
                ASSERT_EQ(hist[(n - robSize) & (rows - 1)], ring[pos])
                    << "rob " << robSize << " rows " << rows << " n "
                    << n;
                cc += rng.below(4);
                hist[n & (rows - 1)] = cc;
                ring[pos] = cc;
                if (++pos == robSize)
                    pos = 0;
            }
        }
    }
}

/** The store window as it stood before StoreWindow: a fixed ring of
 *  the last @p window stores plus conservative interval and completion
 *  bounds that let a load skip the walk.  Kept as the reference the
 *  pruned model must match wait for wait. */
class RingStoreWindowRef
{
  public:
    explicit RingStoreWindowRef(unsigned window) : window_(window) {}

    void push(Addr lo, Addr hi, Cycle done)
    {
        if (window_ == 0)
            return;
        if (stores_.size() < window_) {
            stores_.push_back({lo, hi, done});
        } else {
            stores_[head_] = {lo, hi, done};
            if (++head_ == stores_.size())
                head_ = 0;
        }
        maxDone_ = std::max(maxDone_, done);
        loMin_ = std::min(loMin_, lo);
        hiMax_ = std::max(hiMax_, hi);
    }

    Cycle wait(Addr lo, Addr hi, Cycle issue)
    {
        if (stores_.empty() || issue >= maxDone_ || hi <= loMin_ ||
            lo >= hiMax_)
            return issue;
        Cycle maxDone = 0;
        Addr loMin = ~Addr(0);
        Addr hiMax = 0;
        for (const Store &st : stores_) {
            if (st.done > issue && st.lo < hi && lo < st.hi)
                issue = st.done;
            maxDone = std::max(maxDone, st.done);
            loMin = std::min(loMin, st.lo);
            hiMax = std::max(hiMax, st.hi);
        }
        maxDone_ = maxDone;
        loMin_ = loMin;
        hiMax_ = hiMax;
        return issue;
    }

  private:
    struct Store
    {
        Addr lo, hi;
        Cycle done;
    };
    unsigned window_;
    std::vector<Store> stores_;
    size_t head_ = 0;
    Cycle maxDone_ = 0;
    Addr loMin_ = ~Addr(0);
    Addr hiMax_ = 0;
};

TEST(Resources, StoreWindowWaitsForOverlappingInFlightStores)
{
    StoreWindow w(2);
    w.push(0, 8, 30);
    w.push(16, 24, 40);
    EXPECT_EQ(w.wait(4, 12, 10, 10), 30u);  // overlaps the first only
    EXPECT_EQ(w.wait(8, 16, 10, 10), 10u);  // touches neither
    EXPECT_EQ(w.wait(0, 32, 35, 11), 40u);  // the first is done by 35
    w.push(32, 40, 50);                     // the first leaves the window
    EXPECT_EQ(w.wait(0, 8, 12, 12), 12u);
}

// The pruned window against the ring-plus-bounds reference: seeded
// random pushes and waits over overlapping and disjoint footprints,
// with wait floors that never decrease and issue cycles at or above
// them, as the timing core guarantees.  Every wait cycle must agree.
TEST(Resources, StoreWindowMatchesRingReference)
{
    for (unsigned window : {0u, 1u, 3u, 64u}) {
        for (u64 seed = 1; seed <= 20; ++seed) {
            Rng rng(seed * 0x9e3779b97f4a7c15ull + window);
            StoreWindow model(window);
            RingStoreWindowRef ref(window);
            // Small address spans overlap often; wide ones rarely.
            const Addr span = seed % 2 ? 64 : 4096;
            Cycle floor = 0;
            for (int op = 0; op < 4000; ++op) {
                Addr lo = rng.below(span);
                Addr hi = lo + 1 + rng.below(16);
                floor += rng.below(3);
                if (rng.below(3) == 0) {
                    Cycle done = floor + rng.below(40);
                    model.push(lo, hi, done);
                    ref.push(lo, hi, done);
                } else {
                    Cycle issue = floor + rng.below(20);
                    ASSERT_EQ(model.wait(lo, hi, issue, floor),
                              ref.wait(lo, hi, issue))
                        << "window " << window << " seed " << seed
                        << " op " << op;
                }
            }
        }
    }
}

TEST(Bpred, LearnsBiasedBranch)
{
    BranchPredictor bp(1024);
    u64 wrong = 0;
    for (int i = 0; i < 1000; ++i)
        wrong += !bp.predict(42, true);
    EXPECT_LT(wrong, 5u);
}

} // namespace
} // namespace vmmx
