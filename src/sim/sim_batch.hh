/**
 * @file
 * Structure-of-arrays view of a batch of SimContexts, the state the
 * host-SIMD step kernels (sim/simd_step.hh) operate on.
 *
 * The batched runBatch() used to advance configurations context-major:
 * every context replayed a decoded block to completion before the next
 * context touched it.  The SoA restructure turns that inside out: the
 * per-config mutable timing state the inner step touches every record
 * -- the width gates, the ready table, ROB heads, issue-queue and
 * functional-unit pool slots, the stall counters -- is hoisted into
 * parallel u64 arrays indexed by configuration ("lane"), so one
 * DecodedInst advances all N configurations with vector arithmetic:
 * cycle compares, maxes and blends across lanes.
 *
 * Layout rules the kernels rely on:
 *  - every per-lane array is padded to a multiple of 8 lanes (the
 *    widest kernel) so any vector width can stream it without tail
 *    handling; pad lanes hold inert values and are never read back,
 *  - multi-slot structures (ready table, IQ, pools) are slot-major,
 *    `[slot * padded + lane]`, so one slot across all lanes is one
 *    contiguous vector load,
 *  - IQ and pool slot arrays are sized to the widest lane; slots a
 *    lane does not have hold the kInf sentinel, which no min scan can
 *    select (real cycle values stay far below it),
 *  - the IQ keeps the scalar model's compact-array semantics per lane:
 *    rows [0, occ) hold resident issue cycles in the exact order the
 *    flat-vector model would, rows [occ, rows) hold kInf.  A lane is
 *    full at occ == cap, so its rows past cap hold kInf and a min scan
 *    for full lanes can stop at the widest full lane's capacity; rows
 *    come in multiples of 4 for the kernel's four-way interleaved scan.
 *
 * The ROB and the register free lists are commit-cycle histories,
 * slot-major like the tables above, so rename reads them and commit
 * writes them without calling into any context:
 *  - ROB: row n & robMask holds the commit cycle of record n (records
 *    are counted by `instructions`, identical on every lane).  Record n
 *    on lane l needs record n - robSize[l] committed, which is row
 *    (n - robSize[l]) & robMask: exactly the entry the lane's ring
 *    would hold at its cursor.  There are at least robSize[l] rows, so
 *    the rows between were written since and none overwrote it; while
 *    n < robSize[l] the row index lands in [n, rows), a row no record
 *    has written yet, holding the 0 the ring starts with.
 *  - Free lists: one history per register class, row k & mask holding
 *    the commit cycle of the class's k-th destination, i.e. the k-th
 *    release (each destination frees its predecessor's register when
 *    it commits).  k is trace-determined, so it too is shared by every
 *    lane.  Why this reproduces RegFreeList's FIFO: with F = phys -
 *    logical free at reset and k allocations made, allocation k finds
 *    a register iff release k - F has been harvested (releases are
 *    harvested in order, and every earlier allocation succeeded, so
 *    exactly k - F are harvested when it has not).  The FIFO harvests
 *    only inside allocate(), at the cycle it was asked for or stalled
 *    to; release j's cycle exceeds every allocation cycle up to j (it
 *    commits after renaming, commits are in order), so release k - F
 *    was harvested before allocation k iff some earlier allocation of
 *    the class reached its cycle -- iff the lane's floor h (the highest
 *    allocation cycle so far) does.  Otherwise allocation k waits for
 *    it: want = H[k - F] stalls iff want > max(h, rn), and h = max(h,
 *    rn) afterwards.  For k < F the row index lands on a row not yet
 *    written (0), so the first F allocations never stall.
 *
 * What stays scalar per lane -- the data-dependent tails vectorization
 * cannot reach: the history reads above (each lane reads its own row),
 * memory-system accesses and store-window disambiguation (each lane's
 * own StoreWindow, which keeps only stores still in flight past the
 * lane's rename cycle, so a load walks a handful of entries),
 * branch-predictor updates (skipped for lanes 1..N-1 when every lane
 * has the same predictor geometry, since prediction inputs are
 * trace-determined and the tables then evolve identically), and the
 * O(1) writebacks after each vector min scan.  The memory and predictor
 * tails go through the inline helpers below, which reach into the
 * borrowed SimContexts (SimBatch is a friend).
 *
 * Statistics that are trace-determined (instruction, branch, mem-op
 * and class counts -- identical for every lane by construction) are
 * accumulated once per batch and fanned out in finish(), which writes
 * every lane's results back into its SimContext so SimContext::finish()
 * returns exactly what the serial path would.  Nothing else is written
 * back: the contexts' pipeline state is stale after a batched run.
 */

#ifndef VMMX_SIM_SIM_BATCH_HH
#define VMMX_SIM_SIM_BATCH_HH

#include <array>
#include <span>
#include <vector>

#include "sim/sim_context.hh"

namespace vmmx
{

struct SimBatch
{
    /** Sentinel for slots a lane does not have: larger than any cycle
     *  value a run can reach, far below 2^63 so the signed vector
     *  compare tricks stay exact. */
    static constexpr u64 kInf = u64(1) << 62;

    /** Lane padding: the widest kernel's vector width. */
    static constexpr size_t padLanes = 8;

    /** Hoist the (freshly reset) contexts into SoA form. */
    explicit SimBatch(std::span<SimContext *const> ctxs);

    /** Write every lane's results back into its SimContext (stats and
     *  commit frontier) so SimContext::finish() returns the same
     *  RunStats the serial path would. */
    void finish();

    size_t lanes = 0;  ///< live configurations
    size_t padded = 0; ///< lanes rounded up to a multiple of padLanes

    std::vector<SimContext *> ctx;

    // ---- per-lane parameters (u64 so vector ops load them directly)
    std::vector<u64> gateW;      ///< way: fetch = rename = commit width
    std::vector<u64> frontDepth;
    std::vector<u64> penalty;    ///< mispredict redirect cycles
    std::vector<u64> lanesPerFu; ///< for the vl > 16 occupancy divide

    // ---- per-lane pipeline state (WidthGate cur/used triples) ----
    std::vector<u64> fCur, fUsed; ///< fetch gate
    std::vector<u64> rCur, rUsed; ///< rename gate
    std::vector<u64> cCur, cUsed; ///< commit gate
    std::vector<u64> redirect;    ///< fetchRedirect_
    std::vector<u64> lastCommit;

    /** Ready table, slot-major: decodedReadySlots rows x padded. */
    std::vector<u64> regReady;
    /** ceil(vl / lanesPerFu) table, slot-major: 17 rows x padded. */
    std::vector<u64> lanesOcc;

    // ---- issue queue (slot-major, compact per lane) ----
    /** IQ slot rows are allocated in multiples of 4 so the interleaved
     *  min scan needs no remainder loop; the extra rows hold kInf. */
    static size_t iqRowsFor(size_t capacity)
    {
        return (capacity + 3) & ~size_t(3);
    }

    size_t iqRows = 0;      ///< iqRowsFor(widest lane's capacity)
    std::vector<u64> iqCap; ///< per-lane capacity
    std::vector<u64> iqOcc; ///< per-lane residency
    std::vector<u64> iqSlots;

    // ---- functional-unit pools (slot-major) ----
    struct Pool
    {
        size_t rows = 0; ///< widest lane's unit count
        std::vector<u64> slots;
    };
    Pool intPool, fpPool, simdPool, simdIssuePool;

    // ---- ROB commit history (slot-major) ----
    size_t robMask = 0;      ///< rows - 1; rows = pow2 >= widest robSize
    std::vector<u64> robSize; ///< per-lane ROB entries
    std::vector<u64> robHist;

    // ---- register free-list commit histories, one per class ----
    struct RegHistory
    {
        size_t mask = 0;         ///< rows - 1; rows = pow2 >= widest free
        u64 count = 0;           ///< destinations renamed so far (k)
        std::vector<u64> free;   ///< per lane F = phys - logical
        std::vector<u64> floor;  ///< per lane h, highest allocation cycle
        std::vector<u64> hist;   ///< release cycles, slot-major
    };
    std::array<RegHistory, numRegClasses> regHist;

    // ---- per-lane statistics ----
    std::vector<u64> stallRob, stallIq, stallRegs, mispredicts;
    std::vector<u64> scalarCyc, vectorCyc;

    // ---- trace-determined counters (identical for every lane) ----
    u64 instructions = 0;
    u64 branches = 0;
    u64 memOps = 0;
    std::array<u64, numInstClasses> instByClass{};
    /** Every lane has the same predictor geometry, so predicting on
     *  lane 0 stands for all of them (inputs are trace-determined). */
    bool bpredShared = false;

    // ---- per-record scratch, padded like the state arrays ----
    /** robFree and regFree hold history reads, which fill live lanes
     *  only; their pad lanes stay 0. */
    std::vector<u64> rn, ready, issue, done, cc, occ, robFree, regFree, t0,
        t1;

    // ---- scalar sub-phases reaching into the borrowed contexts ----

    bool
    predictLane(size_t l, u32 staticId, bool taken)
    {
        return ctx[l]->bpred_.predict(staticId, taken);
    }

    /** The whole Mem-FU case for one lane: disambiguation, the cache
     *  access, store-window push.  Reads ready[l] and the post-gate
     *  rn[l] (the wait floor is rn + 1), writes issue[l] and done[l]. */
    void
    memAccess(size_t l, const DecodedInst &inst)
    {
        SimContext &sc = *ctx[l];
        Cycle is = ready[l];
        if (inst.has(DecodedInst::kLoad))
            is = sc.stores_.wait(inst.lo, inst.hi, is, rn[l] + 1);
        bool isWrite = inst.has(DecodedInst::kStore);
        Cycle dn;
        if (inst.has(DecodedInst::kVecMem)) {
            dn = sc.mem_->vectorAccess(inst.addr, inst.rowBytes,
                                       inst.stride, inst.rows, isWrite,
                                       is);
        } else {
            dn = sc.mem_->scalarAccess(inst.addr, inst.rowBytes, isWrite,
                                       is);
        }
        if (isWrite)
            sc.stores_.push(inst.lo, inst.hi, dn);
        issue[l] = is;
        done[l] = dn;
    }
};

} // namespace vmmx

#endif // VMMX_SIM_SIM_BATCH_HH
