#include "sim/sim_batch.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vmmx
{

namespace
{

/** History rows for a per-lane read distance: the next power of two
 *  at or above the widest lane's distance. */
size_t
historyRows(size_t lanes, const std::vector<u64> &dist)
{
    u64 widest = 1;
    for (size_t l = 0; l < lanes; ++l)
        widest = std::max(widest, dist[l]);
    return std::bit_ceil(widest);
}

/** Registers of class @p cls free at reset, in the order SimContext
 *  builds its free lists (Int, Fp, Simd, Acc). */
u64
freeAtReset(const CoreParams &p, size_t cls)
{
    const unsigned phys[numRegClasses] = {p.physInt, p.physFp, p.physSimd,
                                          p.physAcc};
    const unsigned logical[numRegClasses] = {p.logicalInt, p.logicalFp,
                                             p.logicalSimd, p.logicalAcc};
    vmmx_assert(phys[cls] > logical[cls],
                "physical registers must exceed logical registers");
    return phys[cls] - logical[cls];
}

} // namespace

SimBatch::SimBatch(std::span<SimContext *const> ctxs)
{
    lanes = ctxs.size();
    padded = (lanes + padLanes - 1) / padLanes * padLanes;
    ctx.assign(ctxs.begin(), ctxs.end());

    auto zeroed = [&](std::vector<u64> &v) { v.assign(padded, 0); };
    zeroed(gateW);
    zeroed(frontDepth);
    zeroed(penalty);
    zeroed(lanesPerFu);
    zeroed(fCur);
    zeroed(fUsed);
    zeroed(rCur);
    zeroed(rUsed);
    zeroed(cCur);
    zeroed(cUsed);
    zeroed(redirect);
    zeroed(lastCommit);
    zeroed(iqCap);
    zeroed(iqOcc);
    zeroed(robSize);
    zeroed(stallRob);
    zeroed(stallIq);
    zeroed(stallRegs);
    zeroed(mispredicts);
    zeroed(scalarCyc);
    zeroed(vectorCyc);
    zeroed(rn);
    zeroed(ready);
    zeroed(issue);
    zeroed(done);
    zeroed(cc);
    zeroed(occ);
    zeroed(robFree);
    zeroed(regFree);
    zeroed(t0);
    zeroed(t1);

    regReady.assign(decodedReadySlots * padded, 0);
    lanesOcc.assign(17 * padded, 0);

    size_t maxIq = 0, maxInt = 0, maxFp = 0, maxSimd = 0, maxIssue = 0;
    for (size_t l = 0; l < lanes; ++l) {
        const CoreParams &p = ctx[l]->params();
        maxIq = std::max<size_t>(maxIq, p.iqSize);
        maxInt = std::max<size_t>(maxInt, p.intFus);
        maxFp = std::max<size_t>(maxFp, p.fpFus);
        maxSimd = std::max<size_t>(maxSimd, p.simdFus);
        maxIssue = std::max<size_t>(maxIssue, p.simdIssue);
    }
    iqRows = iqRowsFor(maxIq);
    iqSlots.assign(iqRows * padded, kInf);

    auto initPool = [&](Pool &pool, size_t rows, auto slotsOf) {
        pool.rows = rows;
        pool.slots.assign(rows * padded, kInf);
        // A lane's real slots start free at cycle 0; slots it does not
        // have keep the sentinel so no min scan ever selects them.
        for (size_t l = 0; l < lanes; ++l) {
            size_t n = slotsOf(ctx[l]->params());
            for (size_t s = 0; s < n; ++s)
                pool.slots[s * padded + l] = 0;
        }
    };
    initPool(intPool, maxInt, [](const CoreParams &p) { return p.intFus; });
    initPool(fpPool, maxFp, [](const CoreParams &p) { return p.fpFus; });
    initPool(simdPool, maxSimd,
             [](const CoreParams &p) { return p.simdFus; });
    initPool(simdIssuePool, maxIssue,
             [](const CoreParams &p) { return p.simdIssue; });

    bpredShared = true;
    for (size_t l = 0; l < lanes; ++l) {
        SimContext &sc = *ctx[l];
        const CoreParams &p = sc.params();
        gateW[l] = p.way;
        frontDepth[l] = p.frontDepth;
        penalty[l] = p.mispredictPenalty;
        lanesPerFu[l] = p.lanesPerFu;
        iqCap[l] = p.iqSize;
        for (size_t vl = 0; vl < sc.lanesOcc_.size(); ++vl)
            lanesOcc[vl * padded + l] = sc.lanesOcc_[vl];
        robSize[l] = p.robSize;
        if (p.bpredEntries != ctx[0]->params().bpredEntries)
            bpredShared = false;
    }
    robMask = historyRows(lanes, robSize) - 1;
    robHist.assign((robMask + 1) * padded, 0);

    // freeAtReset() rules out F == 0, the only way the FIFO model's
    // "rename deadlock" (no free register and none in flight) can occur.
    for (size_t cls = 0; cls < numRegClasses; ++cls) {
        RegHistory &rh = regHist[cls];
        rh.free.assign(padded, 0);
        rh.floor.assign(padded, 0);
        for (size_t l = 0; l < lanes; ++l)
            rh.free[l] = freeAtReset(ctx[l]->params(), cls);
        rh.mask = historyRows(lanes, rh.free) - 1;
        rh.hist.assign((rh.mask + 1) * padded, 0);
    }

    // Pad lanes ride along in every vector op but are never read back;
    // give them a benign gate width so their state stays small.
    for (size_t l = lanes; l < padded; ++l)
        gateW[l] = 1;
}

void
SimBatch::finish()
{
    for (size_t l = 0; l < lanes; ++l) {
        SimContext &sc = *ctx[l];
        sc.lastCommit_ = lastCommit[l];
        RunStats &st = sc.stats_;
        st.instructions = instructions;
        st.branches = branches;
        st.memOps = memOps;
        st.instByClass = instByClass;
        st.mispredicts = mispredicts[l];
        st.renameStallRob = stallRob[l];
        st.renameStallIq = stallIq[l];
        st.renameStallRegs = stallRegs[l];
        st.scalarCycles = scalarCyc[l];
        st.vectorCycles = vectorCyc[l];
    }
}

} // namespace vmmx
