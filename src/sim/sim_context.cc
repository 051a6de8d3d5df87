#include "sim/sim_context.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "sim/sim_batch.hh"
#include "sim/simd_dispatch.hh"

namespace vmmx
{

SimContext::SimContext(const CoreParams &params, MemorySystem *mem)
    : params_(params),
      mem_(mem),
      fetchGate_(params.way),
      renameGate_(params.way),
      commitGate_(params.way),
      iq_(params.iqSize),
      intPool_(params.intFus),
      fpPool_(params.fpFus),
      simdPool_(params.simdFus),
      simdIssuePool_(params.simdIssue),
      bpred_(params.bpredEntries),
      robRing_(params.robSize, 0),
      stores_(params.storeWindow)
{
    vmmx_assert(mem_ != nullptr, "simulation context needs a memory system");

    freeLists_.reserve(numRegClasses);
    freeLists_.emplace_back(params.physInt, params.logicalInt);
    freeLists_.emplace_back(params.physFp, params.logicalFp);
    freeLists_.emplace_back(params.physSimd, params.logicalSimd);
    freeLists_.emplace_back(params.physAcc, params.logicalAcc);

    static_assert(readySlots == decodedReadySlots,
                  "ready table must match the decoded slot numbering");
    regReady_.fill(0);

    vmmx_assert(params.lanesPerFu > 0, "lanesPerFu must be positive");
    lanesOcc_[0] = 1;
    for (u16 vl = 1; vl <= 16; ++vl)
        lanesOcc_[vl] = u8((vl + params.lanesPerFu - 1) / params.lanesPerFu);
}

void
SimContext::reset()
{
    stats_ = RunStats{};
    fetchGate_.reset();
    renameGate_.reset();
    commitGate_.reset();
    iq_.reset();
    intPool_.reset();
    fpPool_.reset();
    simdPool_.reset();
    simdIssuePool_.reset();
    bpred_.reset();
    for (auto &fl : freeLists_)
        fl.reset();
    regReady_.fill(0);
    std::fill(robRing_.begin(), robRing_.end(), 0);
    stores_.reset();
    robPos_ = 0;
    lastCommit_ = 0;
    fetchRedirect_ = 0;
}

void
SimContext::step(const DecodedInst &inst)
{
    // ---- fetch ----
    Cycle fetch = fetchGate_.pass(fetchRedirect_);

    // ---- rename / dispatch ----
    Cycle rn = fetch + params_.frontDepth;

    // ROB space: the instruction robSize places earlier must have
    // committed.
    Cycle robFree = robRing_[robPos_];
    if (robFree + 1 > rn) {
        rn = robFree + 1;
        ++stats_.renameStallRob;
    }

    // Issue-queue space (VSETVL folds into rename and takes no entry).
    bool takesIq = inst.has(DecodedInst::kTakesIq);
    if (takesIq) {
        Cycle iqReady = iq_.waitForSpace(rn);
        if (iqReady > rn) {
            rn = iqReady;
            ++stats_.renameStallIq;
        }
    }

    // Physical destination register.
    if (inst.dstCls != DecodedInst::noDst) {
        RegFreeList &fl = freeLists_[inst.dstCls];
        Cycle regReady = fl.allocate(rn);
        if (regReady > rn) {
            rn = regReady;
            ++stats_.renameStallRegs;
        }
    }

    rn = renameGate_.pass(rn);

    // ---- operand readiness ----
    Cycle ready = rn + 1;
    for (unsigned s = 0; s < inst.nSrcs; ++s)
        ready = std::max(ready, regReady_[inst.srcReg[s]]);
    if (inst.has(DecodedInst::kReadsDst))
        ready = std::max(ready, regReady_[inst.dstReg]);

    // ---- issue and execute ----
    Cycle done;
    Cycle issue = ready;
    switch (static_cast<FuType>(inst.fu)) {
      case FuType::IntAlu:
        issue = intPool_.acquire(ready);
        done = issue + inst.latency;
        break;
      case FuType::IntMul:
        issue = intPool_.acquire(ready, inst.mulOcc);
        done = issue + inst.latency;
        break;
      case FuType::Fp:
        issue = fpPool_.acquire(ready);
        done = issue + inst.latency;
        break;
      case FuType::Simd: {
        // Vector instructions stream vl rows through lanesPerFu lanes.
        Cycle occ = 1;
        if (inst.vl > 0) {
            if (inst.transp)
                occ = inst.vl; // lane-exchange network
            else if (inst.vl <= 16)
                occ = lanesOcc_[inst.vl];
            else
                occ = (inst.vl + params_.lanesPerFu - 1) / params_.lanesPerFu;
        }
        issue = simdIssuePool_.acquire(ready);
        issue = simdPool_.acquire(issue, occ);
        done = issue + occ - 1 + inst.latency;
        break;
      }
      case FuType::Mem: {
        issue = ready;
        if (inst.has(DecodedInst::kLoad)) {
            // Wait for older overlapping stores still in flight.
            issue = stores_.wait(inst.lo, inst.hi, issue, rn + 1);
        }
        bool isWrite = inst.has(DecodedInst::kStore);
        if (inst.has(DecodedInst::kVecMem)) {
            done = mem_->vectorAccess(inst.addr, inst.rowBytes, inst.stride,
                                      inst.rows, isWrite, issue);
        } else {
            done = mem_->scalarAccess(inst.addr, inst.rowBytes, isWrite,
                                      issue);
        }
        if (isWrite)
            stores_.push(inst.lo, inst.hi, done);
        ++stats_.memOps;
        break;
      }
      case FuType::None:
        issue = rn + 1;
        done = issue;
        break;
      default:
        panic("unknown FU type");
    }

    if (takesIq)
        iq_.insert(issue);

    // ---- writeback ----
    if (inst.dstCls != DecodedInst::noDst)
        regReady_[inst.dstReg] = done;

    // ---- branch resolution ----
    if (inst.has(DecodedInst::kBranch)) {
        ++stats_.branches;
        bool correct = inst.has(DecodedInst::kCondBr)
                           ? bpred_.predict(inst.staticId,
                                            inst.has(DecodedInst::kTaken))
                           : true; // J/CALL/RET: target known (RAS)
        if (!correct) {
            ++stats_.mispredicts;
            fetchRedirect_ =
                std::max(fetchRedirect_, done + params_.mispredictPenalty);
        }
    }

    // ---- commit (in order) ----
    Cycle cc = std::max(done + 1, lastCommit_);
    cc = commitGate_.pass(cc);

    // Cycle attribution: the interval (lastCommit_, cc] belongs to the
    // region of the committing instruction.
    Cycle delta = cc > lastCommit_ ? cc - lastCommit_ : 0;
    if (inst.region != 0)
        stats_.vectorCycles += delta;
    else
        stats_.scalarCycles += delta;
    lastCommit_ = cc;

    // Free the previous mapping of the destination's logical register.
    if (inst.dstCls != DecodedInst::noDst)
        freeLists_[inst.dstCls].release(cc);

    robRing_[robPos_] = cc;
    if (++robPos_ == robRing_.size())
        robPos_ = 0;

    ++stats_.instructions;
    ++stats_.instByClass[inst.clsIdx];
}

RunStats
SimContext::finish()
{
    stats_.cycles = lastCommit_;
    return stats_;
}

void
runBatch(const BlockSource &next, std::span<SimContext *const> ctxs)
{
    for (SimContext *ctx : ctxs) {
        vmmx_assert(ctx != nullptr, "null context in batch");
        ctx->reset();
    }
    if (ctxs.empty())
        return;

    if (ctxs.size() == 1) {
        // Single configuration: the serial fused step (the runTrace
        // path and the oracle every batched path is diffed against).
        SimContext &ctx = *ctxs[0];
        for (std::span<const DecodedInst> b = next(); !b.empty(); b = next())
            for (const DecodedInst &inst : b)
                ctx.step(inst);
        return;
    }

    // Batched: every block advances all contexts record-major in SoA
    // form -- one DecodedInst drives all configurations as host-SIMD
    // lanes (sim/simd_step.hh), with the kernel width picked once per
    // process by the cpuid dispatch.  The step order per context is
    // unchanged, so results stay bit-identical to the serial path.
    SimBatch batch(ctxs);
    simd::StepFn step = simd::stepFn(simd::activePath());
    for (std::span<const DecodedInst> b = next(); !b.empty(); b = next())
        step(batch, b.data(), b.size());
    batch.finish();
}

void
runBatch(const std::vector<InstRecord> &trace,
         std::span<SimContext *const> ctxs)
{
    std::vector<DecodedInst> block(std::min(replayBlock, trace.size()));
    size_t pos = 0;
    runBatch([&] { return decodeBlock(trace, pos, block); }, ctxs);
}

void
runBatch(const DecodedStream &stream, std::span<SimContext *const> ctxs)
{
    // Already decoded and resident: the whole stream is one block.
    bool done = false;
    runBatch(
        [&] {
            std::span<const DecodedInst> b(stream.insts);
            return std::exchange(done, true) ? b.first(0) : b;
        },
        ctxs);
}

} // namespace vmmx
