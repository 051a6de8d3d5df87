#include "trace/decoded.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vmmx
{

namespace
{

size_t
regClassIdx(RegClass c)
{
    return static_cast<size_t>(c);
}

/** Offsets of each class inside the flat ready table. */
constexpr size_t readyOffset[numRegClasses] = {0, 64, 128, 192};

static_assert(readyOffset[numRegClasses - 1] +
                  logicalTableSize[numRegClasses - 1] ==
              decodedReadySlots);

} // namespace

DecodedInst
decodeInst(const InstRecord &inst)
{
    const OpTraits &info = inst.info();

    DecodedInst d;
    d.addr = inst.addr;
    d.staticId = inst.staticId;
    d.stride = inst.stride;
    d.vl = inst.vl;
    d.rows = inst.rows();
    d.rowBytes = inst.rowBytes;
    d.region = inst.region;
    d.fu = static_cast<u8>(info.fu);
    d.latency = info.latency;
    d.clsIdx = static_cast<u8>(info.cls);
    d.mulOcc = info.latency > 4 ? info.latency : 1;
    d.transp = inst.op == Opcode::VTRANSP;

    u8 flags = 0;
    if (inst.isLoad())
        flags |= DecodedInst::kLoad;
    if (inst.isStore())
        flags |= DecodedInst::kStore;
    if (info.cls == InstClass::SCTRL) {
        flags |= DecodedInst::kBranch;
        if (inst.op == Opcode::BR)
            flags |= DecodedInst::kCondBr;
    }
    if (inst.taken)
        flags |= DecodedInst::kTaken;
    if (info.fu != FuType::None)
        flags |= DecodedInst::kTakesIq;
    if (inst.op == Opcode::VLOAD || inst.op == Opcode::VSTORE ||
        inst.op == Opcode::VLOADP || inst.op == Opcode::VSTOREP)
        flags |= DecodedInst::kVecMem;
    // Accumulating and partial-write ops read their destination too.
    if (inst.dst.valid() &&
        ((inst.dst.cls == RegClass::Acc && inst.op != Opcode::VACCCLR) ||
         inst.op == Opcode::VLOADP || inst.op == Opcode::VACCPACK))
        flags |= DecodedInst::kReadsDst;
    d.flags = flags;

    if (inst.dst.valid()) {
        d.dstCls = u8(regClassIdx(inst.dst.cls));
        vmmx_assert(inst.dst.idx < logicalTableSize[d.dstCls],
                    "logical register out of range");
        d.dstReg = u8(readyOffset[d.dstCls] + inst.dst.idx);
    }
    for (const RegId *src : {&inst.src0, &inst.src1, &inst.src2}) {
        if (!src->valid())
            continue;
        size_t cls = regClassIdx(src->cls);
        vmmx_assert(src->idx < logicalTableSize[cls],
                    "logical register out of range");
        d.srcReg[d.nSrcs] = u8(readyOffset[cls] + src->idx);
        ++d.nSrcs;
    }

    if (info.fu == FuType::Mem) {
        // Footprint [lo, hi) of the access, covering all strided rows.
        Addr lo = inst.addr;
        Addr hi = inst.addr;
        if (inst.vl > 0 && inst.stride != 0) {
            s64 span = s64(inst.stride) * (inst.rows() - 1);
            if (span < 0)
                lo = Addr(s64(lo) + span);
            else
                hi = Addr(s64(hi) + span);
        }
        hi += inst.rowBytes;
        d.lo = lo;
        d.hi = hi;
    }
    return d;
}

std::span<const DecodedInst>
decodeBlock(const std::vector<InstRecord> &trace, size_t &pos,
            std::vector<DecodedInst> &block)
{
    size_t n = std::min(block.size(), trace.size() - pos);
    for (size_t i = 0; i < n; ++i)
        block[i] = decodeInst(trace[pos + i]);
    pos += n;
    return {block.data(), n};
}

DecodedStream
decodeStream(const std::vector<InstRecord> &trace)
{
    DecodedStream s;
    s.insts.resize(trace.size());
    size_t pos = 0;
    decodeBlock(trace, pos, s.insts);
    return s;
}

} // namespace vmmx
