#include "trace/trace_io.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "trace/decoded.hh"

namespace vmmx
{

// ---- codec lockstep guards ----------------------------------------------
// Mirror structs restating every field the trace codecs serialize: a
// field added to InstRecord or TraceKey without extending
// TraceEncoder::add()/decodeTrace() or serialize()/deserialize() (and the
// mirror) fails to compile here instead of silently dropping data from
// every stored trace.  tools/vmmx_lint enforces that each codec in this
// file keeps a guard.
namespace
{

struct RegIdMirror
{
    RegClass cls;
    u8 idx;
};
static_assert(sizeof(RegId) == sizeof(RegIdMirror),
              "RegId changed: update packCls()/unpackCls(), the per-record "
              "operand bytes, and this mirror");

struct InstRecordMirror
{
    Opcode op;
    ElemWidth ew;
    RegId dst, src0, src1, src2;
    Addr addr;
    u16 rowBytes;
    s32 stride;
    u16 vl;
    bool taken;
    u32 staticId;
    u16 region;
};
static_assert(sizeof(InstRecord) == sizeof(InstRecordMirror),
              "InstRecord changed: update TraceEncoder::add()/decodeTrace(), "
              "the flags byte, and this mirror in lockstep");

struct TraceKeyMirror
{
    bool isApp;
    std::string name;
    SimdKind kind;
    u32 imageBytes;
    u64 seed;
};
static_assert(sizeof(TraceKey) == sizeof(TraceKeyMirror),
              "TraceKey changed: update serialize()/deserialize(), "
              "describe(), TraceStore::path(), and this mirror");

} // namespace

namespace
{

// Per-record flags byte.
constexpr u8 flagTaken = 1u << 0;
constexpr u8 flagEwShift = 1;          // bits 1..2: ElemWidth
constexpr u8 flagEwMask = 3u << flagEwShift;
constexpr u8 flagHasMem = 1u << 3;     // addr/rowBytes/stride block present
constexpr u8 flagHasVl = 1u << 4;      // vl != 0
constexpr u8 flagNewRegion = 1u << 5;  // region differs from previous record

u8
packCls(RegClass a, RegClass b)
{
    return u8(static_cast<u8>(a) | (static_cast<u8>(b) << 4));
}

bool
unpackCls(u8 packed, RegClass &a, RegClass &b)
{
    u8 lo = packed & 0x0f, hi = packed >> 4;
    if (lo > static_cast<u8>(RegClass::None) ||
        hi > static_cast<u8>(RegClass::None))
        return false;
    a = static_cast<RegClass>(lo);
    b = static_cast<RegClass>(hi);
    return true;
}

} // namespace

std::string
TraceKey::describe() const
{
    std::ostringstream os;
    os << (isApp ? "app:" : "kernel:") << name << "/" << vmmx::name(kind)
       << "/" << imageBytes << "B/seed=" << std::hex << seed;
    return os.str();
}

TraceEncoder::TraceEncoder(wire::Writer &w, size_t countRoom)
    : w_(w), room_(countRoom)
{
    vmmx_assert(countRoom >= 1 && countRoom <= maxCountBytes,
                "a count varint takes 1 to 10 bytes");
    static constexpr u8 zeros[maxCountBytes] = {};
    w_.bytes(zeros, room_);
    records_ = w_.size();
}

void
TraceEncoder::add(const InstRecord &i)
{
    const bool hasMem = i.addr != 0 || i.rowBytes != 0 || i.stride != 0;
    u8 flags = u8(static_cast<u8>(i.ew) << flagEwShift);
    if (i.taken)
        flags |= flagTaken;
    if (hasMem)
        flags |= flagHasMem;
    if (i.vl != 0)
        flags |= flagHasVl;
    if (i.region != prevRegion_)
        flags |= flagNewRegion;

    w_.byte(static_cast<u8>(i.op));
    w_.byte(flags);
    w_.byte(packCls(i.dst.cls, i.src0.cls));
    w_.byte(packCls(i.src1.cls, i.src2.cls));
    for (const RegId *r : {&i.dst, &i.src0, &i.src1, &i.src2})
        if (r->valid())
            w_.byte(r->idx);
    // Static ids advance by small steps inside a basic block and jump
    // back at loop edges: signed deltas stay short either way.
    w_.svarint(s64(i.staticId) - s64(prevStatic_));
    prevStatic_ = i.staticId;
    if (flags & flagNewRegion) {
        w_.varint(i.region);
        prevRegion_ = i.region;
    }
    if (hasMem) {
        // Two's-complement delta: exact for any u64 pair, short for
        // the common near-sequential access patterns.
        w_.svarint(s64(i.addr - prevAddr_));
        prevAddr_ = i.addr;
        w_.varint(i.rowBytes);
        // Unit-stride rows (stride == rowBytes) encode as zero.
        w_.svarint(s64(i.stride) - s64(i.rowBytes));
    }
    if (i.vl != 0)
        w_.varint(i.vl);
    ++n_;
}

size_t
TraceEncoder::finish()
{
    wire::Writer count;
    count.varint(n_);
    vmmx_assert(count.size() <= room_, "the count outgrew its room");
    const size_t at = records_ - count.size();
    w_.patch(at, count.buffer().data(), count.size());
    return at;
}

void
encodeTrace(const std::vector<InstRecord> &trace, wire::Writer &w)
{
    // The count's size is known, so the room fits it exactly and the
    // payload directly follows what @p w held.
    TraceEncoder records(w, wire::varintSize(trace.size()));
    for (const InstRecord &i : trace)
        records.add(i);
    records.finish();
}

TraceCursor::TraceCursor(const wire::Reader &r) : r_(r)
{
    count_ = r_.varint();
    // A record is at least 5 bytes: no buffer is sized by absurd counts.
    ok_ = r_.ok() && count_ <= r_.remaining();
}

template <typename Emit>
size_t
TraceCursor::fill(size_t max, Emit emit)
{
    const size_t n = ok_ ? size_t(std::min<u64>(max, count_ - n_)) : 0;
    // The reader and the delta bases live in locals for the loop.
    wire::Reader r = r_;
    Addr prevAddr = prevAddr_;
    u32 prevStatic = prevStatic_;
    u16 prevRegion = prevRegion_;
    auto record = [&](InstRecord &i) {
        u8 op = r.byte();
        if (op >= static_cast<u8>(Opcode::NUM_OPCODES))
            return false;
        i.op = static_cast<Opcode>(op);
        u8 flags = r.byte();
        i.ew = static_cast<ElemWidth>((flags & flagEwMask) >> flagEwShift);
        i.taken = flags & flagTaken;
        if (!unpackCls(r.byte(), i.dst.cls, i.src0.cls) ||
            !unpackCls(r.byte(), i.src1.cls, i.src2.cls))
            return false;
        for (RegId *reg : {&i.dst, &i.src0, &i.src1, &i.src2}) {
            if (!reg->valid())
                continue;
            reg->idx = r.byte();
            if (reg->idx >= logicalTableSize[static_cast<size_t>(reg->cls)])
                return false;
        }
        // Delta applications happen in u64 arithmetic: a hostile or
        // corrupt delta plus the running value must wrap (and then fail
        // validation downstream), never overflow a signed add.
        i.staticId = u32(u64(prevStatic) + u64(r.svarint()));
        prevStatic = i.staticId;
        if (flags & flagNewRegion)
            prevRegion = u16(r.varint());
        i.region = prevRegion;
        if (flags & flagHasMem) {
            i.addr = prevAddr + u64(r.svarint());
            prevAddr = i.addr;
            i.rowBytes = u16(r.varint());
            i.stride = s32(u64(r.svarint()) + u64(i.rowBytes));
        }
        if (flags & flagHasVl)
            i.vl = u16(r.varint());
        return r.ok();
    };
    size_t k = 0;
    for (; k < n; ++k) {
        InstRecord i;
        if (!record(i))
            break;
        emit(k, i);
    }
    r_ = r;
    prevAddr_ = prevAddr;
    prevStatic_ = prevStatic;
    prevRegion_ = prevRegion;
    n_ += k;
    ok_ = ok_ && k == n;
    return k;
}

size_t
TraceCursor::read(DecodedInst *out, size_t max)
{
    return fill(max, [out](size_t k, const InstRecord &i) {
        out[k] = decodeInst(i);
    });
}

bool
decodeTrace(wire::Reader &r, std::vector<InstRecord> &out)
{
    TraceCursor records(r);
    out.clear();
    out.reserve(records.ok() ? size_t(records.size()) : 0);
    records.fill(size_t(records.size()),
                 [&out](size_t, const InstRecord &i) { out.push_back(i); });
    r = records.reader();
    return records.done();
}

void
serialize(wire::Writer &w, const TraceKey &key)
{
    w.boolean(key.isApp);
    w.str(key.name);
    w.byte(static_cast<u8>(key.kind));
    w.fixed32(key.imageBytes);
    w.fixed64(key.seed);
}

bool
deserialize(wire::Reader &r, TraceKey &key)
{
    key.isApp = r.boolean();
    key.name = r.str();
    u8 kind = r.byte();
    if (kind > static_cast<u8>(SimdKind::VMMX128))
        return false;
    key.kind = static_cast<SimdKind>(kind);
    key.imageBytes = r.fixed32();
    key.seed = r.fixed64();
    return r.ok();
}

} // namespace vmmx
