/**
 * @file
 * Trace-DSL tests: scalar semantics vs native C++, control-flow
 * emission, register frames, bitstream round trips, and the matrix
 * engine's memory/transpose/partial operations.
 */

#include <gtest/gtest.h>

#include "apps/bitstream.hh"
#include "harness/runner.hh"
#include "kernels/kernel.hh"
#include "common/rng.hh"
#include "common/saturate.hh"
#include "trace/decoded.hh"
#include "trace/mmx.hh"
#include "trace/program.hh"
#include "trace/trace_repo.hh"
#include "trace/vmmx.hh"

namespace vmmx
{
namespace
{

TEST(ProgramScalar, ArithmeticMatchesNative)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    Rng rng(5);
    SReg a = p.sreg();
    SReg b = p.sreg();
    SReg c = p.sreg();
    for (int i = 0; i < 200; ++i) {
        u64 x = rng.next();
        u64 y = rng.next() | 1;
        p.li(a, x);
        p.li(b, y);
        p.add(c, a, b);
        EXPECT_EQ(p.val(c), x + y);
        p.sub(c, a, b);
        EXPECT_EQ(p.val(c), x - y);
        p.mul(c, a, b);
        EXPECT_EQ(p.val(c), x * y);
        p.and_(c, a, b);
        EXPECT_EQ(p.val(c), x & y);
        p.srai(c, a, 9);
        EXPECT_EQ(s64(p.val(c)), asr64(s64(x), 9));
        p.srl(c, a, b);
        EXPECT_EQ(p.val(c), x >> (y & 63));
    }
}

TEST(ProgramScalar, LoadStoreSizesAndSignExtension)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    Addr buf = mem.alloc(64);
    SReg a = p.sreg();
    SReg addr = p.sreg();
    p.li(addr, buf);
    p.li(a, 0xfff6); // -10 as s16
    p.store(a, addr, 0, 2);
    p.load(a, addr, 0, 2, true);
    EXPECT_EQ(s64(p.val(a)), -10);
    p.load(a, addr, 0, 2, false);
    EXPECT_EQ(p.val(a), 0xfff6u);
}

TEST(ProgramScalar, ForLoopEmitsOverhead)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg acc = p.sreg();
    p.li(acc, 0);
    size_t before = p.trace().size();
    p.forLoop(10, [&](SReg i) { p.add(acc, acc, i); });
    size_t emitted = p.trace().size() - before;
    // init (2) + 10 x (body 1 + incr 1 + branch 1)
    EXPECT_EQ(emitted, 2u + 30u);
    EXPECT_EQ(p.val(acc), 45u);
    // The loop branch is taken 9 times, not-taken once.
    unsigned taken = 0, total = 0;
    for (const auto &inst : p.trace()) {
        if (inst.isBranch()) {
            ++total;
            taken += inst.taken;
        }
    }
    EXPECT_EQ(total, 10u);
    EXPECT_EQ(taken, 9u);
}

TEST(ProgramScalar, FramesReuseRegisters)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    auto f = p.mark();
    SReg a = p.sreg();
    u8 first = a.idx;
    p.release(f);
    SReg b = p.sreg();
    EXPECT_EQ(b.idx, first);
}

TEST(ProgramScalar, BranchSitesDiffer)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    p.li(a, 1);
    p.brEqI(a, 1);
    p.brEqI(a, 1);
    const auto &tr = p.trace();
    ASSERT_GE(tr.size(), 3u);
    EXPECT_NE(tr[1].staticId, tr[2].staticId);
}

TEST(Bitstream, RoundTripRandomFields)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(4096);
    Rng rng(11);
    std::vector<std::pair<u64, unsigned>> fields;
    {
        Program p(mem, SimdKind::MMX64);
        DslBitWriter bw(p, buf);
        SReg v = p.sreg();
        for (int i = 0; i < 300; ++i) {
            unsigned n = 1 + unsigned(rng.below(24));
            u64 val = rng.next() & ((u64(1) << n) - 1);
            fields.push_back({val, n});
            p.li(v, val);
            bw.put(v, n);
        }
        bw.flush();
    }
    {
        Program p(mem, SimdKind::MMX64);
        DslBitReader br(p, buf);
        SReg v = p.sreg();
        for (auto [val, n] : fields)
            EXPECT_EQ(br.get(v, n), val);
    }
}

TEST(VmmxEngine, StridedLoadGathersRows)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(4096);
    for (unsigned i = 0; i < 1024; ++i)
        mem.write8(buf + i, u8(i));
    Program p(mem, SimdKind::VMMX64);
    Vmmx v(p);
    SReg base = p.sreg();
    SReg stride = p.sreg();
    p.li(base, buf);
    p.li(stride, 100);
    v.setvl(4);
    VR x = p.vreg();
    v.load(x, base, 3, stride);
    for (unsigned r = 0; r < 4; ++r)
        for (unsigned c = 0; c < 8; ++c)
            EXPECT_EQ(p.mval(x)[r].byte(c), u8(3 + 100 * r + c));
}

TEST(VmmxEngine, TransposeIsInvolution)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(4096);
    Rng rng(13);
    for (unsigned i = 0; i < 256; ++i)
        mem.write8(buf + i, rng.byte());
    Program p(mem, SimdKind::VMMX128);
    Vmmx v(p);
    SReg base = p.sreg();
    p.li(base, buf);
    v.setvl(8);
    VR x = p.vreg();
    VR t = p.vreg();
    VR u = p.vreg();
    v.loadU(x, base, 0);
    v.vtransp(t, x);
    v.vtransp(u, t);
    for (unsigned r = 0; r < 8; ++r) {
        for (unsigned c = 0; c < 8; ++c) {
            EXPECT_EQ(p.mval(t)[r].word(c), p.mval(x)[c].word(r));
            EXPECT_EQ(p.mval(u)[r].word(c), p.mval(x)[r].word(c));
        }
    }
}

TEST(VmmxEngine, PartialOpsPreserveOtherRows)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(4096);
    for (unsigned i = 0; i < 512; ++i)
        mem.write8(buf + i, u8(i * 7));
    Program p(mem, SimdKind::VMMX64);
    Vmmx v(p);
    SReg base = p.sreg();
    SReg stride = p.sreg();
    p.li(base, buf);
    p.li(stride, 8);
    v.setvl(8);
    VR x = p.vreg();
    v.loadU(x, base, 0);
    MatrixReg before = p.mval(x);
    v.loadPartial(x, 2, 3, base, 256, stride);
    for (unsigned r = 0; r < 8; ++r) {
        if (r >= 2 && r < 5) {
            EXPECT_EQ(p.mval(x)[r].byte(0), u8((256 + (r - 2) * 8) * 7));
        } else {
            EXPECT_EQ(p.mval(x)[r], before[r]);
        }
    }
}

TEST(VmmxEngine, SetvlLimitsRowsProcessed)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(4096);
    Program p(mem, SimdKind::VMMX64);
    Vmmx v(p);
    SReg base = p.sreg();
    p.li(base, buf);
    v.setvl(3);
    VR x = p.vreg();
    VR y = p.vreg();
    v.vzero(x);
    v.vzero(y);
    SReg one = p.sreg();
    p.li(one, 1);
    v.vsplat(x, one, ElemWidth::B8);
    v.padd(y, x, x, ElemWidth::B8);
    EXPECT_EQ(p.mval(y)[0].byte(0), 2);
    EXPECT_EQ(p.mval(y)[2].byte(0), 2);
    EXPECT_EQ(p.mval(y)[3].byte(0), 0); // beyond VL untouched
}

TEST(MmxEngine, LowTransfersTouchOnly8Bytes)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(64);
    for (unsigned i = 0; i < 32; ++i)
        mem.write8(buf + i, 0xaa);
    Program p(mem, SimdKind::MMX128);
    Mmx m(p);
    SReg base = p.sreg();
    p.li(base, buf);
    VR x = p.vreg();
    m.pzero(x);
    m.storeLow(x, base, 0);
    EXPECT_EQ(mem.read64(buf), 0u);
    EXPECT_EQ(mem.read64(buf + 8), 0xaaaaaaaaaaaaaaaaull);
    m.loadLow(x, base, 8);
    EXPECT_EQ(p.vval(x).lo, 0xaaaaaaaaaaaaaaaaull);
    EXPECT_EQ(p.vval(x).hi, 0u);
}

TEST(Determinism, SameSeedSameTraceSameCycles)
{
    auto build = []() {
        MemImage mem(16u << 20);
        Rng rng(123);
        auto k = makeKernel("motion1");
        k->prepare(mem, rng);
        Program p(mem, SimdKind::VMMX128);
        k->emit(p);
        return p.takeTrace();
    };
    auto t1 = build();
    auto t2 = build();
    ASSERT_EQ(t1.size(), t2.size());
    auto m = makeMachine(SimdKind::VMMX128, 4);
    EXPECT_EQ(runTrace(m, t1).cycles(), runTrace(m, t2).cycles());
}

/** @p key generated as a cold store unit does it, straight into an
 *  encoder sink: @return the records' payload. */
std::vector<u8>
sinkPayload(const TraceKey &key)
{
    wire::Writer w;
    TraceEncoder sink(w);
    EXPECT_TRUE(TraceRepository::runWorkload(key, &sink).empty());
    const size_t at = sink.finish();
    return {w.buffer().begin() + at, w.buffer().end()};
}

// The trace generators' output at the default seed, pinned: store file
// names carry TraceStore::traceGenVersion instead of anything that
// identifies the build, so a change that alters a generated trace must
// bump it, or stores written before the change would replay stale
// traces as valid.
TEST(TraceGenVersion, DefaultSeedTracesArePinned)
{
    struct Pin
    {
        bool isApp;
        const char *name;
        SimdKind kind;
        size_t records;
        u64 digest; ///< FNV-1a of the encodeTrace() bytes
    };
    const Pin pins[] = {
        {false, "motion1", SimdKind::MMX64, 4890, 0x9c09b3c400d95addull},
        {false, "idct", SimdKind::VMMX128, 764, 0x80050e0fdbac031dull},
        {false, "rgb", SimdKind::MMX128, 32672, 0x6b36772758f62607ull},
        {true, "gsmdec", SimdKind::VMMX64, 34835, 0x54f79bb15314c732ull},
        {true, "mpeg2dec", SimdKind::VMMX128, 23409, 0x37947f4c2c7d19c1ull},
    };
    TraceRepository repo(nullptr, 0, 0);
    for (const Pin &pin : pins) {
        auto trace = pin.isApp ? repo.app(pin.name, pin.kind)
                               : repo.kernel(pin.name, pin.kind);
        wire::Writer w;
        encodeTrace(*trace, w);
        u64 digest = wire::fnv1a(w.buffer().data(), w.size());
        EXPECT_TRUE(trace->size() == pin.records && digest == pin.digest)
            << pin.name << "/" << name(pin.kind) << ": " << trace->size()
            << " records, digest 0x" << std::hex << digest
            << ".  The generated trace changed: bump "
               "TraceStore::traceGenVersion (src/trace/trace_store.hh) so "
               "existing trace stores miss, then update this pin.";

        // A cold store generation encodes as it emits: same bytes.
        const TraceKey key{pin.isApp, pin.name, pin.kind,
                           pin.isApp ? TraceRepository::appImageBytes
                                     : TraceRepository::kernelImageBytes,
                           TraceRepository::defaultSeed};
        std::vector<u8> payload = sinkPayload(key);
        EXPECT_EQ(wire::fnv1a(payload.data(), payload.size()), pin.digest)
            << pin.name << "/" << name(pin.kind)
            << ": the encoder sink's payload";
    }
}

TEST(TraceEncoderSink, Fig5AppsEncodeAsTheirVectors)
{
    // Every trace a fig5 run generates: the payload a Program streams
    // into the encoder equals encodeTrace() of the recorded vector, and
    // a TraceCursor reads the records back.
    for (const char *app : {"jpegenc", "jpegdec", "mpeg2enc", "mpeg2dec",
                            "gsmenc", "gsmdec"}) {
        for (SimdKind kind : {SimdKind::MMX64, SimdKind::MMX128,
                              SimdKind::VMMX64, SimdKind::VMMX128}) {
            const TraceKey key{true, app, kind,
                               TraceRepository::appImageBytes,
                               TraceRepository::defaultSeed};
            const std::vector<InstRecord> trace =
                TraceRepository::runWorkload(key);
            wire::Writer w;
            encodeTrace(trace, w);
            const std::vector<u8> payload = sinkPayload(key);
            ASSERT_TRUE(payload == w.buffer()) << key.describe();

            wire::Reader in(payload);
            TraceCursor records(in);
            ASSERT_EQ(records.size(), trace.size()) << key.describe();
            std::vector<DecodedInst> block(replayBlock);
            size_t k = 0;
            for (size_t n; (n = records.read(block.data(), block.size()));)
                for (size_t j = 0; j < n; ++j, ++k)
                    ASSERT_TRUE(block[j] == decodeInst(trace[k]))
                        << key.describe() << " record " << k;
            EXPECT_EQ(k, trace.size()) << key.describe();
            EXPECT_TRUE(records.done() && records.reader().atEnd())
                << key.describe();
        }
    }
}

} // namespace
} // namespace vmmx
