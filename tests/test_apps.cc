/**
 * @file
 * Application correctness: all four ISA flavours must produce
 * bit-identical outputs (checksum equality), decoders must invert
 * encoders within the codecs' quantisation error, and the scalar/vector
 * phase structure must be present in the traces.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "apps/app.hh"
#include "apps/gsm.hh"
#include "apps/jpeg.hh"
#include "apps/mpeg2.hh"
#include "harness/runner.hh"

namespace vmmx
{
namespace
{

class AppCorrectness : public testing::TestWithParam<std::string>
{
};

TEST_P(AppCorrectness, FlavourInvariantChecksum)
{
    u64 ref = 0;
    bool first = true;
    for (auto kind : allSimdKinds) {
        auto app = makeApp(GetParam());
        MemImage mem(32u << 20);
        Rng rng(42);
        app->prepare(mem, rng);
        Program p(mem, kind);
        app->emit(p);
        u64 h = app->checksum(mem);
        if (first) {
            ref = h;
            first = false;
        } else {
            EXPECT_EQ(h, ref) << GetParam() << " flavour " << name(kind);
        }
    }
}

TEST_P(AppCorrectness, HasScalarAndVectorPhases)
{
    auto app = makeApp(GetParam());
    MemImage mem(32u << 20);
    Rng rng(42);
    app->prepare(mem, rng);
    Program p(mem, SimdKind::VMMX128);
    app->emit(p);

    u64 scalarRegion = 0;
    u64 vectorRegion = 0;
    for (const auto &inst : p.trace()) {
        if (inst.region != 0)
            ++vectorRegion;
        else
            ++scalarRegion;
    }
    EXPECT_GT(scalarRegion, 0u);
    EXPECT_GT(vectorRegion, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCorrectness,
                         testing::ValuesIn(appNames()),
                         [](const auto &tpi) { return tpi.param; });

/** FNV-1a over the allocated part of an image, [0, brk). */
u64
preparedHash(const MemImage &mem)
{
    u64 h = 1469598103934665603ull;
    for (Addr a = 0; a < mem.brk(); ++a) {
        h ^= mem.read8(a);
        h *= 1099511628211ull;
    }
    return h;
}

/** A decoder's prepare runs its encoder on an execute-only Program; the
 *  memory it leaves must equal a recording run's, byte for byte. */
class DecoderPrepare
    : public testing::TestWithParam<std::pair<const char *, const char *>>
{
};

TEST_P(DecoderPrepare, ExecuteOnlyEncoderMatchesRecordingRun)
{
    const auto [decName, encName] = GetParam();

    MemImage recMem(32u << 20);
    {
        Rng rng(42);
        auto enc = makeApp(encName);
        enc->prepare(recMem, rng);
        Program p(recMem, SimdKind::MMX64);
        enc->emit(p);
        EXPECT_GT(p.trace().size(), 0u);
    }

    MemImage execMem(32u << 20);
    {
        Rng rng(42);
        auto enc = makeApp(encName);
        enc->prepare(execMem, rng);
        Program p(execMem, SimdKind::MMX64, Program::executeOnly);
        enc->emit(p);
        EXPECT_EQ(p.trace().size(), 0u);
        EXPECT_TRUE(p.takeTrace().empty());
    }

    MemImage decMem(32u << 20);
    {
        Rng rng(42);
        makeApp(decName)->prepare(decMem, rng);
    }

    EXPECT_EQ(execMem.brk(), recMem.brk());
    EXPECT_EQ(decMem.brk(), recMem.brk());
    const u64 ref = preparedHash(recMem);
    EXPECT_EQ(preparedHash(execMem), ref);
    EXPECT_EQ(preparedHash(decMem), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, DecoderPrepare,
    testing::Values(std::pair{"jpegdec", "jpegenc"},
                    std::pair{"mpeg2dec", "mpeg2enc"},
                    std::pair{"gsmdec", "gsmenc"}),
    [](const auto &tpi) { return std::string(tpi.param.first); });

TEST(AppRoundTrip, JpegDecodeApproximatesInput)
{
    JpegDec dec;
    MemImage mem(32u << 20);
    Rng rng(42);
    dec.prepare(mem, rng);
    Program p(mem, SimdKind::MMX64);
    dec.emit(p);

    const JpegLayout &L = dec.layout();
    double err = 0;
    for (unsigned i = 0; i < JpegLayout::kPixels; ++i) {
        err += std::abs(int(mem.read8(L.rgbIn + 3 * i)) -
                        int(mem.read8(L.dR + i)));
        err += std::abs(int(mem.read8(L.rgbIn + 3 * i + 1)) -
                        int(mem.read8(L.dG + i)));
        err += std::abs(int(mem.read8(L.rgbIn + 3 * i + 2)) -
                        int(mem.read8(L.dB + i)));
    }
    double mad = err / (3 * JpegLayout::kPixels);
    EXPECT_LT(mad, 12.0) << "mean abs error too high for q-step 16";
    EXPECT_GT(mem.read64(L.streamLen), 100u);
}

TEST(AppRoundTrip, Mpeg2DecoderMatchesEncoderReconstruction)
{
    Mpeg2Dec dec;
    MemImage mem(32u << 20);
    Rng rng(42);
    dec.prepare(mem, rng);
    Program p(mem, SimdKind::VMMX64);
    dec.emit(p);

    const Mpeg2Layout &L = dec.layout();
    // Drift-free: decoder reconstruction must equal the encoder's.
    for (unsigned y = 0; y < Mpeg2Layout::kH; ++y) {
        for (unsigned x = 0; x < Mpeg2Layout::kW; ++x) {
            Addr off = y * Mpeg2Layout::kPitch + x;
            ASSERT_EQ(mem.read8(L.dRec0 + off), mem.read8(L.recA + off))
                << "I-frame drift at " << x << "," << y;
            ASSERT_EQ(mem.read8(L.dRec1 + off), mem.read8(L.recB + off))
                << "P-frame drift at " << x << "," << y;
        }
    }
}

TEST(AppRoundTrip, GsmDecodeTracksInput)
{
    GsmDec dec;
    MemImage mem(32u << 20);
    Rng rng(42);
    dec.prepare(mem, rng);
    Program p(mem, SimdKind::MMX128);
    dec.emit(p);

    const GsmLayout &L = dec.layout();
    // The codec is lossy; require decent correlation with the input on
    // the later frames (after filter states settle).
    double num = 0, den1 = 0, den2 = 0;
    for (unsigned k = GsmLayout::kFrame; k < GsmLayout::kTotal; ++k) {
        double a = s16(mem.read16(L.input + 2 * k));
        double b = s16(mem.read16(L.output + 2 * k));
        num += a * b;
        den1 += a * a;
        den2 += b * b;
    }
    double corr = num / (std::sqrt(den1 * den2) + 1e-9);
    EXPECT_GT(corr, 0.7) << "decoded speech decorrelated from input";
}

} // namespace
} // namespace vmmx
