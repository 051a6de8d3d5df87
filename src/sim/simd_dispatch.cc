#include "sim/simd_dispatch.hh"

#include <atomic>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"

namespace vmmx::simd
{

namespace
{

#if defined(__x86_64__) || defined(__i386__)

/**
 * A vector extension is usable only when the CPU advertises the
 * feature and the OS context-switches its register state.  libgcc's
 * __builtin_cpu_supports checks both: it reports avx2 and avx512f only
 * when cpuid advertises OSXSAVE and XCR0 enables the YMM state (bits
 * 1-2), plus the opmask/ZMM state (bits 5-7) for avx512f.
 */
u32
probeHost()
{
    __builtin_cpu_init();
    u32 mask = 1u << u32(Path::Scalar);
    if (__builtin_cpu_supports("avx2"))
        mask |= 1u << u32(Path::Avx2);
    if (__builtin_cpu_supports("avx512f"))
        mask |= 1u << u32(Path::Avx512);
    return mask;
}

#else // non-x86 host: only the scalar reference exists

u32
probeHost()
{
    return 1u << u32(Path::Scalar);
}

#endif

/** Diagnostic for a rejected explicit path request, or "" if usable. */
std::string
rejectReason(Path p)
{
    u32 bit = 1u << u32(p);
    if (!(compiledMask() & bit))
        return std::string("SIMD path '") + pathName(p) +
               "' is not compiled into this binary (compiler lacks the "
               "-m flags); available paths are listed in compiledMask";
    if (!(supportedMask() & bit))
        return std::string("SIMD path '") + pathName(p) +
               "' is not supported by this host CPU (feature probe "
               "failed); use VMMX_SIMD=auto or a narrower path";
    return "";
}

/** The pinned/resolved active path; numPaths = "not resolved yet". */
std::atomic<u8> activeOrdinal{numPaths};
std::mutex resolveMu;

/** Resolve `VMMX_SIMD` once: auto/unset -> bestPath(), a real path
 *  name -> that path or a fatal diagnostic, junk -> warn + auto. */
Path
resolveFromEnv()
{
    std::string text = env::str("VMMX_SIMD");
    if (!text.empty()) {
        Path p{};
        bool isAuto = false;
        if (!parsePath(text, p, isAuto)) {
            warn("VMMX_SIMD='%s' is not scalar|avx2|avx512|auto; "
                 "using auto",
                 text.c_str());
        } else if (!isAuto) {
            std::string why = rejectReason(p);
            if (!why.empty())
                fatal("VMMX_SIMD=%s: %s", text.c_str(), why.c_str());
            return p;
        }
    }
    return bestPath();
}

} // namespace

const char *
pathName(Path p)
{
    switch (p) {
      case Path::Scalar: return "scalar";
      case Path::Avx2: return "avx2";
      case Path::Avx512: return "avx512";
    }
    panic("bad SIMD path %d", int(p));
}

unsigned
pathLanes(Path p)
{
    switch (p) {
      case Path::Scalar: return 1;
      case Path::Avx2: return 4;
      case Path::Avx512: return 8;
    }
    panic("bad SIMD path %d", int(p));
}

bool
parsePath(std::string_view text, Path &p, bool &isAuto)
{
    isAuto = false;
    if (text == "auto") {
        isAuto = true;
        return true;
    }
    if (text == "scalar")
        p = Path::Scalar;
    else if (text == "avx2")
        p = Path::Avx2;
    else if (text == "avx512")
        p = Path::Avx512;
    else
        return false;
    return true;
}

u32
compiledMask()
{
    u32 mask = 1u << u32(Path::Scalar);
#ifdef VMMX_KERNEL_AVX2
    mask |= 1u << u32(Path::Avx2);
#endif
#ifdef VMMX_KERNEL_AVX512
    mask |= 1u << u32(Path::Avx512);
#endif
    return mask;
}

u32
supportedMask()
{
    static const u32 mask = probeHost();
    return mask;
}

Path
bestPath()
{
    u32 usable = compiledMask() & supportedMask();
    for (int p = numPaths - 1; p > 0; --p)
        if (usable & (1u << p))
            return Path(p);
    return Path::Scalar;
}

Path
activePath()
{
    u8 ord = activeOrdinal.load(std::memory_order_acquire);
    if (ord < numPaths)
        return Path(ord);
    std::lock_guard<std::mutex> lock(resolveMu);
    ord = activeOrdinal.load(std::memory_order_acquire);
    if (ord < numPaths)
        return Path(ord);
    Path p = resolveFromEnv();
    activeOrdinal.store(u8(p), std::memory_order_release);
    return p;
}

std::string
setActivePath(Path p)
{
    std::string why = rejectReason(p);
    if (!why.empty())
        return why;
    std::lock_guard<std::mutex> lock(resolveMu);
    activeOrdinal.store(u8(p), std::memory_order_release);
    return "";
}

void
setActivePathAuto()
{
    std::lock_guard<std::mutex> lock(resolveMu);
    activeOrdinal.store(u8(bestPath()), std::memory_order_release);
}

Path
pathFor(size_t batchWidth)
{
    return batchWidth >= 2 ? activePath() : Path::Scalar;
}

StepFn
stepFn(Path p)
{
    switch (p) {
      case Path::Scalar:
        return &stepBlockScalar;
#ifdef VMMX_KERNEL_AVX2
      case Path::Avx2:
        return &stepBlockAvx2;
#endif
#ifdef VMMX_KERNEL_AVX512
      case Path::Avx512:
        return &stepBlockAvx512;
#endif
      default:
        panic("SIMD path '%s' is not compiled into this binary",
              pathName(p));
    }
}

} // namespace vmmx::simd
