#include "host.hh"

#include <cstring>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/env.hh"
#include "common/telemetry.hh"
#include "sim/simd_dispatch.hh"

using vmmx::telemetry::jsonEscape;

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxLeaf = __get_cpuid_max(0x80000000, nullptr);
    if (maxLeaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        size_t b = s.find_first_not_of(' ');
        size_t e = s.find_last_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

std::string
Fingerprint::invalidReason() const
{
    if (sanitizer != "none")
        return "built with the " + sanitizer + " sanitizer";
    if (!optimized)
        return "built without optimisation (build type '" + buildType + "')";
    if (assertions)
        return "built with assertions enabled (NDEBUG unset)";
    return "";
}

std::string
Fingerprint::json() const
{
    std::ostringstream os;
    os << "{\"cpu\":\"" << jsonEscape(cpu) << "\",\"nproc\":" << nproc
       << ",\"simd_path\":\"" << simdPath << "\",\"vmmx_simd\":\""
       << jsonEscape(simdEnv) << "\",\"compiler\":\"" << jsonEscape(compiler)
       << "\",\"build_type\":\"" << jsonEscape(buildType)
       << "\",\"optimized\":" << (optimized ? "true" : "false")
       << ",\"sanitizer\":\"" << sanitizer << "\",\"git_sha\":\""
       << jsonEscape(gitSha) << "\",\"valid\":"
       << (valid() ? "true" : "false") << "}";
    return os.str();
}

Fingerprint
fingerprint(const std::string &gitSha)
{
    Fingerprint f;
    f.cpu = cpuModel();
    f.nproc = nproc();
    f.simdPath = vmmx::simd::pathName(vmmx::simd::activePath());
    f.simdEnv = vmmx::env::str("VMMX_SIMD");
    f.compiler = compilerName();
    f.buildType = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
    f.optimized = true;
#endif
#ifndef NDEBUG
    f.assertions = true;
#endif
    f.sanitizer = vmmx::telemetry::sanitizerName();
    f.gitSha = gitSha.empty() ? "unknown" : gitSha;
    return f;
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return unsigned(n);
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1;
}

std::vector<std::string>
rejectedKnobsSet()
{
    static const char *const knobs[] = {
        "VMMX_SWEEP_BATCH",       "VMMX_SWEEP_DECODED",
        "VMMX_TRACE_CACHE_BUDGET", "VMMX_DECODED_CACHE_BUDGET",
        "VMMX_TELEMETRY",         "VMMX_PROGRESS",
        "VMMX_FAULT_SPEC",        "VMMX_TRACE_STORE",
        "VMMX_MAX_RESPAWNS",      "VMMX_UNIT_TIMEOUT_MS",
        "VMMX_MAX_UNIT_ATTEMPTS", "VMMX_JOURNAL_SYNC",
    };
    std::vector<std::string> set;
    for (const char *k : knobs)
        if (!vmmx::env::str(k).empty())
            set.push_back(std::string(k) + "=" + vmmx::env::str(k));
    return set;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
