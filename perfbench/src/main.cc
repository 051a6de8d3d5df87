/**
 * @file
 * vmmx_perfbench: one workload per process, so peak memory belongs to
 * that workload.  Prints a human summary, a `record` line (host
 * fingerprint plus every metric with its spread), and as the last line
 * the result object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Usage (normally through perfbench/run.py, which builds this first):
 *
 *   vmmx_perfbench --workload fig5-cold --seed 0 --seconds 10 --trace 0
 *   vmmx_perfbench --self-test
 *   vmmx_perfbench --regen-golden --golden-dir perfbench/golden
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "dist/worker.hh"
#include "host.hh"
#include "workloads.hh"

namespace perfbench
{
int runSelfTest(const std::string &workDir);
}

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vmmx_perfbench: %s\n"
                 "usage: vmmx_perfbench --workload "
                 "fig5-cold|fig5-warm|rob-wide|fig5-procs\n"
                 "         [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
                 "         [--root DIR] [--work-dir DIR] [--golden-dir DIR]\n"
                 "         [--trace-out FILE] [--git-sha SHA]\n"
                 "       vmmx_perfbench --self-test [--work-dir DIR]\n"
                 "       vmmx_perfbench --regen-golden [--golden-dir DIR]\n",
                 why);
    std::exit(2);
}

/** @p text parsed whole by @p parse (std::stoull and friends); junk,
 *  trailing characters and negatives are usage errors. */
template <typename T, typename Parse>
T
number(const std::string &text, Parse parse)
{
    size_t used = 0;
    T value{};
    try {
        value = parse(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage(("bad number '" + text + "'").c_str());
    return value;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * A self-exec'd fig5-procs worker ("... --peak-dir D --worker --fd N"):
 * serve the driver, then leave this process's peak RSS in D where the
 * driver adds the fleet up.  Returns only when argv is not a worker's.
 */
void
serveIfWorker(int argc, char **argv)
{
    int fd = -1;
    std::string peakDir;
    bool worker = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") == 0)
            worker = true;
        else if (std::strcmp(argv[i], "--fd") == 0 && i + 1 < argc)
            fd = number<int>(argv[++i], [](const std::string &v,
                                           size_t *n) {
                return std::stoi(v, n);
            });
        else if (std::strcmp(argv[i], "--peak-dir") == 0 && i + 1 < argc)
            peakDir = argv[++i];
    }
    if (!worker)
        return;
    if (fd < 0)
        vmmx::fatal("--worker requires --fd <descriptor>");
    int rc = vmmx::dist::workerServe(fd);
    if (!peakDir.empty()) {
        std::ofstream out(peakDir + "/worker-" + std::to_string(::getpid()));
        out << num(selfPeakRssMb()) << '\n';
    }
    // _exit, as dist::maybeWorkerMain does: no atexit handlers of the
    // driver-side state this image never built.
    ::_exit(rc);
}

} // namespace

int
main(int argc, char **argv)
{
    serveIfWorker(argc, argv);

    Options o;
    bool selfTest = false, regen = false;
    bool haveWorkload = false;
    std::string gitSha, fillDir;
    o.goldenDir = "perfbench/golden";
    o.workDir = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            if (!parseWorkload(value(), o.workload))
                usage("unknown workload");
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = number<u64>(value(), [](const std::string &v,
                                             size_t *n) {
                return std::stoull(v, n);
            });
        } else if (a == "--seconds") {
            o.seconds = number<double>(value(), [](const std::string &v,
                                                   size_t *n) {
                return std::stod(v, n);
            });
        } else if (a == "--trace") {
            o.trace = value() == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--root") {
            o.root = value();
        } else if (a == "--work-dir") {
            o.workDir = value();
        } else if (a == "--golden-dir") {
            o.goldenDir = value();
        } else if (a == "--trace-out") {
            o.traceOut = value();
        } else if (a == "--git-sha") {
            gitSha = value();
        } else if (a == "--self-test") {
            selfTest = true;
        } else if (a == "--regen-golden") {
            regen = true;
        } else if (a == "--fill-store") {
            fillDir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    o.threads = std::min(nproc(), 4u);
    o.selfExe = std::filesystem::absolute(argv[0]).string();
    // Timed runs measure the program with its telemetry off; only the
    // traced run's telemetry-overhead probe turns it on, briefly.
    vmmx::telemetry::setEnabled(false);
    vmmx::setQuiet(true);

    if (selfTest)
        return runSelfTest(o.workDir);
    if (!fillDir.empty())
        return fillStore(o, fillDir) ? 0 : 1;

    std::vector<std::string> knobs = rejectedKnobsSet();
    if (!knobs.empty()) {
        for (const std::string &k : knobs)
            std::fprintf(stderr,
                         "vmmx_perfbench: %s changes what the workloads "
                         "measure; unset it\n",
                         k.c_str());
        return 2;
    }
    if (regen) {
        std::printf("regenerating golden digests in %s\n",
                    o.goldenDir.c_str());
        return regenerateGolden(o) ? 0 : 1;
    }
    if (!haveWorkload)
        usage("--workload is required");

    // Unique per process, so concurrent benchmark runs cannot share
    // (or delete) each other's stores.
    o.workDir = o.workDir + "/" + name(o.workload) + "-" +
                std::to_string(::getpid());

    Fingerprint host = fingerprint(gitSha);
    if (!host.valid()) {
        std::fprintf(stderr,
                     "vmmx_perfbench: refusing to report timings: %s\n",
                     host.invalidReason().c_str());
        return 3;
    }
    std::printf("host %s\n", host.json().c_str());
    std::printf("workload %s  seed %" PRIu64 "  trace seed 0x%" PRIx64
                "%s  threads %u  mode %s%s\n",
                name(o.workload), o.seed,
                o.workload == Workload::RobWide ? traceSeedFor(o.seed)
                                                : u64(0xbeef),
                o.workload == Workload::RobWide ? "" : " (pinned)",
                o.threads, o.trace ? "traced" : "timed",
                o.smoke ? " (smoke grid)" : "");
    std::fflush(stdout);

    Outcome out = runWorkload(o);

    double failRatio =
        out.attempted ? double(out.failed) / double(out.attempted) : 1.0;
    for (const Metric &m : out.metrics)
        std::printf("  %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.detail.c_str());
    std::printf("  %-28s %14.6g %-8s %" PRIu64 " of %" PRIu64
                " point results differ from the oracle\n",
                "fail_ratio", failRatio, "ratio", out.failed, out.attempted);
    for (const std::string &f : out.failures)
        std::printf("  FAILED %s\n", f.c_str());
    for (const std::string &n : out.notes)
        std::printf("  %s\n", n.c_str());

    std::string metrics, record;
    for (const Metric &m : out.metrics) {
        std::string sep = metrics.empty() ? "" : ", ";
        metrics += sep + "\"" + m.name + "\": {\"value\": " + num(m.value) +
                   ", \"unit\": \"" + m.unit + "\"}";
        record += sep + "\"" + m.name + "\": {\"value\": " + num(m.value) +
                  ", \"unit\": \"" + m.unit + "\", \"detail\": \"" +
                  vmmx::telemetry::jsonEscape(m.detail) + "\"}";
    }
    std::printf("record {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"mode\": \"%s\", \"host\": %s, \"fail_ratio\": %s, "
                "\"metrics\": {%s}}\n",
                name(o.workload), o.seed, o.trace ? "traced" : "timed",
                host.json().c_str(), num(failRatio).c_str(), record.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                out.attempted, out.failed, metrics.c_str());
    return out.failed == 0 ? 0 : 1;
}
