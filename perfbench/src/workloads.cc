#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/memimage.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/protocol.hh"
#include "harness/executor.hh"
#include "harness/study.hh"
#include "host.hh"
#include "oracle.hh"
#include "spans.hh"
#include "stats.hh"
#include "trace/program.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using namespace vmmx;

namespace
{

constexpr unsigned kProcesses = 3;
constexpr unsigned kRobSizes[] = {16, 32, 64, 128};
/** The cheapest fig5 app; the smoke grids use only it. */
const char *const kSmokeApp = "gsmdec";
/** Setup is repeated at least kSetupSamples times, and until this much
 *  setup time per timed call has accumulated, so a sub-millisecond
 *  setup (fig5-cold) yields many samples spread over the whole run. */
constexpr unsigned kSetupSamples = 3;
constexpr double kSetupSampleS = 0.025;

double
seconds(u64 ns)
{
    return double(ns) * 1e-9;
}

/** Run fn(i, thread) for i in [0, n) on @p threads threads pulling
 *  indices off a shared counter. */
void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t, unsigned)> &fn)
{
    std::atomic<size_t> next{0};
    auto worker = [&](unsigned tid) {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i, tid);
    };
    threads = std::max(1u, std::min<unsigned>(threads, unsigned(n)));
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker, t);
    worker(0);
    for (auto &th : pool)
        th.join();
}

/** The emulator's public path from app inputs to a trace: the same
 *  calls TraceRepository makes on a generation miss. */
std::vector<InstRecord>
generateTrace(const TraceKey &key)
{
    MemImage mem(key.imageBytes);
    Rng rng(key.seed);
    std::unique_ptr<App> app = makeApp(key.name);
    app->prepare(mem, rng);
    Program p(mem, key.kind);
    app->emit(p);
    return p.takeTrace();
}

std::vector<u32>
allIndices(size_t n)
{
    std::vector<u32> all(n);
    for (u32 i = 0; i < n; ++i)
        all[i] = i;
    return all;
}

/** Run this binary with @p args as a child process and wait for it.
 *  @return true when it exited 0. */
bool
runSelf(const Options &o, const std::vector<std::string> &args)
{
    std::vector<std::string> argv = {o.selfExe};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char *> cargv;
    for (std::string &a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        return false;
    if (pid == 0) {
        execv(o.selfExe.c_str(), cargv.data());
        ::_exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** Flush the file system that holds @p dir and wait for it, so the
 *  writes and deletions of earlier runs (a cold store is written and
 *  removed on every call) are paid for outside the next timing. */
void
drainFileSystem(const std::string &dir)
{
    int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    syncfs(fd);
    close(fd);
}

/** The grid of one workload before any trace exists. */
struct Grid
{
    std::vector<SweepPoint> points;
    std::vector<std::vector<u32>> units; ///< buildSweepUnits order
    /** Trace seed of every point; golden digests cover defaultSeed. */
    u64 traceSeed = TraceRepository::defaultSeed;
};

Grid
buildGrid(const Options &o)
{
    Study fig5 = Study::fromFile(o.root + "/specs/fig5.study");
    StudySpec spec = fig5.spec();
    if (o.smoke)
        spec.apps = {kSmokeApp};
    Grid g;
    if (o.workload == Workload::RobWide) {
        for (unsigned rob : kRobSizes) {
            Config c;
            c.set("core.rob", s64(rob));
            spec.overrideSets.push_back(c);
        }
        g.traceSeed = traceSeedFor(o.seed);
    }
    g.points = Study(spec).points();
    g.units = buildSweepUnits(g.points, allIndices(g.points.size()), true);
    return g;
}

/** A new trace store directory name under the (per-process) work
 *  dir. */
std::string
freshStoreDir(const Options &o)
{
    static unsigned counter = 0;
    return o.workDir + "/store-" + std::to_string(counter++);
}

/**
 * The policy of every executor call, field by field (never fromEnv()).
 * fig5-procs workers are self-exec'd, as vmmx_study does, and each
 * leaves its peak RSS in @p peakDir.
 */
ExecutionPolicy
makePolicy(const Options &o, TraceRepository *repo,
           const std::string &storeDir, dist::DistStats *distStats,
           const std::string &peakDir = "")
{
    ExecutionPolicy p;
    p.backend = o.workload == Workload::Fig5Procs
                    ? ExecutionPolicy::Backend::Process
                    : ExecutionPolicy::Backend::ThreadPool;
    p.threads = o.threads;
    p.processes = kProcesses;
    p.batch = true;
    p.decoded = true;
    p.rawBudget = 0;
    p.decodedBudget = 0;
    p.storeDir = storeDir;
    p.journalPath = "";
    p.maxRespawns = 3;
    p.unitTimeoutMs = 0;
    p.maxUnitAttempts = 3;
    p.repo = repo;
    p.distStats = distStats;
    p.execPath = o.selfExe;
    p.execArgs = {"--peak-dir", peakDir};
    return p;
}

/** One run repository: a fresh private TraceRepository over a store
 *  (cold: a fresh empty directory; warm: the filled one; rob-wide:
 *  none). */
struct RunRepo
{
    std::string storeDir;
    bool ownsDir = false;
    std::unique_ptr<TraceStore> store;
    std::unique_ptr<TraceRepository> repo;

    RunRepo() = default;
    RunRepo(const RunRepo &) = delete;
    RunRepo &operator=(const RunRepo &) = delete;
    ~RunRepo()
    {
        repo.reset();
        store.reset();
        if (ownsDir)
            fs::remove_all(storeDir);
    }
};

std::unique_ptr<RunRepo>
makeRunRepo(const Options &o, const std::string &warmStoreDir)
{
    auto r = std::make_unique<RunRepo>();
    if (o.workload == Workload::Fig5Cold) {
        r->storeDir = freshStoreDir(o);
        r->ownsDir = true;
    } else {
        r->storeDir = warmStoreDir;
    }
    if (!r->storeDir.empty())
        r->store = std::make_unique<TraceStore>(r->storeDir);
    r->repo = std::make_unique<TraceRepository>(r->store.get(), 0, 0);
    return r;
}

/**
 * Everything a workload builds before its timed call: the grid, the
 * store (filled for fig5-warm and fig5-procs) and the run repository;
 * for rob-wide the explicit traces and their decoded streams, resident
 * in `robRepo`.
 */
struct Setup
{
    Grid grid;
    std::string storeDir; ///< warm store ("" for cold and rob-wide)
    std::unique_ptr<TraceRepository> robRepo; ///< rob-wide's tier 2
    std::vector<TraceRepository::DecodedHandle> decoded; ///< per unit
    /** Fresh repository for the first timed call (not rob-wide). */
    std::unique_ptr<RunRepo> run;

    ~Setup()
    {
        decoded.clear();
        robRepo.reset();
        run.reset();
        if (!storeDir.empty())
            fs::remove_all(storeDir);
    }
};

std::unique_ptr<Setup>
setUp(const Options &o)
{
    auto s = std::make_unique<Setup>();
    s->grid = buildGrid(o);
    const Grid &g = s->grid;
    switch (o.workload) {
      case Workload::Fig5Cold:
        break;
      case Workload::Fig5Warm:
      case Workload::Fig5Procs: {
        s->storeDir = freshStoreDir(o);
        std::vector<std::string> args = {"--fill-store", s->storeDir,
                                         "--workload", name(o.workload),
                                         "--root", o.root};
        if (o.smoke)
            args.push_back("--smoke");
        if (!runSelf(o, args))
            fatal("cannot fill the trace store in '%s'",
                  s->storeDir.c_str());
        break;
      }
      case Workload::RobWide: {
        // Traces come from TraceRepository::app at the benchmark's seed
        // and are replayed as explicit-trace points, decoded into the
        // run repository's tier 2 here so the timed call only steps.
        TraceRepository gen(nullptr, 0, 0);
        s->robRepo = std::make_unique<TraceRepository>(nullptr, 0, 0);
        std::vector<SharedTrace> traces(g.units.size());
        s->decoded.resize(g.units.size());
        parallelFor(g.units.size(), o.threads, [&](size_t u, unsigned) {
            const SweepPoint &lead = g.points[g.units[u][0]];
            traces[u] = gen.app(lead.name, lead.kind,
                                TraceRepository::appImageBytes, g.traceSeed)
                            .shared();
            s->decoded[u] = s->robRepo->decoded(traces[u]);
        });
        for (size_t u = 0; u < g.units.size(); ++u) {
            for (u32 i : g.units[u]) {
                s->grid.points[i].workload = SweepPoint::Workload::Trace;
                s->grid.points[i].trace = traces[u];
            }
        }
        break;
      }
    }
    if (!s->robRepo)
        s->run = makeRunRepo(o, s->storeDir);
    return s;
}

u64
storeBytes(const std::string &dir)
{
    u64 bytes = 0;
    std::error_code ec;
    for (const auto &f : fs::directory_iterator(dir, ec))
        if (f.is_regular_file())
            bytes += f.file_size();
    return bytes;
}

/** One executor call, timed from the call to the returned results. */
struct TimedRun
{
    std::vector<SweepResult> results;
    double wallS = 0;
    TraceRepository::TierStats raw, decoded;
    u64 generations = 0, diskLoads = 0, decodes = 0;
    dist::DistStats dist;
    double workerPeakMb = 0; ///< fig5-procs: summed worker peak RSS
};

/** Run the grid through runPoints() on @p fresh (rob-wide: on the
 *  setup's pre-decoded repository). */
TimedRun
timedRun(const Options &o, Setup &s, std::unique_ptr<RunRepo> fresh)
{
    TimedRun t;
    TraceRepository *repo = s.robRepo ? s.robRepo.get() : fresh->repo.get();
    static unsigned calls = 0;
    std::string peakDir = o.workDir + "/peaks-" + std::to_string(calls++);
    fs::create_directories(peakDir);
    ExecutionPolicy policy =
        makePolicy(o, repo, s.storeDir, &t.dist, peakDir);
    u64 t0 = telemetry::nowNs();
    t.results = runPoints(s.grid.points, policy);
    t.wallS = seconds(telemetry::nowNs() - t0);
    t.raw = repo->rawStats();
    t.decoded = repo->decodedStats();
    t.generations = repo->generations();
    t.diskLoads = repo->diskLoads();
    t.decodes = repo->decodes();
    std::error_code ec;
    for (const auto &f : fs::directory_iterator(peakDir, ec)) {
        std::ifstream in(f.path());
        double mb = 0;
        in >> mb;
        t.workerPeakMb += mb;
    }
    fs::remove_all(peakDir);
    return t;
}

/** Per-layer measurements of one traced run. */
struct Traced
{
    std::vector<SweepResult> results;
    std::vector<SpanLog> logs;
    double wallS = 0;
    u64 originNs = 0;
    unsigned threads = 0;
    u64 emuRecords = 0;
    u64 decodedBytes = 0;
    u64 steps = 0;
    u64 frameBytes = 0;
    u64 storeBytes = 0;
    double varintDecodeS = 0;
    bool ok = true;
};

struct ThreadCounters
{
    u64 emuRecords = 0, decodedBytes = 0, steps = 0, frameBytes = 0;
    bool ok = true;
};

Traced
tracedRun(const Options &o, Setup &s)
{
    Traced t;
    std::unique_ptr<RunRepo> rr = makeRunRepo(o, s.storeDir);
    TraceStore *store = rr->store.get();
    const auto &units = s.grid.units;
    const auto &points = s.grid.points;
    t.results.resize(points.size());
    t.threads = std::min<unsigned>(o.threads, unsigned(units.size()));
    for (unsigned i = 0; i < t.threads; ++i)
        t.logs.emplace_back(i);
    std::vector<ThreadCounters> counters(t.threads);
    const bool procs = o.workload == Workload::Fig5Procs;
    // Like the run repository's RAM tiers, every unit's raw trace and
    // decoded stream stay resident until the run ends.
    std::vector<SharedTrace> rawKept(units.size());
    std::vector<DecodedStream> decodedKept(units.size());

    auto unitBody = [&](size_t u, unsigned tid) {
        SpanLog &log = t.logs[tid];
        ThreadCounters &c = counters[tid];
        ScopedSpan unitSpan(log, "harness.unit", u32(u));
        const std::vector<u32> &unit = units[u];
        const SweepPoint &lead = points[unit[0]];
        std::vector<MachineConfig> machines;
        for (u32 i : unit)
            machines.push_back(
                makeMachine(points[i].kind, points[i].way,
                            points[i].overrides));
        if (procs) {
            ScopedSpan span(log, "dist.frame", u32(u));
            dist::JobGroupMsg m;
            for (u32 i : unit) {
                m.indices.push_back(i);
                m.points.push_back(points[i]);
            }
            std::vector<u8> frame = dist::encode(m);
            c.frameBytes += frame.size();
            dist::JobGroupMsg back;
            c.ok &= dist::decode(frame, back) &&
                    back.indices == m.indices;
        }

        const DecodedStream *stream = nullptr;
        if (o.workload == Workload::RobWide) {
            stream = &s.decoded[u].stream();
        } else {
            TraceKey key = traceKeyFor(lead);
            SharedTrace raw;
            if (o.workload == Workload::Fig5Cold) {
                {
                    ScopedSpan span(log, "emu.generate", u32(u));
                    raw = std::make_shared<const std::vector<InstRecord>>(
                        generateTrace(key));
                }
                c.emuRecords += raw->size();
                ScopedSpan span(log, "trace.encode_save", u32(u));
                c.ok &= store->save(key, *raw);
            } else {
                ScopedSpan span(log, "trace.load", u32(u));
                raw = store->load(key);
                if (!raw) {
                    c.ok = false;
                    return;
                }
            }
            rawKept[u] = raw;
            ScopedSpan span(log, "trace.decode", u32(u));
            decodedKept[u] = decodeStream(*raw);
            stream = &decodedKept[u];
            c.decodedBytes += stream->bytes();
        }

        std::vector<RunResult> runs;
        {
            ScopedSpan span(log, "sim.step", u32(u));
            runs = runTraceBatch(machines, *stream);
        }
        c.steps += stream->size() * machines.size();
        for (size_t k = 0; k < unit.size(); ++k) {
            SweepResult &r = t.results[unit[k]];
            r.point = points[unit[k]];
            r.result = runs[k];
            r.traceLength = stream->size();
        }

        if (procs) {
            ScopedSpan span(log, "dist.frame", u32(u));
            for (size_t k = 0; k < unit.size(); ++k) {
                dist::ResultMsg m;
                m.index = unit[k];
                m.traceLength = stream->size();
                m.result = runs[k];
                std::vector<u8> frame = dist::encode(m);
                c.frameBytes += frame.size();
                dist::ResultMsg back;
                c.ok &= dist::decode(frame, back) && back.result == m.result;
            }
        }
    };

    t.originNs = telemetry::nowNs();
    parallelFor(units.size(), t.threads, unitBody);
    t.wallS = seconds(telemetry::nowNs() - t.originNs);

    for (const ThreadCounters &c : counters) {
        t.emuRecords += c.emuRecords;
        t.decodedBytes += c.decodedBytes;
        t.steps += c.steps;
        t.frameBytes += c.frameBytes;
        t.ok &= c.ok;
    }
    if (store) {
        t.storeBytes = storeBytes(store->dir());
        // decodeTrace on each loaded trace's payload in memory, outside
        // the traced wall: trace.load_s - trace.varint_decode_s is the
        // file I/O plus checksum share of a load.  The payload is made
        // with encodeTrace, as TraceStore::save makes it, so the
        // benchmark does not depend on the store's file layout.
        if (o.workload != Workload::Fig5Cold) {
            for (const SharedTrace &raw : rawKept) {
                if (!raw)
                    continue; // a failed load, already counted
                wire::Writer w;
                encodeTrace(*raw, w);
                wire::Reader r(w.buffer());
                std::vector<InstRecord> out;
                u64 t0 = telemetry::nowNs();
                bool ok = decodeTrace(r, out);
                t.varintDecodeS += seconds(telemetry::nowNs() - t0);
                t.ok &= ok && out.size() == raw->size();
            }
        }
    }
    return t;
}

/**
 * The oracle for one run: golden digests at the default trace seed; at
 * any other seed (rob-wide only), one point per trace group checked
 * against runTrace() on the raw trace, then every later result against
 * the first run's digests.
 */
class Oracle
{
  public:
    Oracle(const Options &o, const Grid &g) : opts_(o), grid_(g)
    {
        if (g.traceSeed != TraceRepository::defaultSeed)
            return;
        const char *file = o.workload == Workload::RobWide ? "rob-wide.txt"
                                                           : "fig5.txt";
        GoldenTable table;
        std::string err;
        if (!loadGolden(opts_.goldenDir + "/" + file, table, err))
            fatal("%s", err.c_str());
        expected_ = expectedDigests(g.points, table);
    }

    /** Check one run's @p results; @return failed points. */
    u64 check(const Setup &s, const std::vector<SweepResult> &results,
              std::vector<std::string> &failures)
    {
        if (expected_.empty()) {
            u64 bad = spotCheck(s, results, failures);
            expected_.resize(results.size());
            for (size_t i = 0; i < results.size(); ++i)
                expected_[i] = digestOf(results[i]);
            if (bad)
                return bad;
        }
        return countFailures(grid_.points, results, expected_, failures);
    }

  private:
    u64 spotCheck(const Setup &s, const std::vector<SweepResult> &results,
                  std::vector<std::string> &failures)
    {
        std::atomic<u64> bad{0};
        std::mutex mu;
        parallelFor(grid_.units.size(), opts_.threads, [&](size_t u,
                                                           unsigned) {
            const auto &unit = grid_.units[u];
            u32 i = unit[opts_.seed % unit.size()];
            const SweepPoint &p = s.grid.points[i];
            RunResult ref = runTrace(makeMachine(p.kind, p.way, p.overrides),
                                     *p.trace);
            if (i >= results.size() || !(results[i].result == ref) ||
                results[i].traceLength != p.trace->size()) {
                ++bad;
                std::lock_guard<std::mutex> lock(mu);
                failures.push_back(p.label() +
                                   ": differs from runTrace on the raw trace");
            }
        });
        return bad;
    }

    const Options &opts_;
    const Grid &grid_;
    std::vector<u64> expected_;
};

bool
keepGoing(const Options &o, u64 startNs, unsigned iter, unsigned minIters)
{
    if (iter < minIters)
        return true;
    if (o.smoke)
        return false;
    return seconds(telemetry::nowNs() - startNs) < o.seconds;
}

Metric
timingMetric(const char *name, const char *unit,
             const std::vector<double> &samples)
{
    Summary s = summarize(samples);
    return {name, unit, s.median, describe(s)};
}

Metric
countMetric(const char *name, const char *unit, double value)
{
    return {name, unit, value, ""};
}

void
addSimCounts(std::vector<Metric> &m, const std::vector<SweepResult> &rs)
{
    u64 cycles = 0, insts = 0, l1 = 0, l2 = 0, vec = 0;
    for (const SweepResult &r : rs) {
        cycles += r.result.cycles();
        insts += r.result.core.instructions;
        l1 += r.result.l1Misses;
        l2 += r.result.l2Misses;
        vec += r.result.vecAccesses;
    }
    m.push_back(countMetric("sim.cycles", "count", double(cycles)));
    m.push_back(countMetric("sim.insts", "count", double(insts)));
    m.push_back(countMetric("mem.l1_misses", "count", double(l1)));
    m.push_back(countMetric("mem.l2_misses", "count", double(l2)));
    m.push_back(countMetric("mem.vec_accesses", "count", double(vec)));
}

/** on[i] / off[i] for every pair. */
std::vector<double>
pairedRatios(const std::vector<double> &on, const std::vector<double> &off)
{
    std::vector<double> r;
    for (size_t i = 0; i < on.size() && i < off.size(); ++i)
        r.push_back(on[i] / off[i]);
    return r;
}

u64
totalInstructions(const std::vector<SweepResult> &rs)
{
    u64 insts = 0;
    for (const SweepResult &r : rs)
        insts += r.result.core.instructions;
    return insts;
}

void
timedMode(const Options &o, Oracle &oracle, Outcome &out)
{
    std::vector<double> walls, setups;
    double workerPeak = 0;
    u64 insts = 0;
    u64 start = telemetry::nowNs();
    std::unique_ptr<Setup> s;
    double setupSpent = 0;
    // Setup is sampled before each timed call until its budget is used;
    // the last setup is kept and the timed calls run on it, each with a
    // fresh run repository.  The expensive setups (filling the store,
    // generating rob-wide's traces) use their whole budget before the
    // first call, so they do not eat into the timed samples; the cheap
    // one (fig5-cold) is sampled throughout the run, as the host's speed
    // for a short single-threaded task changes from second to second.
    auto sampleSetups = [&](double budget) {
        while (setups.size() < kSetupSamples || setupSpent < budget) {
            s.reset();
            malloc_trim(0);
            u64 t0 = telemetry::nowNs();
            s = setUp(o);
            double setupS = seconds(telemetry::nowNs() - t0);
            setups.push_back(setupS);
            setupSpent += setupS;
            if (o.smoke)
                break;
        }
    };
    drainFileSystem(o.workDir);
    // Iteration 0 warms the process up (lazy initialisation, first-touch
    // page faults, SIMD dispatch) and is checked but not sampled.
    for (unsigned iter = 0;
         iter == 0 || keepGoing(o, start, iter - 1, o.smoke ? 1 : 3);
         ++iter) {
        sampleSetups(kSetupSampleS * (iter + 1));
        std::unique_ptr<RunRepo> fresh = std::move(s->run);
        if (!fresh && !s->robRepo)
            fresh = makeRunRepo(o, s->storeDir);
        TimedRun run = timedRun(o, *s, std::move(fresh));
        if (iter > 0)
            walls.push_back(run.wallS);
        workerPeak = std::max(workerPeak, run.workerPeakMb);
        out.attempted += s->grid.points.size();
        out.failed += oracle.check(*s, run.results, out.failures);
        insts = totalInstructions(run.results);
        run = TimedRun();
        // Teardown, outside the timing: hand the freed heap back so
        // every iteration starts from a fresh heap, as a new process
        // would, and page-faults its memory in again; settle the file
        // system after the run's store writes and removals.
        malloc_trim(0);
        drainFileSystem(o.workDir);
    }
    s.reset();
    Metric wall = timingMetric("wall_s", "s", walls);
    std::string samples;
    for (double w : walls)
        samples += (samples.empty() ? "" : " ") + std::to_string(w);
    out.notes.push_back("wall_s samples in run order: " + samples);
    double peak = selfPeakRssMb();
    std::string peakDetail = "peak RSS of this process";
    if (o.workload == Workload::Fig5Procs) {
        // The workers run concurrently: the run's footprint is the
        // driver's peak plus the summed worker peaks of one study call
        // (the largest over the run's calls).
        peakDetail = "driver " + std::to_string(peak) +
                     " MiB + summed peaks of " +
                     std::to_string(kProcesses) + " workers " +
                     std::to_string(workerPeak) + " MiB";
        peak += workerPeak;
    }
    out.metrics.push_back(wall);
    out.metrics.push_back({"sim_mips", "Minst/s",
                           double(insts) / wall.value / 1e6,
                           std::to_string(insts) + " instructions / wall_s"});
    out.metrics.push_back({"peak_rss_mb", "MiB", peak, peakDetail});
    out.metrics.push_back(timingMetric("setup_s", "s", setups));
}

void
tracedMode(const Options &o, Oracle &oracle, Outcome &out)
{
    std::vector<double> untraced, telemetryOn, tracedWalls;
    std::map<std::string, std::vector<double>> layerS;
    std::vector<double> unitP50, unitMax, idle, coverage, varint;
    TimedRun first;
    Traced last;
    u64 start = telemetry::nowNs();
    for (unsigned iter = 0; keepGoing(o, start, iter, 1); ++iter) {
        std::unique_ptr<Setup> s = setUp(o);
        const size_t points = s->grid.points.size();

        // On fig5-warm the untraced call is paired with one with the
        // program's telemetry on; the order alternates between
        // iterations and the heap is trimmed between the two, so
        // neither side always runs on the other's warm heap.
        const bool telemetryPair = o.workload == Workload::Fig5Warm;
        const bool telemetryFirst = telemetryPair && iter % 2 == 1;
        auto telemetryRun = [&]() {
            telemetry::setEnabled(true);
            TimedRun on = timedRun(o, *s, makeRunRepo(o, s->storeDir));
            telemetry::Tracer::instance().clear();
            telemetry::Registry::instance().clear();
            telemetry::setEnabled(false);
            telemetryOn.push_back(on.wallS);
            out.attempted += points;
            out.failed += oracle.check(*s, on.results, out.failures);
            malloc_trim(0);
        };
        if (telemetryFirst)
            telemetryRun();
        TimedRun run = timedRun(o, *s, std::move(s->run));
        untraced.push_back(run.wallS);
        out.attempted += points;
        out.failed += oracle.check(*s, run.results, out.failures);
        malloc_trim(0);
        if (telemetryPair && !telemetryFirst)
            telemetryRun();

        Traced t = tracedRun(o, *s);
        tracedWalls.push_back(t.wallS);
        out.attempted += points;
        out.failed += oracle.check(*s, t.results, out.failures);
        if (!t.ok) {
            ++out.failed;
            out.failures.push_back("traced run: a layer call failed");
        }

        std::map<std::string, double> self = selfSecondsByName(t.logs);
        for (const char *layer :
             {"emu.generate", "trace.encode_save", "trace.load",
              "trace.decode", "sim.step", "dist.frame"})
            layerS[layer].push_back(self[layer]);
        std::vector<double> unitMs;
        double busy = 0;
        for (const SpanLog &log : t.logs)
            for (const Span &sp : log.spans())
                if (sp.parent < 0) {
                    unitMs.push_back(double(sp.endNs - sp.startNs) / 1e6);
                    busy += double(sp.endNs - sp.startNs) * 1e-9;
                }
        unitP50.push_back(median(unitMs));
        unitMax.push_back(*std::max_element(unitMs.begin(), unitMs.end()));
        idle.push_back(1.0 - busy / (t.threads * t.wallS));
        coverage.push_back(busy > 0 ? (busy - self["harness.unit"]) / busy
                                    : 0);
        varint.push_back(t.varintDecodeS);
        if (iter == 0)
            first = std::move(run);
        last = std::move(t);
    }

    auto &m = out.metrics;
    m.push_back(timingMetric("emu.generate_s", "s", layerS["emu.generate"]));
    m.push_back(countMetric("emu.records", "count", double(last.emuRecords)));
    m.push_back(timingMetric("trace.encode_save_s", "s",
                             layerS["trace.encode_save"]));
    m.push_back(timingMetric("trace.load_s", "s", layerS["trace.load"]));
    m.push_back(timingMetric("trace.varint_decode_s", "s", varint));
    m.push_back(countMetric("trace.store_bytes", "bytes",
                            double(last.storeBytes)));
    m.push_back(timingMetric("trace.decode_s", "s", layerS["trace.decode"]));
    m.push_back(countMetric("trace.decoded_bytes", "bytes",
                            double(last.decodedBytes)));

    // Tier statistics at the end of the untraced study: the run's own
    // repository in-process, the workers' aggregate for fig5-procs.
    const bool procs = o.workload == Workload::Fig5Procs;
    const dist::DistStats &ds = first.dist;
    double rawBytes = procs ? ds.bytesResident : first.raw.bytes;
    double decodedBytes = procs ? ds.decodedBytes : first.decoded.bytes;
    double gens = procs ? ds.generations : first.generations;
    double loads = procs ? ds.diskLoads : first.diskLoads;
    double decodes = procs ? ds.decodes : first.decodes;
    double hits = procs ? ds.decodedHits : first.decoded.hits;
    m.push_back(countMetric("trace.repo.raw_bytes", "bytes", rawBytes));
    m.push_back(countMetric("trace.repo.decoded_bytes", "bytes",
                            decodedBytes));
    m.push_back(countMetric("trace.repo.generations", "count", gens));
    m.push_back(countMetric("trace.repo.disk_loads", "count", loads));
    m.push_back(countMetric("trace.repo.decodes", "count", decodes));
    m.push_back(countMetric("trace.repo.decoded_hit_ratio", "ratio",
                            hits + decodes > 0 ? hits / (hits + decodes)
                                               : 0));

    Metric step = timingMetric("sim.step_s", "s", layerS["sim.step"]);
    m.push_back(step);
    m.push_back(countMetric("sim.steps", "count", double(last.steps)));
    m.push_back(countMetric("sim.step_ns", "ns",
                            last.steps ? step.value * 1e9 / double(last.steps)
                                       : 0));
    addSimCounts(m, last.results);

    m.push_back(timingMetric("harness.unit_p50_ms", "ms", unitP50));
    m.push_back(timingMetric("harness.unit_max_ms", "ms", unitMax));
    m.push_back(timingMetric("harness.idle_frac", "ratio", idle));
    m.push_back(timingMetric("harness.span_coverage", "ratio", coverage));

    m.push_back(timingMetric("dist.frame_s", "s", layerS["dist.frame"]));
    m.push_back(countMetric("dist.frame_bytes", "bytes",
                            double(last.frameBytes)));
    m.push_back(countMetric("dist.steals", "count", double(ds.steals)));
    m.push_back(countMetric("dist.respawns", "count", double(ds.respawns)));
    m.push_back(countMetric("dist.retries", "count", double(ds.retries)));

    double off = median(untraced);
    if (telemetryOn.empty())
        m.push_back({"telemetry.overhead_frac", "ratio", 0,
                     "measured on fig5-warm only"});
    else
        m.push_back({"telemetry.overhead_frac", "ratio",
                     median(pairedRatios(telemetryOn, untraced)) - 1,
                     "median of paired on/off ratios; telemetry on " +
                         describe(summarize(telemetryOn)) + " vs off " +
                         describe(summarize(untraced))});
    m.push_back({"trace_overhead_frac", "ratio",
                 median(tracedWalls) / off - 1,
                 "traced " + describe(summarize(tracedWalls)) +
                     " vs untraced " + describe(summarize(untraced))});

    if (!o.traceOut.empty()) {
        std::ofstream f(o.traceOut, std::ios::trunc);
        writeTraceEvents(f, last.logs, last.originNs);
        out.notes.push_back("spans of the last traced run: " + o.traceOut);
    }
}

} // namespace

const char *
name(Workload w)
{
    switch (w) {
      case Workload::Fig5Cold: return "fig5-cold";
      case Workload::Fig5Warm: return "fig5-warm";
      case Workload::RobWide: return "rob-wide";
      case Workload::Fig5Procs: return "fig5-procs";
    }
    return "?";
}

bool
parseWorkload(const std::string &text, Workload &w)
{
    for (Workload c : {Workload::Fig5Cold, Workload::Fig5Warm,
                       Workload::RobWide, Workload::Fig5Procs}) {
        if (text == name(c)) {
            w = c;
            return true;
        }
    }
    return false;
}

u64
traceSeedFor(u64 seed)
{
    return TraceRepository::defaultSeed + seed * 0x9e3779b97f4a7c15ull;
}

Outcome
runWorkload(const Options &o)
{
    fs::create_directories(o.workDir);
    Grid g = buildGrid(o);
    Oracle oracle(o, g);
    Outcome out;
    if (o.trace)
        tracedMode(o, oracle, out);
    else
        timedMode(o, oracle, out);
    fs::remove_all(o.workDir);
    return out;
}

bool
fillStore(const Options &o, const std::string &dir)
{
    Grid g = buildGrid(o);
    TraceStore store(dir);
    std::atomic<bool> ok{true};
    parallelFor(g.units.size(), o.threads, [&](size_t u, unsigned) {
        TraceKey key = traceKeyFor(g.points[g.units[u][0]]);
        if (!store.save(key, generateTrace(key)))
            ok = false;
    });
    return ok;
}

bool
regenerateGolden(const Options &base)
{
    bool ok = true;
    for (Workload w : {Workload::Fig5Cold, Workload::RobWide}) {
        Options o = base;
        o.workload = w;
        o.seed = 0;
        std::unique_ptr<Setup> s = setUp(o);
        const std::vector<SweepPoint> &points = s->grid.points;
        TraceRepository repo(nullptr, 0, 0);
        ExecutionPolicy policy = makePolicy(o, &repo, "", nullptr);
        policy.backend = ExecutionPolicy::Backend::Serial;
        std::vector<SweepResult> results(points.size());
        parallelFor(points.size(), o.threads, [&](size_t i, unsigned) {
            results[i] = runSweepPoint(points[i], policy,
                                       /*useDecoded=*/false);
        });
        std::string grid = w == Workload::RobWide ? "rob-wide" : "fig5";
        std::string header =
            "# Golden per-point digests of the " + grid +
            " grid at the default trace seed (0xbeef).\n"
            "# digest = FNV-1a of the wire encoding of RunResult followed "
            "by traceLength,\n"
            "# from runSweepPoint(point, policy, /*useDecoded=*/false), "
            "the serial\n"
            "# decode-on-the-fly oracle.  Regenerate with:\n"
            "#   python3 perfbench/run.py --regen-golden\n"
            "# label traceLength cycles digest\n";
        ok &= writeGolden(o.goldenDir + "/" + grid + ".txt", header,
                          results);
    }
    return ok;
}

} // namespace perfbench
