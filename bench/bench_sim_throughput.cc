/**
 * @file
 * Simulator-core throughput bench: instructions stepped per second,
 * reported per host-SIMD step-kernel path and per batch width -- the
 * interesting axis is how throughput scales as one trace pass advances
 * more configurations, and which step kernel (fused serial, SoA scalar,
 * AVX2, AVX-512) is doing the stepping.
 *
 * Five sections; the last four are bit-identity-checked:
 *
 *   simulate  : single-configuration runTrace() across flavours and
 *               machine widths (the classic per-config number);
 *   tracegen  : trace generation itself, cache bypassed on purpose,
 *               into an InstRecord vector and into a store file image
 *               through the encoder sink (payloads must be identical);
 *   replay    : one app trace on a 3-config group (a fig5 unit), streamed
 *               from store bytes by TraceRepository::replay (the shipped
 *               unit path: file read, checksum, varint and DecodedInst
 *               decode, step) vs stepped from a materialized DecodedStream
 *               decoded before the clock starts, so the gap is the cost
 *               of the trace layers; the two must agree bit for bit;
 *   batched   : every runnable step-kernel path x batch widths
 *               {1, 2, 4, 8, 12}, each timed on the same pre-decoded
 *               rgb stream.  Width 1 always takes the fused serial step
 *               (the dispatch rule), so its row is identical across
 *               paths and printed once;
 *   gate      : the host-SIMD gate on a 12-config group of the same
 *               stream -- every runnable vector path must clear its own
 *               bound (gateBound) on the scalar SoA reference's
 *               points/s, as the median of per-rep ratios with the two
 *               timed back to back in each rep.
 *
 * Exits nonzero on any mismatch against the oracle and when a path
 * misses its bound; the gate is skipped only when no vector path is
 * runnable.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <unistd.h>

#include "bench_util.hh"
#include "sim/simd_dispatch.hh"
#include "trace/decoded.hh"
#include "trace/trace_store.hh"

using namespace vmmx;
using namespace vmmx::bench;

namespace
{

using clock_t_ = std::chrono::steady_clock;

double
seconds(clock_t_::time_point a, clock_t_::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

constexpr int reps = 3;

/** Paths this binary can execute here, narrowest first. */
std::vector<simd::Path>
runnablePaths()
{
    u32 usable = simd::compiledMask() & simd::supportedMask();
    std::vector<simd::Path> paths;
    for (unsigned ord = 0; ord < simd::numPaths; ++ord)
        if (usable & (u32(1) << ord))
            paths.push_back(simd::Path(ord));
    return paths;
}

/**
 * The gate's floor on a vector path's median points/s ratio over the
 * scalar SoA reference.  Each path has its own, so a host without
 * AVX-512 is gated on a bound written for AVX2.  Release medians on an
 * AVX-512 Xeon (g++ 12.2): avx512 2.8-3.5x, avx2 1.72-1.96x.
 */
double
gateBound(simd::Path path)
{
    switch (path) {
      case simd::Path::Avx512:
        return 2.0;
      case simd::Path::Avx2:
        return 1.5;
      case simd::Path::Scalar:
        break;
    }
    return 0; // the reference itself
}

void
pin(simd::Path path)
{
    std::string err = simd::setActivePath(path);
    if (!err.empty())
        panic("pinning %s: %s", simd::pathName(path), err.c_str());
}

} // namespace

int
main()
{
    setQuiet(true);
    telemetry::setEnabled(false);

    bool identical = true;

    // ---- simulate: single-config runTrace across flavours/widths -----
    {
        struct Case
        {
            SimdKind kind;
            unsigned way;
        };
        const Case cases[] = {{SimdKind::MMX64, 2},
                              {SimdKind::MMX128, 4},
                              {SimdKind::VMMX64, 4},
                              {SimdKind::VMMX128, 8}};
        TextTable table({"simulate (1 config)", "records", "wall s",
                         "insts/s"});
        for (const Case &c : cases) {
            const auto &trace = kernelTrace("idct", c.kind);
            auto machine = makeMachine(c.kind, c.way);
            double t = 1e9;
            for (int r = 0; r < reps; ++r) {
                auto t0 = clock_t_::now();
                RunResult res = runTrace(machine, trace);
                t = std::min(t, seconds(t0, clock_t_::now()));
                if (res.core.instructions != trace.size())
                    identical = false;
            }
            double ips = double(trace.size()) / t;
            std::string label = std::string(name(c.kind)) + " " +
                                std::to_string(c.way) + "-way";
            table.addRow({label, std::to_string(trace.size()),
                          TextTable::num(t, 4), TextTable::num(ips, 0)});
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    // ---- tracegen: generation cost, cache bypassed on purpose --------
    // Each row times what a trace-repository miss does
    // (TraceRepository::runWorkload: a fresh image, prepare, and a
    // recording emit), two ways: into an InstRecord vector (raw(), no
    // store) and straight into a store file image through the encoder
    // sink (a cold unit with a store).  "held B" is what each leaves
    // allocated at the end; the two payloads must be byte-identical.
    // The mpeg2dec rows include its prepare's encoder run, which
    // executes without recording.
    {
        struct Case
        {
            const char *name;
            bool isApp;
            SimdKind kind;
        };
        const Case cases[] = {{"motion1", false, SimdKind::MMX64},
                              {"motion1", false, SimdKind::VMMX128},
                              {"mpeg2dec", true, SimdKind::MMX64}};
        TextTable table({"trace generation", "sink", "records", "wall s",
                         "records/s", "held B"});
        for (const Case &c : cases) {
            const TraceKey key{c.isApp, c.name, c.kind,
                               c.isApp ? TraceRepository::appImageBytes
                                       : TraceRepository::kernelImageBytes,
                               TraceRepository::defaultSeed};
            const std::string label =
                std::string(c.name) + " " + name(c.kind);
            double tv = 1e9, te = 1e9;
            std::vector<InstRecord> trace;
            std::vector<u8> image;
            wire::Reader payload(nullptr, 0);
            for (int r = 0; r < reps; ++r) {
                auto t0 = clock_t_::now();
                trace = TraceRepository::runWorkload(key);
                tv = std::min(tv, seconds(t0, clock_t_::now()));

                t0 = clock_t_::now();
                TraceStore::Image img(key);
                TraceRepository::runWorkload(key, &img.encoder());
                img.finish();
                te = std::min(te, seconds(t0, clock_t_::now()));
                payload = img.payload();
                image = img.take();
            }
            wire::Writer w;
            encodeTrace(trace, w);
            if (payload.remaining() != w.size() ||
                !std::equal(w.buffer().begin(), w.buffer().end(),
                            payload.cursor())) {
                std::cerr << "tracegen " << label
                          << ": the encoder sink's payload differs from "
                             "encodeTrace of the vector\n";
                identical = false;
            }
            const double records = double(trace.size());
            table.addRow({label, "vector", std::to_string(trace.size()),
                          TextTable::num(tv, 6),
                          TextTable::num(records / tv, 0),
                          std::to_string(trace.capacity() *
                                         sizeof(InstRecord))});
            table.addRow({label, "encoder", std::to_string(trace.size()),
                          TextTable::num(te, 6),
                          TextTable::num(records / te, 0),
                          std::to_string(image.capacity())});
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    // ---- replay: streamed from store bytes vs a materialized stream --
    // A fig5-shaped unit (one app trace, ways 2/4/8) replayed both ways,
    // best of reps.  Scratch is what the replay holds beyond the
    // machines: the file bytes plus one block, or the whole stream.
    {
        namespace fs = std::filesystem;
        const TraceKey key{true, "jpegenc", SimdKind::MMX64,
                           TraceRepository::appImageBytes,
                           TraceRepository::defaultSeed};
        const fs::path dir = fs::temp_directory_path() /
                             ("vmmx-bench-replay-" +
                              std::to_string(::getpid()));
        TraceStore store(dir.string());
        const std::vector<InstRecord> &trace =
            appTrace(key.name, key.kind);
        if (!store.save(key, trace))
            panic("cannot save the replay trace in '%s'",
                  dir.string().c_str());
        const DecodedStream whole = decodeStream(trace);
        std::vector<MachineConfig> group;
        for (unsigned way : {2u, 4u, 8u})
            group.push_back(makeMachine(key.kind, way));
        const u64 fileBytes = fs::file_size(store.path(key));

        double tStream = 1e9, tWhole = 1e9;
        std::vector<RunResult> streamed, materialized;
        for (int r = 0; r < reps; ++r) {
            // A fresh repository per rep, as a fresh run would have.
            TraceRepository repo(&store, 0, 0);
            auto t0 = clock_t_::now();
            TraceRepository::Replay replay = repo.replay(key);
            streamed = runTraceBatch(group, [&] { return replay.next(); });
            if (!replay.ok() || repo.diskLoads() != 1)
                identical = false;
            auto t1 = clock_t_::now();
            materialized = runTraceBatch(group, whole);
            auto t2 = clock_t_::now();
            tStream = std::min(tStream, seconds(t0, t1));
            tWhole = std::min(tWhole, seconds(t1, t2));
        }
        if (streamed != materialized) {
            identical = false;
            std::cout << "MISMATCH streamed vs materialized replay\n";
        }
        fs::remove_all(dir);

        const double records = double(trace.size());
        TextTable table({"replay (jpegenc mmx64, 3 configs)", "records",
                         "wall s", "records/s", "scratch KiB"});
        table.addRow({"materialized DecodedStream",
                      std::to_string(trace.size()),
                      TextTable::num(tWhole, 4),
                      TextTable::num(records / tWhole, 0),
                      std::to_string(whole.bytes() / 1024)});
        table.addRow({"streamed from store bytes",
                      std::to_string(trace.size()),
                      TextTable::num(tStream, 4),
                      TextTable::num(records / tStream, 0),
                      std::to_string((fileBytes + replayBlock *
                                                      sizeof(DecodedInst)) /
                                     1024)});
        table.print(std::cout);
        std::cout << "replay block: " << replayBlock << " records\n\n";
    }

    // The rgb trace is the longest kernel trace, so each timed pass is
    // milliseconds, not microseconds.  Both sections below replay it
    // pre-decoded, so the only variable is the step kernel.
    const DecodedStream stream =
        decodeStream(kernelTrace("rgb", SimdKind::VMMX128));
    const u64 records = stream.size();

    // ---- batched: step-kernel path x batch width ---------------------
    // Lane-instructions per second: one pass over W configs steps
    // trace.size() * W lane-instructions.  A fixed knob spread keeps
    // every lane's timing state distinct (no accidental uniformity);
    // passes > 1 steadies the short narrow-batch rows.
    {
        constexpr int passes = 3;

        const std::vector<size_t> widths = {1, 2, 4, 8, 12};
        const s64 robs[] = {16, 24, 32, 48, 64, 96, 128, 160, 192, 40,
                            80, 112};
        auto machinesFor = [&](size_t w) {
            std::vector<MachineConfig> ms;
            for (size_t i = 0; i < w; ++i) {
                Config knobs;
                knobs.set("core.rob", robs[i]);
                ms.push_back(makeMachine(SimdKind::VMMX128, 4, knobs));
            }
            return ms;
        };

        // Oracle per width: independent fused serial runs.
        std::map<size_t, std::vector<RunResult>> oracle;
        for (size_t w : widths)
            for (const MachineConfig &m : machinesFor(w))
                oracle[w].push_back(runTrace(m, stream));

        TextTable table({"step kernel", "batch", "wall s",
                         "lane-insts/s", "vs serial"});
        // Width 1 dispatches to the fused serial step regardless of the
        // pinned path; time it once as every path's shared first row.
        double tSerial1 = 1e9;
        {
            auto ms = machinesFor(1);
            for (int r = 0; r < reps; ++r) {
                auto t0 = clock_t_::now();
                std::vector<RunResult> runs;
                for (int it = 0; it < passes; ++it)
                    runs = runTraceBatch(ms, stream);
                tSerial1 = std::min(tSerial1,
                                    seconds(t0, clock_t_::now()));
                if (!(runs[0] == oracle[1][0]))
                    identical = false;
            }
            tSerial1 /= passes;
            table.addRow({"serial fused", "1", TextTable::num(tSerial1, 4),
                          TextTable::num(double(records) / tSerial1, 0),
                          TextTable::num(1.0)});
        }

        for (simd::Path path : runnablePaths()) {
            pin(path);
            for (size_t w : widths) {
                if (w < 2)
                    continue; // the shared serial row above
                auto ms = machinesFor(w);
                double t = 1e9;
                std::vector<RunResult> runs;
                for (int r = 0; r < reps; ++r) {
                    auto t0 = clock_t_::now();
                    for (int it = 0; it < passes; ++it)
                        runs = runTraceBatch(ms, stream);
                    t = std::min(t, seconds(t0, clock_t_::now()));
                }
                t /= passes;
                for (size_t i = 0; i < runs.size(); ++i)
                    if (!(runs[i] == oracle[w][i])) {
                        identical = false;
                        std::cout << "MISMATCH " << simd::pathName(path)
                                  << " w" << w << " config " << i << "\n";
                    }
                double laneIps = double(records) * double(w) / t;
                // vs serial: the same W configs as W fused serial
                // passes would cost W * tSerial1.
                double vsSerial = double(w) * tSerial1 / t;
                table.addRow({simd::pathName(path), std::to_string(w),
                              TextTable::num(t, 4),
                              TextTable::num(laneIps, 0),
                              TextTable::num(vsSerial)});
            }
        }
        simd::setActivePathAuto();
        table.print(std::cout);
    }

    // ---- gate: host-SIMD step kernels on a wide group ----------------
    // One trace replayed on 12 knob variants -- wide enough that every
    // compiled path runs full vectors (AVX-512 steps 8 configs per op)
    // plus a partial tail.  Each runnable path is pinned in turn and
    // timed on the same pre-decoded stream; every path must match the
    // fused per-config serial runs (runTrace x 12) bit for bit.  The
    // acceptance gate: every vector path must clear its gateBound()
    // multiple of the scalar SoA reference's points/s on this wide
    // group.  The group runs the rgb
    // trace -- the longest, most compute-dominated kernel -- because
    // the gate measures the vectorized timing phases; the short branchy
    // kernels spend most of their stepping in the per-lane scalar
    // sub-phases (memory disambiguation) that no path can vectorize,
    // which caps their speedup by Amdahl.
    bool simdGate = true;
    {
        std::vector<MachineConfig> wideGroup;
        for (s64 rob : {16, 24, 32, 40, 48, 64, 80, 96, 112, 128, 160,
                        192}) {
            Config knobs;
            knobs.set("core.rob", rob);
            wideGroup.push_back(makeMachine(SimdKind::VMMX128, 4, knobs));
        }
        std::vector<RunResult> oracle;
        for (const MachineConfig &m : wideGroup)
            oracle.push_back(runTrace(m, stream));

        // The group is a few milliseconds per pass; time several
        // passes per rep so the gate rests on stable numbers.
        constexpr int passes = 20;
        auto gpps = [&](double t) {
            return wideGroup.size() * passes / t;
        };
        TextTable simdTable({"step kernel (12-config group)", "wall s",
                             "points/s", "vs scalar SoA", "bound"});
        // Every rep times the scalar SoA reference and then each vector
        // path back to back, so each ratio compares passes run moments
        // apart; the gate takes each path's median ratio over the reps,
        // which a burst of host noise in one rep cannot move.
        const std::vector<simd::Path> paths = runnablePaths();
        constexpr int simdReps = 5;
        std::vector<double> tPath(paths.size(), 1e9);
        std::vector<std::vector<double>> ratios(paths.size());
        for (int r = 0; r < simdReps; ++r) {
            double tScalar = 0;
            for (size_t p = 0; p < paths.size(); ++p) {
                pin(paths[p]);
                std::vector<RunResult> runs;
                auto t0 = clock_t_::now();
                for (int it = 0; it < passes; ++it)
                    runs = runTraceBatch(wideGroup, stream);
                double t = seconds(t0, clock_t_::now());
                if (paths[p] == simd::Path::Scalar)
                    tScalar = t;
                tPath[p] = std::min(tPath[p], t);
                ratios[p].push_back(tScalar / t);
                for (size_t i = 0; r == 0 && i < oracle.size(); ++i)
                    if (!(runs[i] == oracle[i])) {
                        identical = false;
                        std::cout << "MISMATCH " << simd::pathName(paths[p])
                                  << " vs serial at config " << i << "\n";
                    }
            }
        }
        for (size_t p = 0; p < paths.size(); ++p) {
            std::vector<double> &rs = ratios[p];
            std::nth_element(rs.begin(), rs.begin() + rs.size() / 2,
                             rs.end());
            double medianRatio = rs[rs.size() / 2];
            double bound = gateBound(paths[p]);
            std::string verdict = "-";
            if (bound > 0) {
                bool pass = medianRatio >= bound;
                simdGate = simdGate && pass;
                verdict = TextTable::num(bound) + "x " +
                          (pass ? "PASS" : "FAIL");
            }
            simdTable.addRow(
                {std::string("SoA ") + simd::pathName(paths[p]) + " (" +
                     std::to_string(simd::pathLanes(paths[p])) + " lanes)",
                 TextTable::num(tPath[p], 3),
                 TextTable::num(gpps(tPath[p]), 1),
                 TextTable::num(medianRatio), verdict});
        }
        simd::setActivePathAuto();
        std::cout << '\n';
        simdTable.print(std::cout);
        // The gate only binds where a vector path can actually run; a
        // scalar-only host (or build) still reports its numbers.
        bool vectorRunnable = paths.size() > 1; // scalar always runs
        if (vectorRunnable) {
            std::cout << "every SIMD path vs its bound over scalar SoA "
                         "(median of "
                      << simdReps << " interleaved reps): "
                      << (simdGate ? "PASS" : "FAIL") << "\n";
        } else {
            std::cout << "no vector path compiled+supported on this host; "
                         "SIMD gate skipped\n";
        }
    }

    std::cout << "\nresults bit-identical across paths and widths: "
              << (identical ? "yes" : "NO") << '\n';
    return identical && simdGate ? 0 : 1;
}
