#!/usr/bin/env python3
"""Repository benchmark for the vmmx simulator.

Builds perfbench/ (which builds the simulator library from this
checkout's own CMakeLists.txt) in Release mode under .bench_build/, then
runs one workload in its own process and passes its output through; the
last line of standard output is the result object.

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-test             # benchmark self-tests
    python3 perfbench/run.py --regen-golden          # recompute golden digests

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "vmmx_perfbench")
WORKLOADS = ["fig5-cold", "fig5-warm", "rob-wide", "fig5-procs"]
E2E = [("wall_s", "s"), ("sim_mips", "Minst/s"), ("peak_rss_mb", "MiB"),
       ("setup_s", "s")]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the benchmark binary (a no-op when
    nothing changed).  Build output goes to stderr."""
    for need in ("CMakeLists.txt", "src", "specs/fig5.study"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a vmmx checkout" % need)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target",
                  "vmmx_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_cmd(workload, seed, seconds, trace, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--work-dir", os.path.join(BUILD, "work"),
           "--golden-dir", os.path.join(HERE, "golden"),
           "--git-sha", git_sha()]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    return cmd + list(extra)


def run_captured(cmd, env=None):
    """Run @cmd, echo its output, and return (returncode, result object
    or None)."""
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=env)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def run_all(args):
    """Every workload in its own process, then one table."""
    rows, ok = [], True
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        rc, res = run_captured(bench_cmd(w, args.seed, args.seconds,
                                         args.trace, args.extra))
        if rc != 0 or res is None:
            ok = False
        if res is None:
            continue
        rows.append((w, res))
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"]["%s.%s" % (w, name)] = m
    if not args.trace:
        print()
        print("%-11s" % "workload" +
              "".join("%20s" % ("%s [%s]" % m) for m in E2E) +
              "%20s" % "fail_ratio [ratio]")
        for w, res in rows:
            cells = "".join("%20.6g" % res["metrics"][m]["value"]
                            for m, _ in E2E)
            print("%-11s%s%20.6g" % (w, cells,
                                      res["failed"] / res["attempted"]))
    print(json.dumps(total))
    return 0 if ok and total["failed"] == 0 else 1


def self_test():
    """The binary's unit checks, then a smoke run of every workload in
    both modes, a perturbed golden digest, and a refused knob."""
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    rc = subprocess.run([BINARY, "--self-test", "--work-dir",
                         os.path.join(BUILD, "work")], cwd=ROOT).returncode
    check(rc == 0, "vmmx_perfbench --self-test")

    for w in WORKLOADS:
        for trace in (0, 1):
            rc, res = run_captured(bench_cmd(w, 0, 1, trace, ["--smoke"]))
            good = rc == 0 and res is not None and res["correct"] and \
                res["failed"] == 0 and res["attempted"] > 0
            check(good, "%s smoke, trace %d: correct" % (w, trace))
            if not good:
                continue
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                check(all(m.get(k, 0) > 0 for k, _ in E2E),
                      "%s: every end-to-end metric is positive" % w)
                continue
            check(m["harness.span_coverage"] >= 0.9,
                  "%s: layer spans cover %.3f of busy thread time (>= 0.9)"
                  % (w, m["harness.span_coverage"]))
            if w != "fig5-cold":
                check(m["emu.generate_s"] == 0,
                      "%s: emu.generate_s is 0" % w)
            if w in ("fig5-cold", "rob-wide"):
                check(m["trace.load_s"] == 0, "%s: trace.load_s is 0" % w)
            if w == "fig5-procs":
                check(m["dist.frame_bytes"] > 0,
                      "fig5-procs: dist frames were timed")

    rc, res = run_captured(bench_cmd("rob-wide", 7, 1, 0, ["--smoke"]))
    check(rc == 0 and res is not None and res["failed"] == 0,
          "rob-wide smoke at a non-default seed (runTrace spot checks)")

    golden = os.path.join(BUILD, "selftest-golden")
    shutil.rmtree(golden, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "golden"), golden)
    path = os.path.join(golden, "fig5.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("gsmdec/"):
            fields = line.split()
            fields[3] = "%016x" % (int(fields[3], 16) ^ 1)
            lines[i] = " ".join(fields)
            break
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    rc, res = run_captured(bench_cmd("fig5-warm", 0, 1, 0,
                                     ["--smoke", "--golden-dir", golden]))
    check(rc != 0 and res is not None and res["failed"] > 0 and
          not res["correct"],
          "a perturbed golden digest fails the run (exit %d)" % rc)
    shutil.rmtree(golden, ignore_errors=True)

    env = dict(os.environ, VMMX_SWEEP_BATCH="0")
    rc, _ = run_captured(bench_cmd("fig5-warm", 0, 1, 0, ["--smoke"]), env)
    check(rc == 2, "a set VMMX_SWEEP_BATCH is refused")

    print("self-test %s: %d failure(s)" %
          ("passed" if not failures else "FAILED", len(failures)))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--regen-golden", action="store_true")
    # Anything else (e.g. --smoke) is passed through to vmmx_perfbench.
    args, args.extra = ap.parse_known_args()
    if not (args.workload or args.self_test or args.regen_golden):
        ap.error("one of --workload, --self-test, --regen-golden is needed")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    if args.self_test:
        return self_test()
    if args.regen_golden:
        return subprocess.run([BINARY, "--regen-golden", "--root", ROOT,
                               "--golden-dir", os.path.join(HERE, "golden")],
                              cwd=ROOT).returncode
    if args.workload == "all":
        return run_all(args)
    sys.stdout.flush()
    return subprocess.run(bench_cmd(args.workload, args.seed, args.seconds,
                                    args.trace, args.extra),
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
