/**
 * @file
 * Self-tests of the benchmark's own machinery: the order statistics
 * (against values from Python's statistics module), span self time on
 * nested and overlapping spans, and the oracle firing on a perturbed
 * digest.  The per-workload smoke runs live in run.py --self-test.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "oracle.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

unsigned failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

bool
sameQuartiles(const std::vector<double> &data, double q1, double q2,
              double q3)
{
    std::vector<double> q = quartiles(data);
    return near(q[0], q1) && near(q[1], q2) && near(q[2], q3);
}

void
statsTests()
{
    std::printf("order statistics\n");
    // Reference values: statistics.quantiles(data, n=4) and
    // statistics.median(data), Python 3.
    expect(sameQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25),
           "quartiles of 1..10 = [2.75, 5.5, 8.25]");
    expect(sameQuartiles({3, 1, 4, 1, 5}, 1.0, 3.0, 4.5),
           "quartiles of [3,1,4,1,5] = [1.0, 3.0, 4.5]");
    expect(sameQuartiles({2.5, 0.5}, 0.0, 1.5, 3.0),
           "quartiles of [2.5,0.5] = [0.0, 1.5, 3.0]");
    expect(sameQuartiles({7, 7, 7, 9}, 7.0, 7.0, 8.5),
           "quartiles of [7,7,7,9] = [7.0, 7.0, 8.5]");
    expect(near(median({3, 1, 4, 1, 5}), 3) && near(median({7, 7, 7, 9}), 7),
           "median of odd and even sample counts");

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(near(percentile(hundred, 0.9), 90.9),
           "p90 of 1..100 = 90.9 (statistics.quantiles(n=10)[8])");

    struct Case
    {
        size_t n;
        double p;
    };
    for (Case c : {Case{5, 0}, Case{19, 0}, Case{20, 0.5}, Case{99, 0.5},
                   Case{100, 0.9}, Case{199, 0.9}, Case{200, 0.95},
                   Case{1000, 0.99}, Case{10000, 0.999}}) {
        double got = tailPercentile(c.n);
        char what[128];
        std::snprintf(what, sizeof what,
                      "n=%zu samples: highest percentile with >= 10 beyond "
                      "is %s (got %g)",
                      c.n, c.p > 0 ? std::to_string(c.p).c_str() : "none",
                      got);
        expect(near(got, c.p), what);
    }
}

void
spanTests()
{
    std::printf("span self time\n");
    SpanLog log;
    auto span = [&](const char *name, u64 s, u64 e, s32 parent) {
        Span sp;
        sp.name = name;
        sp.startNs = s;
        sp.endNs = e;
        sp.parent = parent;
        log.add(sp);
    };
    span("root", 0, 100, -1);
    span("a", 10, 40, 0);
    span("b", 30, 60, 0);    // overlaps a: counted once in root's cover
    span("g", 15, 20, 1);    // grandchild: only a loses it
    span("c", 90, 120, 0);   // runs past root: clipped to root's end
    std::vector<u64> self = selfTimes(log);
    expect(self[0] == 40, "root: 100 - union(10..60, 90..100) = 40 (got " +
                              std::to_string(self[0]) + ")");
    expect(self[1] == 25, "a: 30 - grandchild 5 = 25 (got " +
                              std::to_string(self[1]) + ")");
    expect(self[2] == 30 && self[3] == 5 && self[4] == 30,
           "leaves keep their whole duration");

    std::vector<SpanLog> logs(1);
    {
        ScopedSpan outer(logs[0], "outer", 7);
        ScopedSpan inner(logs[0], "inner", 7);
    }
    const auto &sp = logs[0].spans();
    std::map<std::string, double> byName = selfSecondsByName(logs);
    expect(sp.size() == 2 && sp[1].parent == 0 && sp[0].unit == 7,
           "scoped spans record parent and unit");
    expect(near(byName["outer"] + byName["inner"],
                double(sp[0].endNs - sp[0].startNs) * 1e-9),
           "self times of a nested pair sum to the outer duration");
}

void
oracleTests(const std::string &workDir)
{
    std::printf("oracle\n");
    std::vector<SweepPoint> points(3);
    std::vector<SweepResult> results(3);
    for (size_t i = 0; i < 3; ++i) {
        points[i].workload = SweepPoint::Workload::App;
        points[i].name = "app" + std::to_string(i);
        points[i].way = 2u << i;
        results[i].point = points[i];
        results[i].result.core.cycles = 1000 + i;
        results[i].result.core.instructions = 700 + i;
        results[i].traceLength = 500 + i;
    }
    std::vector<u64> expected;
    for (const SweepResult &r : results)
        expected.push_back(digestOf(r));
    std::vector<std::string> why;
    expect(countFailures(points, results, expected, why) == 0,
           "matching digests pass");

    std::vector<u64> perturbed = expected;
    perturbed[1] ^= 1;
    expect(countFailures(points, results, perturbed, why) == 1,
           "a perturbed digest fails exactly its point");

    std::vector<SweepResult> missing = results;
    missing[2] = SweepResult();
    expect(countFailures(points, missing, expected, why) == 1,
           "a missing (default-constructed) result fails");

    std::vector<SweepResult> off = results;
    off[0].traceLength += 1;
    expect(countFailures(points, off, expected, why) == 1,
           "a differing traceLength fails");

    std::filesystem::create_directories(workDir);
    std::string path = workDir + "/selftest-golden.txt";
    GoldenTable table;
    std::string err;
    bool io = writeGolden(path, "# header\n", results) &&
              loadGolden(path, table, err);
    std::filesystem::remove(path);
    expect(io && expectedDigests(points, table) == expected,
           "golden file round-trips");
}

} // namespace

int
runSelfTest(const std::string &workDir)
{
    statsTests();
    spanTests();
    oracleTests(workDir);
    std::printf("%s: %u failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
