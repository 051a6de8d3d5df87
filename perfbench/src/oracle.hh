/**
 * @file
 * The benchmark's correctness oracle.
 *
 * A grid point's outcome is summarised as a digest: FNV-1a over the
 * wire encoding of its RunResult followed by its traceLength.  Golden
 * digests for the default trace seed are committed in golden/ and were
 * produced by runSweepPoint(point, policy, useDecoded=false), the
 * decode-on-the-fly serial reference; every timed and traced result is
 * checked against them by point label.  Points that come back with the
 * wrong label (missing or quarantined results are default-constructed)
 * count as failures too.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace perfbench
{

using vmmx::SweepPoint;
using vmmx::SweepResult;
using vmmx::u64;

struct Golden
{
    u64 traceLength = 0;
    u64 cycles = 0;
    u64 digest = 0;
};

/** Golden digests keyed by SweepPoint::label(). */
using GoldenTable = std::map<std::string, Golden>;

u64 digestOf(const SweepResult &r);

/** Parse a golden file. @return false with @p err on IO or syntax
 *  errors. */
bool loadGolden(const std::string &path, GoldenTable &table,
                std::string &err);

/** Write @p results as a golden file (header comment lines first). */
bool writeGolden(const std::string &path, const std::string &header,
                 const std::vector<SweepResult> &results);

/**
 * Count the points of @p points whose result in @p results is missing,
 * mislabelled, or differs from @p expected (parallel digests).  The
 * first few failures are appended to @p failures as human lines.
 */
u64 countFailures(const std::vector<SweepPoint> &points,
                  const std::vector<SweepResult> &results,
                  const std::vector<u64> &expected,
                  std::vector<std::string> &failures);

/** The golden digests of @p points, in point order; a label missing
 *  from @p table yields digest 0, so the point reads as a mismatch. */
std::vector<u64> expectedDigests(const std::vector<SweepPoint> &points,
                                 const GoldenTable &table);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
