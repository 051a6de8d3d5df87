/**
 * @file
 * Order statistics for repeated timings.
 *
 * Quartiles use the same "exclusive" interpolation as Python's
 * statistics.quantiles(data, n=4), so the spread this binary prints is
 * the spread an external script computes from the same samples.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <string>
#include <vector>

namespace perfbench
{

/** Median, quartiles and the reportable tail of one sample set. */
struct Summary
{
    size_t n = 0;
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    /** Highest percentile with >= 10 samples beyond it (0.5, 0.9,
     *  0.95, 0.99 or 0.999), or 0 when even the median has fewer. */
    double tailP = 0;
    double tail = 0;
};

/** statistics.quantiles(@p data, n=4) (method "exclusive"). */
std::vector<double> quartiles(std::vector<double> data);

/** statistics.median(@p data). */
double median(std::vector<double> data);

/** Exclusive-method percentile: position p * (n + 1), interpolated. */
double percentile(std::vector<double> data, double p);

/** The highest percentile of the ladder with at least ten of @p n
 *  samples beyond it; 0 when there is none. */
double tailPercentile(size_t n);

Summary summarize(const std::vector<double> &data);

/** "median 1.02 [q1 0.99, q3 1.05] n=5, p90 1.10" or "... no tail
 *  percentile (n=5 < 20)". */
std::string describe(const Summary &s);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
