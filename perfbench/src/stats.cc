#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

std::vector<double>
quartiles(std::vector<double> data)
{
    std::sort(data.begin(), data.end());
    const long ld = long(data.size());
    if (ld == 0)
        return {0, 0, 0};
    if (ld == 1)
        return {data[0], data[0], data[0]};
    // Python's exclusive method, integer arithmetic included: m = n+1,
    // j = i*m // 4 clamped to [1, ld-1], delta = i*m - j*4.
    const long n = 4, m = ld + 1;
    std::vector<double> out;
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        out.push_back((data[j - 1] * double(n - delta) +
                       data[j] * double(delta)) / double(n));
    }
    return out;
}

double
median(std::vector<double> data)
{
    if (data.empty())
        return 0;
    std::sort(data.begin(), data.end());
    size_t k = data.size() / 2;
    return data.size() % 2 ? data[k] : (data[k - 1] + data[k]) / 2;
}

double
percentile(std::vector<double> data, double p)
{
    if (data.empty())
        return 0;
    std::sort(data.begin(), data.end());
    double h = std::clamp(p * double(data.size() + 1), 1.0,
                          double(data.size()));
    size_t lo = size_t(std::floor(h));
    double frac = h - double(lo);
    if (lo >= data.size())
        return data.back();
    return data[lo - 1] + frac * (data[lo] - data[lo - 1]);
}

double
tailPercentile(size_t n)
{
    static constexpr double ladder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
    for (double p : ladder) {
        // Samples strictly beyond the percentile, rounded down; the
        // epsilon absorbs binary rounding of (1 - p) * n.
        if (std::floor((1.0 - p) * double(n) + 1e-9) >= 10)
            return p;
    }
    return 0;
}

Summary
summarize(const std::vector<double> &data)
{
    Summary s;
    s.n = data.size();
    s.median = median(data);
    std::vector<double> q = quartiles(data);
    s.q1 = q[0];
    s.q3 = q[2];
    s.tailP = tailPercentile(data.size());
    if (s.tailP > 0)
        s.tail = percentile(data, s.tailP);
    return s;
}

std::string
describe(const Summary &s)
{
    char buf[256];
    int len = std::snprintf(buf, sizeof buf,
                            "median %.6g [q1 %.6g, q3 %.6g] n=%zu", s.median,
                            s.q1, s.q3, s.n);
    if (s.tailP > 0)
        std::snprintf(buf + len, sizeof buf - size_t(len), ", p%g %.6g",
                      s.tailP * 100, s.tail);
    else
        std::snprintf(buf + len, sizeof buf - size_t(len),
                      ", no tail percentile (n=%zu < 20)", s.n);
    return buf;
}

} // namespace perfbench
