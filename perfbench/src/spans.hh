/**
 * @file
 * Span recording for the traced run.
 *
 * Spans are recorded by the benchmark around its calls into each
 * layer's public entry points, never inside the program.  Each worker
 * thread owns one SpanLog (no locking on the hot path); a span knows
 * its parent (the innermost span open on the same thread when it
 * began) and the schedulable unit it belongs to.  Logs stay in memory
 * and are written out once, as Chrome trace-event JSON that Perfetto
 * (ui.perfetto.dev) and chrome://tracing load directly.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace perfbench
{

using vmmx::s32;
using vmmx::u32;
using vmmx::u64;

struct Span
{
    const char *name = ""; ///< layer span name (static storage)
    u64 startNs = 0;
    u64 endNs = 0;
    s32 parent = -1;       ///< index into the same log; -1 = root
    u32 unit = 0;          ///< schedulable unit id
};

/** One thread's spans, in begin order. */
class SpanLog
{
  public:
    explicit SpanLog(u32 tid = 0) : tid_(tid) {}

    u32 begin(const char *name, u32 unit);
    void end(u32 index);

    u32 tid() const { return tid_; }
    const std::vector<Span> &spans() const { return spans_; }
    /** Append a completed span (tests and synthetic logs). */
    void add(const Span &s) { spans_.push_back(s); }

  private:
    u32 tid_;
    std::vector<Span> spans_;
    std::vector<u32> open_;
};

/** RAII span on one thread's log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, u32 unit)
        : log_(log), index_(log.begin(name, unit))
    {}
    ~ScopedSpan() { log_.end(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    u32 index_;
};

/**
 * Self time of every span of @p log: its duration minus the part of
 * its interval that its children cover (overlapping children counted
 * once, children clipped to the parent).  Parallel to log.spans().
 */
std::vector<u64> selfTimes(const SpanLog &log);

/** Self time in seconds summed per span name over @p logs. */
std::map<std::string, double> selfSecondsByName(
    const std::vector<SpanLog> &logs);

/** Write @p logs as a Chrome trace-event JSON document (complete "X"
 *  events, one track per thread, timestamps relative to @p originNs). */
void writeTraceEvents(std::ostream &os, const std::vector<SpanLog> &logs,
                      u64 originNs);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
