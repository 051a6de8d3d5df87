#include "spans.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/telemetry.hh"

namespace perfbench
{

u32
SpanLog::begin(const char *name, u32 unit)
{
    Span s;
    s.name = name;
    s.unit = unit;
    s.parent = open_.empty() ? -1 : s32(open_.back());
    s.startNs = vmmx::telemetry::nowNs();
    spans_.push_back(s);
    open_.push_back(u32(spans_.size() - 1));
    return open_.back();
}

void
SpanLog::end(u32 index)
{
    spans_[index].endNs = vmmx::telemetry::nowNs();
    open_.pop_back();
}

std::vector<u64>
selfTimes(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    std::vector<std::vector<std::pair<u64, u64>>> children(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[size_t(s.parent)].emplace_back(s.startNs, s.endNs);

    std::vector<u64> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        u64 covered = 0;
        u64 cursor = p.startNs;
        for (auto [s, e] : kids) {
            s = std::max(s, cursor);
            e = std::min(e, p.endNs);
            if (e > s) {
                covered += e - s;
                cursor = e;
            }
        }
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanLog> &logs)
{
    std::map<std::string, double> out;
    for (const SpanLog &log : logs) {
        std::vector<u64> self = selfTimes(log);
        for (size_t i = 0; i < self.size(); ++i)
            out[log.spans()[i].name] += double(self[i]) * 1e-9;
    }
    return out;
}

void
writeTraceEvents(std::ostream &os, const std::vector<SpanLog> &logs,
                 u64 originNs)
{
    std::ios::fmtflags flags = os.flags();
    std::streamsize precision = os.precision();
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (const SpanLog &log : logs) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << log.tid() << ",\"args\":{\"name\":\"bench thread "
           << log.tid() << "\"}}";
        for (size_t i = 0; i < log.spans().size(); ++i) {
            const Span &s = log.spans()[i];
            sep();
            os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1"
               << ",\"tid\":" << log.tid()
               << ",\"ts\":" << double(s.startNs - originNs) / 1e3
               << ",\"dur\":" << double(s.endNs - s.startNs) / 1e3
               << ",\"args\":{\"unit\":" << s.unit
               << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
        }
    }
    os << "\n]}\n";
    os.flags(flags);
    os.precision(precision);
}

} // namespace perfbench
