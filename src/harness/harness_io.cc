#include "harness/harness_io.hh"

#include <map>
#include <sstream>

#include "common/env.hh"
#include "dist/driver.hh"
#include "trace/trace_io.hh"

namespace vmmx
{

// ---- codec lockstep guards ----------------------------------------------
// The wire layer must serialize every field of these structs, and the
// distributed determinism guarantee rests on that: a field added to
// RunStats or RunResult but not to the codecs below would silently
// decode as zero on the driver side.  The struct sizes below are the
// serialized field counts times the field width (every member is a u64
// or an array of u64, so there is no padding); a new field trips the
// assert until the matching serialize()/deserialize() pair -- and the
// count here -- are updated together.
constexpr size_t runStatsWireFields = 10 + numInstClasses;
static_assert(sizeof(RunStats) == runStatsWireFields * sizeof(u64),
              "RunStats gained or lost a field: update serialize()/"
              "deserialize() and runStatsWireFields in lockstep");

constexpr size_t runResultOwnWireFields = 6; // memory-system counters
static_assert(sizeof(RunResult) ==
                  sizeof(RunStats) + runResultOwnWireFields * sizeof(u64),
              "RunResult gained or lost a field: update serialize()/"
              "deserialize() and runResultOwnWireFields in lockstep");

// Config serializes its whole key/value map, so any new state would be a
// new member next to it -- which this size check catches.
static_assert(sizeof(Config) == sizeof(std::map<std::string, std::string>),
              "Config gained a member the key/value codec cannot see: "
              "extend serialize()/deserialize() and this guard");

// ExecutionPolicy and DistStats have members of mixed widths, so their
// guards are member-for-member mirror structs: identical member types in
// identical order guarantee identical sizeof, and a field added to the
// real struct but not here (and not to its codec/report) trips the
// assert.  ExecutionPolicy's declarative fields round-trip through the
// [exec] spec section (formatStudySpec/parseStudySpec below); DistStats
// feeds its own summary() and the vmmx_study per-worker report.
namespace
{

struct ExecutionPolicyMirror
{
    ExecutionPolicy::Backend backend;
    unsigned threads;
    unsigned processes;
    bool batch;
    bool decoded;
    u64 rawBudget;
    u64 decodedBudget;
    std::string storeDir;
    std::string journalPath;
    unsigned maxRespawns;
    u64 unitTimeoutMs;
    unsigned maxUnitAttempts;
    TraceRepository *repo;
    dist::DistStats *distStats;
    std::string execPath;
    std::vector<std::string> execArgs;
    std::string faultSpec;
    bool journalSync;
};

struct SweepPointMirror
{
    SweepPoint::Workload workload;
    std::string name;
    SimdKind kind;
    unsigned way;
    Config overrides;
    SharedTrace trace;
};

struct DistStatsMirror
{
    u64 generations, hits, diskLoads, storeSaves, bytesResident, decodes,
        decodedHits, decodedBytes;
    std::vector<dist::WorkerTierStats> perWorker;
    u64 jobsRun, jobsResumed, groupsRun, steals;
    unsigned workers;
    u64 respawns, reassignedUnits, retries, quarantinedUnits;
    std::vector<u32> quarantinedPoints;
    bool degraded;
    u64 degradedJobs, abnormalExits, journalSkipped;
    std::vector<dist::WorkerExit> exitCauses;
};

} // namespace

static_assert(sizeof(SweepPoint) == sizeof(SweepPointMirror),
              "SweepPoint gained or lost a field: update serialize()/"
              "deserialize(), label(), and this mirror in lockstep");

static_assert(sizeof(ExecutionPolicy) == sizeof(ExecutionPolicyMirror),
              "ExecutionPolicy gained or lost a field: update the [exec] "
              "spec codec (or fromEnv() for runtime-only fields), "
              "operator==, and this mirror in lockstep");

static_assert(sizeof(dist::DistStats) == sizeof(DistStatsMirror),
              "DistStats gained or lost a field: update summary(), the "
              "vmmx_study report, and this mirror in lockstep");

void
serialize(wire::Writer &w, const Config &c)
{
    auto keys = c.keys();
    w.varint(keys.size());
    for (const auto &k : keys) {
        w.str(k);
        w.str(c.getString(k));
    }
}

bool
deserialize(wire::Reader &r, Config &c)
{
    c = Config();
    u64 n = r.varint();
    if (n > r.remaining())
        return false;
    for (u64 i = 0; i < n; ++i) {
        std::string k = r.str();
        std::string v = r.str();
        if (!r.ok())
            return false;
        c.set(k, v);
    }
    return r.ok();
}

void
serialize(wire::Writer &w, const RunStats &s)
{
    w.varint(s.cycles);
    w.varint(s.instructions);
    for (u64 v : s.instByClass)
        w.varint(v);
    w.varint(s.scalarCycles);
    w.varint(s.vectorCycles);
    w.varint(s.branches);
    w.varint(s.mispredicts);
    w.varint(s.memOps);
    w.varint(s.renameStallRegs);
    w.varint(s.renameStallRob);
    w.varint(s.renameStallIq);
}

bool
deserialize(wire::Reader &r, RunStats &s)
{
    s.cycles = r.varint();
    s.instructions = r.varint();
    for (u64 &v : s.instByClass)
        v = r.varint();
    s.scalarCycles = r.varint();
    s.vectorCycles = r.varint();
    s.branches = r.varint();
    s.mispredicts = r.varint();
    s.memOps = r.varint();
    s.renameStallRegs = r.varint();
    s.renameStallRob = r.varint();
    s.renameStallIq = r.varint();
    return r.ok();
}

void
serialize(wire::Writer &w, const RunResult &res)
{
    serialize(w, res.core);
    w.varint(res.l1Hits);
    w.varint(res.l1Misses);
    w.varint(res.l2Hits);
    w.varint(res.l2Misses);
    w.varint(res.vecAccesses);
    w.varint(res.cohInvalidations);
}

bool
deserialize(wire::Reader &r, RunResult &res)
{
    if (!deserialize(r, res.core))
        return false;
    res.l1Hits = r.varint();
    res.l1Misses = r.varint();
    res.l2Hits = r.varint();
    res.l2Misses = r.varint();
    res.vecAccesses = r.varint();
    res.cohInvalidations = r.varint();
    return r.ok();
}

void
serialize(wire::Writer &w, const SweepPoint &p)
{
    w.byte(static_cast<u8>(p.workload));
    w.str(p.name);
    w.byte(static_cast<u8>(p.kind));
    w.varint(p.way);
    serialize(w, p.overrides);
    // Explicit-trace points ship the trace itself: a worker process has
    // no other way to reconstruct a caller-built program.  This costs
    // one full encode per grid point sharing the trace (plus one in
    // gridSignature); if explicit-trace grids ever grow beyond a few
    // ways, spill the trace to the TraceStore once and ship its key.
    w.boolean(p.trace != nullptr);
    if (p.trace)
        encodeTrace(*p.trace, w);
}

bool
deserialize(wire::Reader &r, SweepPoint &p)
{
    u8 workload = r.byte();
    if (workload > static_cast<u8>(SweepPoint::Workload::Trace))
        return false;
    p.workload = static_cast<SweepPoint::Workload>(workload);
    p.name = r.str();
    u8 kind = r.byte();
    if (kind > static_cast<u8>(SimdKind::VMMX128))
        return false;
    p.kind = static_cast<SimdKind>(kind);
    p.way = unsigned(r.varint());
    if (!deserialize(r, p.overrides))
        return false;
    p.trace = nullptr;
    if (r.boolean()) {
        auto t = std::make_shared<std::vector<InstRecord>>();
        if (!decodeTrace(r, *t))
            return false;
        p.trace = std::move(t);
    }
    return r.ok();
}

// ---- study spec text codec -----------------------------------------------

namespace
{

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string item;
    while (std::getline(in, item, ','))
        if (!trim(item).empty())
            out.push_back(trim(item));
    return out;
}

template <typename T, typename F>
std::string
joinNames(const std::vector<T> &items, F &&nameOf)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ",";
        out += nameOf(items[i]);
    }
    return out;
}

/** Non-fatal SimdKind lookup (parseSimdKind aborts on junk). */
bool
lookupSimdKind(const std::string &text, SimdKind &kind)
{
    for (SimdKind k : allSimdKinds) {
        if (text == name(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

std::string
flagText(bool v)
{
    return v ? "on" : "off";
}

/**
 * Strings embedded in spec text must survive the line-based format: a
 * newline would end the line (or open a bogus section), edge
 * whitespace would be trimmed away on re-parse, a comma in a list item
 * would be taken for a separator, and '=' in an override key would
 * shift the key/value split -- each silently breaking the
 * parse(format(spec)) == spec contract, so formatting such a spec is a
 * fatal user error instead.
 */
void
checkSpecValue(const char *what, const std::string &s, bool listItem,
               bool overrideKey = false)
{
    if (s.find('\n') != std::string::npos ||
        s.find('\r') != std::string::npos || s != trim(s) ||
        (listItem && s.find(',') != std::string::npos) ||
        (overrideKey && (s.empty() || s.find('=') != std::string::npos)))
        fatal("study spec text cannot represent %s '%s' (newlines, edge "
              "whitespace%s do not survive the key=value format)",
              what, s.c_str(),
              listItem ? ", commas" : (overrideKey ? ", '='" : ""));
}

} // namespace

std::string
formatStudySpec(const StudySpec &spec)
{
    std::ostringstream os;
    auto listItem = [](const char *what) {
        return [what](const std::string &s) {
            checkSpecValue(what, s, /*listItem=*/true);
            return s;
        };
    };
    checkSpecValue("title", spec.title, /*listItem=*/false);
    os << "# vmmx study spec\n";
    os << "title = " << spec.title << "\n";
    os << "\n[grid]\n";
    os << "kernels = " << joinNames(spec.kernels, listItem("kernel name"))
       << "\n";
    os << "apps = " << joinNames(spec.apps, listItem("app name")) << "\n";
    os << "kinds = "
       << joinNames(spec.kinds, [](SimdKind k) { return name(k); }) << "\n";
    os << "ways = "
       << joinNames(spec.ways,
                    [](unsigned w) { return std::to_string(w); })
       << "\n";
    for (const Config &set : spec.overrideSets) {
        os << "override = "
           << joinNames(set.keys(),
                        [&](const std::string &k) {
                            checkSpecValue("override key", k,
                                           /*listItem=*/true,
                                           /*overrideKey=*/true);
                            checkSpecValue("override value",
                                           set.getString(k),
                                           /*listItem=*/true);
                            return k + "=" + set.getString(k);
                        })
           << "\n";
    }

    const ExecutionPolicy &e = spec.exec;
    os << "\n[exec]\n";
    os << "backend = " << name(e.backend) << "\n";
    os << "threads = " << e.threads << "\n";
    os << "processes = " << e.processes << "\n";
    os << "batch = " << flagText(e.batch) << "\n";
    os << "decoded = " << flagText(e.decoded) << "\n";
    os << "raw_budget = " << e.rawBudget << "\n";
    os << "decoded_budget = " << e.decodedBudget << "\n";
    checkSpecValue("store directory", e.storeDir, /*listItem=*/false);
    os << "store = " << e.storeDir << "\n";
    checkSpecValue("journal path", e.journalPath, /*listItem=*/false);
    os << "journal = " << e.journalPath << "\n";
    os << "max_respawns = " << e.maxRespawns << "\n";
    os << "unit_timeout_ms = " << e.unitTimeoutMs << "\n";
    os << "max_unit_attempts = " << e.maxUnitAttempts << "\n";

    const ReportSpec &r = spec.report;
    os << "\n[report]\n";
    os << "layout = " << name(r.layout) << "\n";
    os << "metrics = "
       << joinNames(r.metrics, [](ReportSpec::Metric m) { return name(m); })
       << "\n";
    os << "pivot_metric = " << name(r.pivot) << "\n";
    os << "baseline = " << name(r.baselineKind) << "/" << r.baselineWay
       << "\n";
    os << "geomean = " << flagText(r.geomean) << "\n";
    os << "precision = " << r.precision << "\n";
    return os.str();
}

bool
parseStudySpec(const std::string &text, StudySpec &spec, std::string &err)
{
    spec = StudySpec();

    std::istringstream in(text);
    std::string rawLine, section;
    int lineNo = 0;
    auto fail = [&](const std::string &what) {
        err = "line " + std::to_string(lineNo) + ": " + what;
        return false;
    };

    while (std::getline(in, rawLine)) {
        ++lineNo;
        std::string line = trim(rawLine);
        if (line.empty() || line[0] == '#')
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                return fail("malformed section header '" + line + "'");
            section = line.substr(1, line.size() - 2);
            if (section != "grid" && section != "exec" &&
                section != "report")
                return fail("unknown section [" + section + "]");
            continue;
        }

        size_t eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected 'key = value', got '" + line + "'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));

        auto parseFlagValue = [&](bool &out) {
            if (!env::parseFlag(value.c_str(), out))
                return fail("'" + key + "' wants on/off, got '" + value +
                            "'");
            return true;
        };
        auto parseBudgetValue = [&](u64 &out) {
            if (!env::parseByteSize(value.c_str(), out))
                return fail("'" + key + "' wants a byte size, got '" +
                            value + "'");
            return true;
        };
        auto parseUnsignedValue = [&](unsigned &out) {
            if (!env::parseUnsigned(value.c_str(), out))
                return fail("'" + key + "' wants a number, got '" + value +
                            "'");
            return true;
        };

        if (section.empty()) {
            if (key == "title")
                spec.title = value;
            else
                return fail("unknown top-level key '" + key + "'");
        } else if (section == "grid") {
            if (key == "kernels")
                spec.kernels = splitList(value);
            else if (key == "apps")
                spec.apps = splitList(value);
            else if (key == "kinds") {
                spec.kinds.clear();
                for (const auto &k : splitList(value)) {
                    SimdKind kind;
                    if (!lookupSimdKind(k, kind))
                        return fail("unknown SIMD flavour '" + k + "'");
                    spec.kinds.push_back(kind);
                }
            } else if (key == "ways") {
                spec.ways.clear();
                for (const auto &w : splitList(value)) {
                    unsigned way = 0;
                    if (!env::parseUnsigned(w.c_str(), way) || way == 0)
                        return fail("bad machine width '" + w + "'");
                    spec.ways.push_back(way);
                }
            } else if (key == "override") {
                Config set;
                for (const auto &assignment : splitList(value)) {
                    size_t aeq = assignment.find('=');
                    if (aeq == std::string::npos || aeq == 0)
                        return fail("override wants comma-separated "
                                    "knob=value pairs, got '" +
                                    assignment + "'");
                    set.set(trim(assignment.substr(0, aeq)),
                            trim(assignment.substr(aeq + 1)));
                }
                spec.overrideSets.push_back(std::move(set));
            } else {
                return fail("unknown [grid] key '" + key + "'");
            }
        } else if (section == "exec") {
            if (key == "backend") {
                if (!parseBackend(value, spec.exec.backend))
                    return fail("unknown backend '" + value +
                                "' (want serial/threads/processes)");
            } else if (key == "threads") {
                if (!parseUnsignedValue(spec.exec.threads))
                    return false;
            } else if (key == "processes") {
                if (!parseUnsignedValue(spec.exec.processes) ||
                    spec.exec.processes == 0)
                    return fail("'processes' must be >= 1");
            } else if (key == "batch") {
                if (!parseFlagValue(spec.exec.batch))
                    return false;
            } else if (key == "decoded") {
                if (!parseFlagValue(spec.exec.decoded))
                    return false;
            } else if (key == "raw_budget") {
                if (!parseBudgetValue(spec.exec.rawBudget))
                    return false;
            } else if (key == "decoded_budget") {
                if (!parseBudgetValue(spec.exec.decodedBudget))
                    return false;
            } else if (key == "store") {
                spec.exec.storeDir = value;
            } else if (key == "journal") {
                spec.exec.journalPath = value;
            } else if (key == "max_respawns") {
                if (!parseUnsignedValue(spec.exec.maxRespawns))
                    return false;
            } else if (key == "unit_timeout_ms") {
                // Plain count, not a byte size; 32 bits of milliseconds
                // is 49 days of deadline, enough for any unit.
                unsigned ms = 0;
                if (!parseUnsignedValue(ms))
                    return false;
                spec.exec.unitTimeoutMs = ms;
            } else if (key == "max_unit_attempts") {
                if (!parseUnsignedValue(spec.exec.maxUnitAttempts) ||
                    spec.exec.maxUnitAttempts == 0)
                    return fail("'max_unit_attempts' must be >= 1");
            } else {
                return fail("unknown [exec] key '" + key + "'");
            }
        } else if (section == "report") {
            if (key == "layout") {
                if (!parseLayout(value, spec.report.layout))
                    return fail("unknown layout '" + value +
                                "' (want points/pivot)");
            } else if (key == "metrics") {
                spec.report.metrics.clear();
                for (const auto &m : splitList(value)) {
                    ReportSpec::Metric metric;
                    if (!parseMetric(m, metric))
                        return fail("unknown metric '" + m + "'");
                    spec.report.metrics.push_back(metric);
                }
            } else if (key == "pivot_metric") {
                if (!parseMetric(value, spec.report.pivot))
                    return fail("unknown metric '" + value + "'");
            } else if (key == "baseline") {
                size_t slash = value.find('/');
                if (slash == std::string::npos)
                    return fail("baseline wants kind/way, e.g. mmx64/2");
                if (!lookupSimdKind(value.substr(0, slash),
                                    spec.report.baselineKind))
                    return fail("unknown SIMD flavour '" +
                                value.substr(0, slash) + "'");
                if (!env::parseUnsigned(value.substr(slash + 1).c_str(),
                                        spec.report.baselineWay) ||
                    spec.report.baselineWay == 0)
                    return fail("bad baseline width '" +
                                value.substr(slash + 1) + "'");
            } else if (key == "geomean") {
                if (!parseFlagValue(spec.report.geomean))
                    return false;
            } else if (key == "precision") {
                unsigned precision = 0;
                if (!parseUnsignedValue(precision))
                    return false;
                spec.report.precision = int(precision);
            } else {
                return fail("unknown [report] key '" + key + "'");
            }
        }
    }
    return true;
}

} // namespace vmmx
