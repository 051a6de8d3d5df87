#include "oracle.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dist/wire.hh"
#include "harness/harness_io.hh"

namespace perfbench
{

u64
digestOf(const SweepResult &r)
{
    vmmx::wire::Writer w;
    vmmx::serialize(w, r.result);
    w.varint(r.traceLength);
    return vmmx::wire::fnv1a(w.buffer().data(), w.size());
}

bool
loadGolden(const std::string &path, GoldenTable &table, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open golden file '" + path + "'";
        return false;
    }
    std::string line;
    for (unsigned lineNo = 1; std::getline(in, line); ++lineNo) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label, digest;
        Golden g;
        if (!(fields >> label >> g.traceLength >> g.cycles >> digest) ||
            digest.size() != 16 ||
            std::sscanf(digest.c_str(), "%" SCNx64, &g.digest) != 1) {
            err = path + ":" + std::to_string(lineNo) + ": malformed line";
            return false;
        }
        table[label] = g;
    }
    return true;
}

bool
writeGolden(const std::string &path, const std::string &header,
            const std::vector<SweepResult> &results)
{
    std::ofstream out(path, std::ios::trunc);
    out << header;
    for (const SweepResult &r : results) {
        char digest[17];
        std::snprintf(digest, sizeof digest, "%016" PRIx64, digestOf(r));
        out << r.point.label() << ' ' << r.traceLength << ' '
            << r.result.cycles() << ' ' << digest << '\n';
    }
    return bool(out);
}

u64
countFailures(const std::vector<SweepPoint> &points,
              const std::vector<SweepResult> &results,
              const std::vector<u64> &expected,
              std::vector<std::string> &failures)
{
    u64 failed = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        std::string label = points[i].label();
        const char *why = nullptr;
        if (i >= results.size() || results[i].point.label() != label)
            why = "missing or quarantined";
        else if (digestOf(results[i]) != expected[i])
            why = "digest differs from the oracle";
        if (why) {
            ++failed;
            if (failures.size() < 8)
                failures.push_back(label + ": " + why);
        }
    }
    return failed;
}

std::vector<u64>
expectedDigests(const std::vector<SweepPoint> &points,
                const GoldenTable &table)
{
    std::vector<u64> out;
    out.reserve(points.size());
    for (const SweepPoint &p : points) {
        auto it = table.find(p.label());
        out.push_back(it == table.end() ? 0 : it->second.digest);
    }
    return out;
}

} // namespace perfbench
