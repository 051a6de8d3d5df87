#include "trace/trace_store.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"

namespace fs = std::filesystem;

namespace vmmx
{

namespace
{

constexpr u32 storeMagic = 0x52544d56; // "VMTR" little-endian
constexpr u32 storeVersion = 1;

} // namespace

std::string
TraceStore::defaultDir()
{
    if (std::string dir = env::str("VMMX_TRACE_STORE"); !dir.empty())
        return dir;
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec)
        tmp = "/tmp";
    // Per-user: a fixed shared name under /tmp would be owned by
    // whichever user swept first and silently unwritable for the rest.
    return (tmp / ("vmmx-trace-store-" + std::to_string(::getuid())))
        .string();
}

TraceStore::TraceStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create trace store directory '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
TraceStore::path(const TraceKey &key) const
{
    // Human-readable prefix plus a hash of the full key: collision-free
    // even if a future workload name contains separator characters.
    wire::Writer kw;
    serialize(kw, key);
    u64 h = wire::fnv1a(kw.buffer().data(), kw.size());

    std::ostringstream name;
    name << (key.isApp ? "app-" : "kernel-");
    for (char c : key.name)
        name << (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    name << '-' << vmmx::name(key.kind) << '-' << std::hex << h << ".vmtr";
    return (fs::path(dir_) / name.str()).string();
}

template <typename Out>
bool
TraceStore::loadInto(const TraceKey &key, Out &out)
{
    const std::string file = path(key);
    std::ifstream in(file, std::ios::binary | std::ios::ate);
    if (!in) {
        ++misses_;
        return false;
    }
    // One sized read of the whole file.
    const std::streamoff size = in.tellg();
    std::vector<u8> bytes(size > 0 ? size_t(size) : 0);
    if (size < 0 || !in.seekg(0) ||
        !in.read(reinterpret_cast<char *>(bytes.data()), size)) {
        warn("trace store: cannot read '%s'; regenerating", file.c_str());
        ++misses_;
        return false;
    }
    in.close();

    // Checksum covers everything before the trailing fixed64.
    if (bytes.size() < 8 + 8) {
        warn("trace store: '%s' is truncated; regenerating", file.c_str());
        ++misses_;
        return false;
    }
    wire::Reader tail(bytes.data() + bytes.size() - 8, 8);
    u64 want = tail.fixed64();
    u64 got = wire::fnv1a(bytes.data(), bytes.size() - 8);
    if (want != got) {
        warn("trace store: checksum mismatch in '%s'; regenerating",
             file.c_str());
        ++misses_;
        return false;
    }

    wire::Reader r(bytes.data(), bytes.size() - 8);
    TraceKey stored;
    if (r.fixed32() != storeMagic || r.fixed32() != storeVersion ||
        !deserialize(r, stored) || !(stored == key) ||
        !decodeTrace(r, out) || !r.atEnd()) {
        warn("trace store: '%s' is not a valid trace for %s; regenerating",
             file.c_str(), key.describe().c_str());
        ++misses_;
        return false;
    }
    ++loads_;
    return true;
}

SharedTrace
TraceStore::load(const TraceKey &key)
{
    auto trace = std::make_shared<std::vector<InstRecord>>();
    if (!loadInto(key, *trace))
        return nullptr;
    return trace;
}

SharedDecoded
TraceStore::loadDecoded(const TraceKey &key)
{
    auto stream = std::make_shared<DecodedStream>();
    if (!loadInto(key, *stream))
        return nullptr;
    return stream;
}

bool
TraceStore::save(const TraceKey &key, const std::vector<InstRecord> &trace)
{
    wire::Writer w;
    w.fixed32(storeMagic);
    w.fixed32(storeVersion);
    serialize(w, key);
    encodeTrace(trace, w);
    w.fixed64(wire::fnv1a(w.buffer().data(), w.size()));

    const std::string file = path(key);
    const std::string tmp = file + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out || !out.write(asChars(w.buffer().data()),
                               std::streamsize(w.size()))) {
            warn("trace store: cannot write '%s'", tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, file, ec);
    if (ec) {
        warn("trace store: cannot publish '%s': %s", file.c_str(),
             ec.message().c_str());
        std::remove(tmp.c_str());
        return false;
    }
    ++saves_;
    return true;
}

bool
TraceStore::contains(const TraceKey &key) const
{
    std::error_code ec;
    return fs::exists(path(key), ec) && !ec;
}

} // namespace vmmx
