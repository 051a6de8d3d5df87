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
    // Human-readable prefix plus a hash of the full key and generator
    // version: collision-free even if a workload name holds separators.
    wire::Writer kw;
    serialize(kw, key);
    kw.fixed32(traceGenVersion);
    u64 h = wire::fnv1a(kw.buffer().data(), kw.size());

    std::ostringstream name;
    name << (key.isApp ? "app-" : "kernel-");
    for (char c : key.name)
        name << (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    name << '-' << vmmx::name(key.kind) << '-' << std::hex << h << ".vmtr";
    return (fs::path(dir_) / name.str()).string();
}

void
TraceStore::reject(const std::string &file, const char *why)
{
    warn("trace store: '%s' %s; regenerating", file.c_str(), why);
    ++misses_;
}

std::optional<wire::Reader>
TraceStore::open(const TraceKey &key, std::vector<u8> &bytes)
{
    const std::string file = path(key);
    std::ifstream in(file, std::ios::binary | std::ios::ate);
    if (!in) {
        ++misses_;
        return std::nullopt;
    }
    // One sized read of the whole file.
    const std::streamoff size = in.tellg();
    bytes.assign(size > 0 ? size_t(size) : 0, 0);
    if (size < 0 || !in.seekg(0) ||
        !in.read(reinterpret_cast<char *>(bytes.data()), size)) {
        reject(file, "cannot be read");
        return std::nullopt;
    }
    // Checksum covers everything before the trailing fixed64.
    if (bytes.size() < 8 + 8) {
        reject(file, "is truncated");
        return std::nullopt;
    }
    wire::Reader tail(bytes.data() + bytes.size() - 8, 8);
    if (tail.fixed64() != wire::fnv1a(bytes.data(), bytes.size() - 8)) {
        reject(file, "fails its checksum");
        return std::nullopt;
    }
    wire::Reader r(bytes.data(), bytes.size() - 8);
    TraceKey stored;
    if (r.fixed32() != storeMagic || r.fixed32() != storeVersion ||
        !deserialize(r, stored) || !(stored == key)) {
        reject(file, "is not a trace for its key");
        return std::nullopt;
    }
    return r;
}

bool
TraceStore::finish(const TraceKey &key, bool ok)
{
    if (ok)
        ++loads_;
    else
        reject(path(key), "holds a malformed record");
    return ok;
}

SharedTrace
TraceStore::load(const TraceKey &key)
{
    std::vector<u8> bytes;
    std::optional<wire::Reader> r = open(key, bytes);
    auto trace = std::make_shared<std::vector<InstRecord>>();
    if (!r || !finish(key, decodeTrace(*r, *trace) && r->atEnd()))
        return nullptr;
    return trace;
}

namespace
{

/** The file header: magic, version, key. */
wire::Writer
header(const TraceKey &key)
{
    wire::Writer w;
    w.fixed32(storeMagic);
    w.fixed32(storeVersion);
    serialize(w, key);
    return w;
}

} // namespace

// The buffer starts as a copy of the header: room that finish() moves
// the header to the end of, next to the count.
TraceStore::Image::Image(const TraceKey &key)
    : header_(header(key)), w_(header_), records_(w_)
{
}

void
TraceStore::Image::finish()
{
    payload_ = records_.finish();
    begin_ = payload_ - header_.size();
    w_.patch(begin_, header_.buffer().data(), header_.size());
}

std::span<const u8>
TraceStore::Image::bytes() const
{
    return {w_.buffer().data() + begin_, w_.size() - begin_};
}

wire::Reader
TraceStore::Image::payload() const
{
    return {w_.buffer().data() + payload_, w_.size() - payload_};
}

bool
TraceStore::write(const TraceKey &key, std::span<const u8> image)
{
    // The checksum covers the whole image and trails it.
    wire::Writer sum;
    sum.fixed64(wire::fnv1a(image.data(), image.size()));

    const std::string file = path(key);
    const std::string tmp = file + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out ||
            !out.write(asChars(image.data()), std::streamsize(image.size())) ||
            !out.write(asChars(sum.buffer().data()),
                       std::streamsize(sum.size())) ||
            !out.flush()) {
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
TraceStore::save(const TraceKey &key, const std::vector<InstRecord> &trace)
{
    wire::Writer w = header(key);
    encodeTrace(trace, w);
    return write(key, w.buffer());
}

bool
TraceStore::contains(const TraceKey &key) const
{
    std::error_code ec;
    return fs::exists(path(key), ec) && !ec;
}

} // namespace vmmx
