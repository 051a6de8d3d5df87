#include "dist/wire.hh"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "common/logging.hh"

namespace vmmx::wire
{

u64
fnv1a(const void *data, size_t n, u64 seed)
{
    const u8 *p = static_cast<const u8 *>(data);
    u64 h = seed;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
Writer::fixed32(u32 v)
{
    u8 raw[4];
    storeLE(raw, v);
    bytes(raw, sizeof(raw));
}

void
Writer::fixed64(u64 v)
{
    u8 raw[8];
    storeLE(raw, v);
    bytes(raw, sizeof(raw));
}

void
Writer::varint(u64 v)
{
    while (v >= 0x80) {
        byte(u8(v) | 0x80);
        v >>= 7;
    }
    byte(u8(v));
}

void
Writer::svarint(s64 v)
{
    // Zigzag: small magnitudes of either sign stay in one byte.
    varint((u64(v) << 1) ^ u64(v >> 63));
}

void
Writer::str(const std::string &s)
{
    varint(s.size());
    bytes(s.data(), s.size());
}

void
Writer::bytes(const void *data, size_t n)
{
    const u8 *p = static_cast<const u8 *>(data);
    buf_.insert(buf_.end(), p, p + n);
}

void
Writer::patch(size_t at, const void *data, size_t n)
{
    vmmx_assert(at <= buf_.size() && n <= buf_.size() - at,
                "wire patch past the bytes written");
    std::memcpy(buf_.data() + at, data, n);
}

bool
Reader::need(size_t n)
{
    if (!ok_ || size_t(end_ - p_) < n) {
        ok_ = false;
        return false;
    }
    return true;
}

u8
Reader::byte()
{
    if (!need(1))
        return 0;
    return *p_++;
}

u32
Reader::fixed32()
{
    if (!need(4))
        return 0;
    u32 v = loadLE<u32>(p_);
    p_ += 4;
    return v;
}

u64
Reader::fixed64()
{
    if (!need(8))
        return 0;
    u64 v = loadLE<u64>(p_);
    p_ += 8;
    return v;
}

u64
Reader::varint()
{
    // The shift never reaches 64: groups land at shifts 0, 7, ..., 63,
    // and the tenth group (shift 63) holds exactly one payload bit.  A
    // tenth byte with more than that one bit -- high payload bits that
    // a 64-bit value cannot hold, or a continuation bit promising an
    // eleventh byte -- only ever comes from a corrupt or non-canonical
    // stream (our encoder emits at most 0x01 there), so it is rejected
    // instead of silently truncated.
    u64 v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        u8 b = byte();
        if (!ok_)
            return 0;
        if (shift == 63 && (b & 0xfe)) {
            ok_ = false;
            return 0;
        }
        v |= u64(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    ok_ = false; // unreachable: shift 63 always returns or rejects
    return 0;
}

s64
Reader::svarint()
{
    u64 z = varint();
    return s64(z >> 1) ^ -s64(z & 1);
}

std::string
Reader::str()
{
    u64 n = varint();
    if (!need(n))
        return {};
    std::string s(asChars(p_), size_t(n));
    p_ += n;
    return s;
}

namespace
{

bool
writeAll(int fd, const u8 *p, size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= size_t(w);
    }
    return true;
}

/** @return 1 on success, 0 on clean EOF at the first byte, -1 on error. */
int
readAll(int fd, u8 *p, size_t n)
{
    bool first = true;
    while (n > 0) {
        ssize_t r = ::read(fd, p, n);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r == 0)
            return first ? 0 : -1;
        first = false;
        p += r;
        n -= size_t(r);
    }
    return 1;
}

} // namespace

bool
writeFrame(int fd, const std::vector<u8> &payload)
{
    u8 hdr[4];
    storeLE(hdr, u32(payload.size()));
    return writeAll(fd, hdr, 4) &&
           writeAll(fd, payload.data(), payload.size());
}

bool
readFrame(int fd, std::vector<u8> &payload)
{
    u8 hdr[4];
    if (readAll(fd, hdr, 4) != 1)
        return false;
    u32 len = loadLE<u32>(hdr);
    payload.resize(len);
    return len == 0 || readAll(fd, payload.data(), len) == 1;
}

} // namespace vmmx::wire
