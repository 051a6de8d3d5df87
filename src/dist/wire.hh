/**
 * @file
 * Binary serialization primitives for the distributed sweep subsystem.
 *
 * Writer appends to a growable byte buffer; Reader consumes one.  Integers
 * use LEB128 varints (unsigned) and zigzag varints (signed) so the
 * delta-encoded trace streams stay small; fixed-width little-endian
 * encodings are available where random access or checksums need stable
 * offsets.  Reader never aborts on malformed input: any underflow sets a
 * sticky failure flag and subsequent reads return zeros, so callers
 * validate with ok() once at the end (on-disk trace files may be truncated
 * by a crash; a corrupt file must read as a cache miss, not a panic).
 *
 * writeFrame()/readFrame() move length-prefixed frames over a byte-stream
 * file descriptor (the driver/worker socketpair protocol).
 */

#ifndef VMMX_DIST_WIRE_HH
#define VMMX_DIST_WIRE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace vmmx::wire
{

/** FNV-1a 64-bit hash (trace-file and journal checksums). */
u64 fnv1a(const void *data, size_t n, u64 seed = 0xcbf29ce484222325ull);

/** Bytes Writer::varint() spends on @p v (1..10). */
constexpr size_t
varintSize(u64 v)
{
    size_t n = 1;
    for (; v >= 0x80; v >>= 7)
        ++n;
    return n;
}

class Writer
{
  public:
    void byte(u8 v) { buf_.push_back(v); }
    void fixed32(u32 v);
    void fixed64(u64 v);
    /** LEB128 unsigned varint, 1..10 bytes. */
    void varint(u64 v);
    /** Zigzag-mapped varint for signed values. */
    void svarint(s64 v);
    void boolean(bool v) { byte(v ? 1 : 0); }
    /** Length-prefixed byte string (may contain NULs). */
    void str(const std::string &s);
    void bytes(const void *data, size_t n);
    /** Overwrite @p n bytes already written, from offset @p at. */
    void patch(size_t at, const void *data, size_t n);

    size_t size() const { return buf_.size(); }
    const std::vector<u8> &buffer() const { return buf_; }
    std::vector<u8> take() { return std::move(buf_); }

  private:
    std::vector<u8> buf_;
};

class Reader
{
  public:
    Reader(const u8 *data, size_t n) : p_(data), end_(data + n) {}
    explicit Reader(const std::vector<u8> &buf)
        : Reader(buf.data(), buf.size())
    {}

    u8 byte();
    u32 fixed32();
    u64 fixed64();
    u64 varint();
    s64 svarint();
    bool boolean() { return byte() != 0; }
    std::string str();

    /** @return false once any read ran past the end of the buffer. */
    bool ok() const { return ok_; }
    bool atEnd() const { return p_ == end_; }
    size_t remaining() const { return size_t(end_ - p_); }
    /** Bytes consumed so far (checksum windows). */
    const u8 *cursor() const { return p_; }

  private:
    bool need(size_t n);

    const u8 *p_;
    const u8 *end_;
    bool ok_ = true;
};

/**
 * Write one length-prefixed frame (u32 little-endian payload size, then
 * the payload), retrying short writes.  @return false on any I/O error
 * (EPIPE after a worker death included); never raises SIGPIPE concerns --
 * callers are expected to ignore SIGPIPE.
 */
bool writeFrame(int fd, const std::vector<u8> &payload);

/**
 * Read one length-prefixed frame into @p payload.  @return false on clean
 * EOF before any byte of the frame, and on any error or mid-frame EOF.
 */
bool readFrame(int fd, std::vector<u8> &payload);

} // namespace vmmx::wire

#endif // VMMX_DIST_WIRE_HH
