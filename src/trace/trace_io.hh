/**
 * @file
 * Compact binary codec for dynamic instruction traces.
 *
 * Traces are highly regular: effective addresses walk the memory image
 * near-sequentially, static ids advance by small steps, and most records
 * touch no memory at all.  The codec therefore delta-encodes addresses and
 * static ids against the previous record, packs the rarely-changing flags
 * (element width, branch direction, field presence) into one byte, and
 * omits absent fields entirely; everything variable-length goes through
 * LEB128 varints.  The result is bit-exact on decode and typically >4x
 * smaller than the in-memory InstRecord array, which is what makes the
 * on-disk TraceStore and the driver/worker wire protocol affordable for
 * application-scale (mpeg2enc) traces.
 *
 * TraceEncoder is the codec's one encoder: encodeTrace() loops a vector
 * through it, and a Program can emit into it record by record, so a
 * generated trace can be encoded without ever being an InstRecord array.
 *
 * This header is also the canonical home of SharedTrace (the immutable
 * trace handle shared by the cache, the store, and the sweep engines) and
 * TraceKey (the stable identity of a generated trace).
 */

#ifndef VMMX_TRACE_TRACE_IO_HH
#define VMMX_TRACE_TRACE_IO_HH

#include <memory>
#include <string>
#include <vector>

#include "dist/wire.hh"
#include "isa/inst.hh"
#include "isa/simd_kind.hh"

namespace vmmx
{

struct DecodedInst;

/** Immutable, shareable dynamic instruction trace. */
using SharedTrace = std::shared_ptr<const std::vector<InstRecord>>;

/**
 * Stable identity of a generated trace.  Trace generation is execution
 * driven and deterministic, so this key fully determines the trace bytes
 * across processes, machines and builds (staticIds hash source basenames).
 */
struct TraceKey
{
    bool isApp = false;
    std::string name;
    SimdKind kind = SimdKind::MMX64;
    u32 imageBytes = 0;
    u64 seed = 0;

    bool operator<(const TraceKey &o) const
    {
        return std::tie(isApp, name, kind, imageBytes, seed) <
               std::tie(o.isApp, o.name, o.kind, o.imageBytes, o.seed);
    }
    bool operator==(const TraceKey &o) const = default;

    /** e.g. "kernel:idct/vmmx128/16MiB/seed=beef". */
    std::string describe() const;
};

/**
 * Streams records into an encodeTrace() payload at the end of a
 * wire::Writer: the one per-record encoder behind every trace encode.
 * The payload leads with its record count, which a streaming producer
 * (a Program emitting into the encoder) knows only once the records are
 * done.  So the encoder first leaves room for the count -- the longest
 * varint unless the caller knows the count's size -- and finish() writes
 * the count into the tail of that room, right before the first record.
 * Nothing is moved: the payload starts where finish() says, after up to
 * nine unused bytes of the room, and its bytes are encodeTrace()'s for
 * the same records.  TraceStore::Image starts its file image there.
 */
class TraceEncoder
{
  public:
    /** The longest count varint. */
    static constexpr size_t maxCountBytes = 10;

    /** Start a payload at the end of @p w, with @p countRoom bytes left
     *  for its count. */
    explicit TraceEncoder(wire::Writer &w,
                          size_t countRoom = maxCountBytes);

    /** Append one record. */
    void add(const InstRecord &i);

    /** Write the count before the first record.  @return the payload's
     *  offset in the writer; it runs to the writer's end. */
    size_t finish();

  private:
    wire::Writer &w_;
    size_t records_; ///< offset of the first record (the room's end)
    size_t room_;
    u64 n_ = 0;
    Addr prevAddr_ = 0;
    u32 prevStatic_ = 0;
    u16 prevRegion_ = 0;
};

/** Append @p trace to @p w (varint count + delta-encoded records). */
void encodeTrace(const std::vector<InstRecord> &trace, wire::Writer &w);

/** Decodes an encodeTrace() payload a block at a time: the one record
 *  loop and set of record checks behind every trace decode.  A register
 *  index outside its class's logical table is malformed too, so hostile
 *  bytes fail here, not in decodeInst(). */
class TraceCursor
{
  public:
    /** Reads the record count from a copy of @p r; a truncated or
     *  absurd count (more records than bytes left) fails the cursor. */
    explicit TraceCursor(const wire::Reader &r);

    /** Records the payload declares. */
    u64 size() const { return count_; }

    /** Decode up to @p max further records through decodeInst() into
     *  @p out.  @return how many; fewer than @p max only at the end or
     *  on a malformed record, which fails the cursor. */
    size_t read(DecodedInst *out, size_t max);

    /** No malformed count or record so far. */
    bool ok() const { return ok_; }
    /** Every declared record read, all well formed. */
    bool done() const { return ok_ && n_ == count_; }
    /** The reader, just past the last record read. */
    const wire::Reader &reader() const { return r_; }

  private:
    friend bool decodeTrace(wire::Reader &r, std::vector<InstRecord> &out);
    /** The record loop: hands up to @p max records to @p emit(k, i). */
    template <typename Emit>
    size_t fill(size_t max, Emit emit);

    wire::Reader r_;
    u64 count_ = 0;
    u64 n_ = 0;
    Addr prevAddr_ = 0;
    u32 prevStatic_ = 0;
    u16 prevRegion_ = 0;
    bool ok_ = true;
};

/**
 * Decode a whole trace previously written by encodeTrace().
 * @return false (leaving @p out unspecified) on a malformed stream.
 */
bool decodeTrace(wire::Reader &r, std::vector<InstRecord> &out);

void serialize(wire::Writer &w, const TraceKey &key);
bool deserialize(wire::Reader &r, TraceKey &key);

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_IO_HH
