/**
 * @file
 * Persistent content-addressed on-disk cache of generated traces.
 *
 * Trace generation is deterministic in the TraceKey, so the store is
 * content addressed by construction: the key maps to one file name and
 * the file carries the key, a version, and an FNV-1a checksum over the
 * delta+varint-compressed payload.  Workers of a distributed sweep (and
 * repeated sweep invocations in new processes) load traces from here
 * instead of regenerating them.
 *
 * Writes are atomic (temp file + rename) so concurrent writers of the
 * same key -- two workers racing to generate the same trace -- are
 * harmless: both produce identical bytes and the second rename wins.
 * Any validation failure (bad magic/version, key mismatch, checksum
 * mismatch, truncation, a malformed record) reads as a miss, never an
 * error.  open() checks a file as a whole and leaves its records
 * encoded for a reader to decode block by block (a TraceCursor in
 * TraceRepository::Replay) and report to finish(); load() wraps the same
 * two steps.
 *
 * Building a file image is apart from writing it: an Image takes its
 * records one at a time through a TraceEncoder (a Program can generate
 * straight into it), and write() checksums a finished image and
 * publishes it atomically.  save() is the two for a trace in RAM.
 * File names hash traceGenVersion too, so a build whose generators
 * differ reads none of another build's files.
 */

#ifndef VMMX_TRACE_TRACE_STORE_HH
#define VMMX_TRACE_TRACE_STORE_HH

#include <atomic>
#include <optional>
#include <span>
#include <string>

#include "trace/trace_io.hh"

namespace vmmx
{

class TraceStore
{
  public:
    /** Identity of the trace generators (emulator, kernels, apps) of
     *  this build.  Bump it in any change that alters a generated trace
     *  (test_trace pins a few digests), so older stores stop matching. */
    static constexpr u32 traceGenVersion = 1;

    /** $VMMX_TRACE_STORE if set, else "vmmx-trace-store" under the
     *  system temporary directory. */
    static std::string defaultDir();

    /** Opens (and creates if needed) the store directory. */
    explicit TraceStore(std::string dir = defaultDir());
    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    const std::string &dir() const { return dir_; }

    /** Store file for @p key, e.g. "<dir>/kernel-idct-vmmx128-....vmtr". */
    std::string path(const TraceKey &key) const;

    /** Read @p key's file into @p bytes and check its checksum, magic/
     *  version and key.  @return a reader over its encoded records, or
     *  nullopt on a miss (counted; warned for a damaged file). */
    std::optional<wire::Reader> open(const TraceKey &key,
                                     std::vector<u8> &bytes);

    /** Count how reading an opened file's records ended: a load, or a
     *  warned miss (a malformed record or trailing bytes).  @return
     *  @p ok. */
    bool finish(const TraceKey &key, bool ok);

    /** @return the stored trace, or null on miss/corruption. */
    SharedTrace load(const TraceKey &key);

    /**
     * A store file image being built for one key: magic, version, key,
     * then the records' payload (varint count, delta-encoded records).
     * The records stream into encoder(); finish() writes the count and
     * the header in front of them, so each record is encoded once, in
     * the buffer that is written and can then be replayed from.  The
     * checksum is not part of the image: write() appends it.
     */
    class Image
    {
      public:
        explicit Image(const TraceKey &key);
        Image(const Image &) = delete;
        Image &operator=(const Image &) = delete;

        /** Where the records go, before finish(). */
        TraceEncoder &encoder() { return records_; }

        /** Write the count and the header in front of the records. */
        void finish();

        /** The finished image, checksum excluded. */
        std::span<const u8> bytes() const;
        /** A reader over the finished image's payload (a TraceCursor
         *  input), which runs to the image's end. */
        wire::Reader payload() const;

        /** Move the buffer out.  A vector move keeps its storage, so
         *  spans and readers taken from bytes() and payload() before
         *  stay valid while the returned vector lives. */
        std::vector<u8> take() { return w_.take(); }

      private:
        wire::Writer header_;
        wire::Writer w_;
        TraceEncoder records_;
        size_t begin_ = 0;   ///< the image's offset in w_
        size_t payload_ = 0; ///< the payload's offset in w_
    };

    /** Persist a finished @p image (an Image's bytes()) for @p key
     *  atomically, with its checksum.  @return false on I/O failure. */
    bool write(const TraceKey &key, std::span<const u8> image);

    /** Persist @p trace atomically. @return false on I/O failure. */
    bool save(const TraceKey &key, const std::vector<InstRecord> &trace);

    /** @return true when a valid-looking file exists for @p key. */
    bool contains(const TraceKey &key) const;

    u64 loads() const { return loads_.load(); }
    u64 saves() const { return saves_.load(); }
    u64 misses() const { return misses_.load(); }

  private:
    /** Count a damaged @p file as a miss and say why. */
    void reject(const std::string &file, const char *why);

    std::string dir_;
    std::atomic<u64> loads_{0};
    std::atomic<u64> saves_{0};
    std::atomic<u64> misses_{0};
};

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_STORE_HH
