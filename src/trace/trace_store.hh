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
 * Any validation failure on load (bad magic/version, key mismatch,
 * checksum mismatch, truncation, a malformed record) reads as a miss,
 * never an error.  load() and loadDecoded() share one read-and-validate
 * path and differ only in what the payload decodes into.
 */

#ifndef VMMX_TRACE_TRACE_STORE_HH
#define VMMX_TRACE_TRACE_STORE_HH

#include <atomic>
#include <string>

#include "trace/decoded.hh"
#include "trace/trace_io.hh"

namespace vmmx
{

class TraceStore
{
  public:
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

    /** @return the stored trace, or null on miss/corruption. */
    SharedTrace load(const TraceKey &key);

    /** @return the stored trace decoded record by record into a
     *  DecodedStream (no InstRecord vector is built), or null on
     *  miss/corruption. */
    SharedDecoded loadDecoded(const TraceKey &key);

    /** Persist @p trace atomically. @return false on I/O failure. */
    bool save(const TraceKey &key, const std::vector<InstRecord> &trace);

    /** @return true when a valid-looking file exists for @p key. */
    bool contains(const TraceKey &key) const;

    u64 loads() const { return loads_.load(); }
    u64 saves() const { return saves_.load(); }
    u64 misses() const { return misses_.load(); }

  private:
    /** Read @p key's file, check its checksum, magic/version and key,
     *  and decode the payload into @p out.  Every failure counts and
     *  warns as a miss. */
    template <typename Out>
    bool loadInto(const TraceKey &key, Out &out);

    std::string dir_;
    std::atomic<u64> loads_{0};
    std::atomic<u64> saves_{0};
    std::atomic<u64> misses_{0};
};

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_STORE_HH
