/**
 * @file
 * Unified tiered trace repository: one budget-aware home for the whole
 * trace lifecycle.
 *
 *   tier 0  disk     content-addressed TraceStore files (delta+varint
 *                    codec, checksummed, shared across processes)
 *   tier 1  raw      InstRecord vectors in RAM (SharedTrace)
 *   tier 2  decoded  DecodedStream blocks in RAM (~1.2x the raw bytes)
 *                    of explicitly supplied traces
 *
 * Trace generation is execution driven and deterministic in the
 * TraceKey, so every tier is content addressed by construction.
 *
 * A sweep unit replays a keyed trace through replay(), a decoded block
 * at a time, and keeps nothing past the unit: a store file is checked
 * whole, then decoded block by block with no entry lock held; on a
 * store miss the trace is generated under the entry's mutex (so units
 * of one key generate it once) straight into the store's file image,
 * which is saved and then decoded block by block as a warm file is, and
 * goes with the unit.  Without a store (or when the save fails) the
 * trace stays in tier 1.  raw() lookups (the runSerial oracle, benches)
 * fill and keep tier 1.  Explicitly supplied traces join tier 2 keyed
 * by object identity, so replaying one in many groups decodes it once.
 *
 * Tiers 1 and 2 share one LRU clock and one eviction pass: each tier
 * has its own byte budget (VMMX_TRACE_CACHE_BUDGET for raw,
 * VMMX_DECODED_CACHE_BUDGET for decoded, or the set*Budget() setters),
 * and when a tier runs over, the globally least-recently-used
 * *evictable* entry of that tier drops its bytes.  Raw copies are
 * evictable only when mirrored on disk (without a store the raw budget
 * is accounting-only); decoded streams are always evictable because
 * they re-decode from their explicit trace.  Outstanding RAII pin
 * handles (TraceHandle, DecodedHandle) make an entry's tier
 * ineligible, so borrowed traces and decoded streams can never be
 * dropped under a consumer -- eviction only ever affects when memory
 * is reclaimed.
 *
 * Thread model: lookups take a short registry lock to find or create
 * the entry, then build under the entry's own mutex so different keys
 * materialize in parallel while concurrent requests for the same key
 * block on the first builder.
 * Eviction acquires entry mutexes only via try_lock while holding the
 * registry lock, which lookups never hold while acquiring an entry
 * mutex, so the two lock orders cannot deadlock.  Pins are taken under
 * the entry mutex and released without it; eviction re-checks the pin
 * count after winning the try_lock.
 */

#ifndef VMMX_TRACE_TRACE_REPO_HH
#define VMMX_TRACE_TRACE_REPO_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/env.hh"
#include "trace/decoded.hh"
#include "trace/trace_store.hh"

namespace vmmx
{

class TraceRepository
{
  public:
    /** Default memory-image size for kernel workloads (16 MiB). */
    static constexpr u32 kernelImageBytes = 16u << 20;
    /** Default memory-image size for application workloads (32 MiB). */
    static constexpr u32 appImageBytes = 32u << 20;
    /** Default input-generation seed (matches the figure benches). */
    static constexpr u64 defaultSeed = 0xbeef;

    /**
     * @param store optional persistent tier 0 (not owned; must outlive
     *              the repository).
     * @param rawBudgetBytes tier-1 RAM budget; 0 = unlimited.
     * @param decodedBudgetBytes tier-2 RAM budget; 0 = unlimited.
     */
    explicit TraceRepository(
        TraceStore *store = nullptr,
        u64 rawBudgetBytes = env::byteSize("VMMX_TRACE_CACHE_BUDGET"),
        u64 decodedBudgetBytes = env::byteSize("VMMX_DECODED_CACHE_BUDGET"));
    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /** The shared per-process repository used by benches and the sweep
     *  engine.  Attaches a store iff $VMMX_TRACE_STORE is set. */
    static TraceRepository &instance();

    /** What a generation does: run @p key's workload on a fresh memory
     *  image, recording into @p sink if given.  @return the trace, or
     *  an empty vector when the records went to @p sink. */
    static std::vector<InstRecord> runWorkload(const TraceKey &key,
                                               TraceEncoder *sink = nullptr);

    void setRawBudget(u64 bytes) { rawBudget_.store(bytes); }
    void setDecodedBudget(u64 bytes) { decodedBudget_.store(bytes); }
    u64 rawBudget() const { return rawBudget_.load(); }
    u64 decodedBudget() const { return decodedBudget_.load(); }

  private:
    struct Entry;

  public:
    /**
     * RAII pin on a raw (tier-1) trace: while alive, the repository
     * will not evict the entry's RAM copy, so the reference stays the
     * canonical resident object (stable pointers, no re-materialization
     * churn).  Movable, not copyable; a moved-from or default handle is
     * null.
     */
    class TraceHandle
    {
      public:
        TraceHandle() = default;
        /** Unmanaged handle around an externally owned trace: no pin,
         *  no repository -- lets explicit traces flow through the same
         *  consumer paths as repository-resident ones. */
        explicit TraceHandle(SharedTrace t) : trace_(std::move(t)) {}
        TraceHandle(TraceHandle &&) = default;
        TraceHandle &operator=(TraceHandle &&) = default;

        const std::vector<InstRecord> &operator*() const { return *trace_; }
        const std::vector<InstRecord> *operator->() const
        {
            return trace_.get();
        }
        const std::vector<InstRecord> *get() const { return trace_.get(); }
        /** The underlying shared_ptr (outlives the pin if copied out). */
        const SharedTrace &shared() const { return trace_; }
        explicit operator bool() const { return trace_ != nullptr; }

      private:
        friend class TraceRepository;
        SharedTrace trace_;
        std::shared_ptr<void> pin_; ///< releases the pin with the handle
    };

    /**
     * RAII pin on a decoded (tier-2) stream.  Same contract as
     * TraceHandle: the pinned stream survives any budget pressure.
     */
    class DecodedHandle
    {
      public:
        DecodedHandle() = default;
        DecodedHandle(DecodedHandle &&) = default;
        DecodedHandle &operator=(DecodedHandle &&) = default;

        const DecodedStream &stream() const { return *stream_; }
        const DecodedStream *get() const { return stream_.get(); }
        /** Dynamic trace length in records. */
        u64 records() const { return stream_->size(); }
        explicit operator bool() const { return stream_ != nullptr; }

      private:
        friend class TraceRepository;
        SharedDecoded stream_;
        std::shared_ptr<void> pin_;
    };

    // ---- tier-1 lookups (raw InstRecord traces) ----------------------
    /** Trace of a Table II kernel, built at most once per key. */
    TraceHandle kernel(const std::string &name, SimdKind kind,
                       u32 imageBytes = kernelImageBytes,
                       u64 seed = defaultSeed)
    {
        return raw({false, name, kind, imageBytes, seed});
    }
    /** Trace of one of the six applications, built at most once. */
    TraceHandle app(const std::string &name, SimdKind kind,
                    u32 imageBytes = appImageBytes, u64 seed = defaultSeed)
    {
        return raw({true, name, kind, imageBytes, seed});
    }
    /** Generic keyed lookup (distributed workers). */
    TraceHandle raw(const TraceKey &key);

    /** One keyed trace as a sweep unit replays it: blocks of at most
     *  replayBlock records decoded from the store file's bytes, the
     *  file image just generated, or the trace in RAM.  Drain next() to
     *  an empty block, then check ok().  A move keeps the bytes'
     *  buffer, so the cursor into it stays valid. */
    class Replay
    {
      public:
        Replay() = default;
        Replay(Replay &&) = default;
        Replay &operator=(Replay &&) = default;

        /** The next block (valid until the next call); empty at the
         *  end, and from a malformed store record on. */
        std::span<const DecodedInst> next();

        /** False when the store file failed validation part-way: the
         *  blocks handed out are not the trace, the file counted as a
         *  store miss, and the next replay() of the key regenerates. */
        bool ok() const { return ok_; }

        /** Dynamic trace length in records. */
        u64 records() const
        {
            return records_ ? records_->size() : trace_->size();
        }

      private:
        friend class TraceRepository;
        TraceRepository *repo_ = nullptr;
        std::shared_ptr<Entry> entry_;
        u64 saves_ = 0;                     ///< entry's saves when opened
        /** The store file (warm) or the generated file image (cold). */
        std::vector<u8> bytes_;
        std::optional<TraceCursor> records_; ///< its records
        bool generated_ = false; ///< bytes_ is a fresh image, not a load
        SharedTrace trace_; ///< no store file or image: the trace
        size_t pos_ = 0;
        std::vector<DecodedInst> block_ =
            std::vector<DecodedInst>(replayBlock);
        bool ended_ = false;
        bool ok_ = true;
    };

    /** The unit-facing lookup: replay @p key from the store if it holds
     *  a valid file, else from tier 1, else from a fresh generation. */
    Replay replay(const TraceKey &key);

    // ---- tier-2 lookups (decoded streams) ----------------------------
    /** Decoded stream for an explicitly supplied trace, keyed by object
     *  identity (amortizes decode across groups replaying @p trace). */
    DecodedHandle decoded(const SharedTrace &trace);

    // ---- statistics --------------------------------------------------
    struct TierStats
    {
        u64 hits = 0;      ///< lookups served from this tier
        u64 fills = 0;     ///< entries materialized into this tier
        u64 evictions = 0; ///< resident copies dropped for the budget
        u64 bytes = 0;     ///< bytes currently resident in this tier
    };

    TierStats rawStats() const;
    TierStats decodedStats() const;
    /** Traces actually generated. */
    u64 generations() const { return generations_.load(); }
    /** Traces read whole and valid from the on-disk store: tier-1 fills
     *  plus replays streamed from disk. */
    u64 diskLoads() const { return diskLoads_.load(); }
    /** Tier-2 fills (full-trace decodes of explicit traces). */
    u64 decodes() const { return decodes_.load(); }
    /** Number of distinct traces currently known across all tiers. */
    size_t size() const;

    /** Human summary: one line per tier, then where traces came from. */
    std::string summary() const;

    /** Publish the per-tier counters as "repo.*" gauges in the
     *  process-wide telemetry registry. */
    void publishMetrics() const;

  private:
    std::shared_ptr<Entry> entryFor(const TraceKey &key);
    std::shared_ptr<Entry> entryFor(const SharedTrace &trace);
    // Fill helpers; all run with @p e's build mutex held.
    /** Fill tier 1 of @p e (store, else generate). */
    SharedTrace materializeRaw(Entry &e);
    /** Generate @p e's trace and save it to the store, if any. */
    SharedTrace generate(Entry &e);
    /** Generate @p e's trace straight into a store file image, save it,
     *  and point @p r at the image's records. */
    void generateStored(Entry &e, Replay &r);
    /** Open @p r's store file to stream; false on a miss. */
    bool openStored(Replay &r);
    /** A token holding one pin on @p e's @p count until destroyed. */
    static std::shared_ptr<void> pin(std::shared_ptr<Entry> e,
                                     std::atomic<u32> Entry::*count);
    SharedTrace installRaw(Entry &e, SharedTrace t);
    /** Stamp @p e's tier-1 (or tier-2) LRU clock and evict whatever the
     *  budgets no longer cover, never touching @p keep. */
    void touchRawAndEnforce(Entry *keep);
    void touchDecodedAndEnforce(Entry *keep);
    void enforceBudgets(Entry *keep);

    TraceStore *store_ = nullptr;
    std::atomic<u64> rawBudget_;
    std::atomic<u64> decodedBudget_;

    mutable std::mutex registryMu_;
    /** Generated traces, content addressed by TraceKey. */
    std::map<TraceKey, std::shared_ptr<Entry>> keyed_;
    /** Adopted explicit traces, addressed by object identity. */
    std::map<const void *, std::shared_ptr<Entry>> adopted_;

    std::atomic<u64> useClock_{0};
    std::atomic<u64> bytesRaw_{0};
    std::atomic<u64> bytesDecoded_{0};
    std::atomic<u64> generations_{0};
    std::atomic<u64> diskLoads_{0};
    std::atomic<u64> rawFills_{0};
    std::atomic<u64> decodes_{0};
    std::atomic<u64> rawHits_{0};
    std::atomic<u64> decodedHits_{0};
    std::atomic<u64> rawEvictions_{0};
    std::atomic<u64> decodedEvictions_{0};
};

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_REPO_HH
