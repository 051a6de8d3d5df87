#include "trace/trace_repo.hh"

#include <iomanip>
#include <sstream>

#include "apps/app.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/memimage.hh"
#include "common/telemetry.hh"
#include "common/rng.hh"
#include "kernels/kernel.hh"
#include "trace/program.hh"

namespace vmmx
{

/**
 * One trace across all RAM tiers.  The build mutex serializes
 * materialization per entry; the atomics are readable without it (the
 * eviction candidate scan), and bytes/pointers are written only under
 * it.  Pin counters are incremented under the build mutex and
 * decremented lock-free by handle destructors; eviction re-reads them
 * after winning a try_lock on the build mutex, so a pin taken before
 * the lookup returned can never be missed.
 */
struct TraceRepository::Entry
{
    std::mutex build;
    TraceKey key;      ///< identity of keyed entries
    bool keyed = true; ///< false: adopted explicit trace (tier 2 only)
    /** Adopted entries: the caller-owned source trace (identity check
     *  and re-decode source; never counted against the raw budget). */
    std::weak_ptr<const std::vector<InstRecord>> source;

    SharedTrace raw;       ///< tier 1 (null until filled / after eviction)
    SharedDecoded decoded; ///< tier 2 (null until filled / after eviction)
    std::atomic<bool> rawResident{false};
    std::atomic<bool> decodedResident{false};
    /** The store holds a valid copy (saved, or read whole, here). */
    std::atomic<bool> onDisk{false};
    std::atomic<u64> saves{0}; ///< store saves, written under build
    /** `saves` when a replay found the store's copy malformed: replays
     *  skip the store until the next save replaces it. */
    std::atomic<u64> rejected{~0ull};
    std::atomic<u64> lastUseRaw{0};
    std::atomic<u64> lastUseDecoded{0};
    std::atomic<u32> rawPins{0};
    std::atomic<u32> decodedPins{0};
    u64 rawBytes = 0;     // written under build before rawResident
    u64 decodedBytes = 0; // written under build before decodedResident
};

// ---- pin handles ---------------------------------------------------------

std::shared_ptr<void>
TraceRepository::pin(std::shared_ptr<Entry> e, std::atomic<u32> Entry::*count)
{
    ((*e).*count).fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<void>(nullptr, [e, count](void *) {
        ((*e).*count).fetch_sub(1, std::memory_order_release);
    });
}

// ---- construction --------------------------------------------------------

TraceRepository::TraceRepository(TraceStore *store, u64 rawBudgetBytes,
                                 u64 decodedBudgetBytes)
    : store_(store),
      rawBudget_(rawBudgetBytes),
      decodedBudget_(decodedBudgetBytes)
{
}

TraceRepository &
TraceRepository::instance()
{
    // The disk tier is opt-in for the process-wide repository: benches
    // that pin references for the process lifetime should not silently
    // start writing files unless the user asked for a store.
    static TraceStore *store = []() -> TraceStore * {
        std::string dir = env::str("VMMX_TRACE_STORE");
        if (dir.empty())
            return nullptr;
        static TraceStore s(dir);
        return &s;
    }();
    static TraceRepository repo(store);
    return repo;
}

// ---- lookups -------------------------------------------------------------

std::shared_ptr<TraceRepository::Entry>
TraceRepository::entryFor(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(registryMu_);
    auto it = keyed_.find(key);
    if (it == keyed_.end()) {
        auto e = std::make_shared<Entry>();
        e->key = key;
        it = keyed_.emplace(key, std::move(e)).first;
    }
    return it->second;
}

std::shared_ptr<TraceRepository::Entry>
TraceRepository::entryFor(const SharedTrace &trace)
{
    vmmx_assert(trace != nullptr, "cannot adopt a null trace");
    std::lock_guard<std::mutex> lock(registryMu_);
    // Identity keys can be reused after their trace dies; prune expired
    // adoptions so a recycled address never serves stale bytes.  A
    // pinned entry stays (a DecodedHandle may outlive the source trace
    // it was decoded from) and is reaped on a later pass.
    for (auto it = adopted_.begin(); it != adopted_.end();) {
        Entry &e = *it->second;
        if (e.source.expired() && e.decodedPins.load() == 0 &&
            e.build.try_lock()) {
            if (e.decodedResident.load() && e.decodedPins.load() == 0) {
                bytesDecoded_ -= e.decodedBytes;
                e.decodedResident = false;
                e.decoded.reset();
            }
            e.build.unlock();
            it = adopted_.erase(it);
        } else {
            ++it;
        }
    }
    auto it = adopted_.find(trace.get());
    // An unpruned (pinned) stale entry can squat on a recycled address:
    // require true object identity, not just pointer equality.
    if (it != adopted_.end() && it->second->source.lock() != trace) {
        if (it->second->decodedResident.load())
            bytesDecoded_ -= it->second->decodedBytes;
        adopted_.erase(it);
        it = adopted_.end();
    }
    if (it == adopted_.end()) {
        auto e = std::make_shared<Entry>();
        e->keyed = false;
        e->source = trace;
        it = adopted_.emplace(trace.get(), std::move(e)).first;
    }
    return it->second;
}

SharedTrace
TraceRepository::materializeRaw(Entry &e)
{
    vmmx_assert(e.keyed, "only keyed entries own a raw tier");
    if (store_) {
        TELEMETRY_SPAN("trace.diskLoad", telemetry::enabled()
                                             ? e.key.name
                                             : std::string());
        if (SharedTrace t = store_->load(e.key)) {
            e.onDisk = true;
            ++diskLoads_;
            return installRaw(e, std::move(t));
        }
    }
    return installRaw(e, generate(e));
}

std::vector<InstRecord>
TraceRepository::runWorkload(const TraceKey &key, TraceEncoder *sink)
{
    TELEMETRY_SPAN("trace.generate",
                   telemetry::enabled() ? key.name : std::string());
    MemImage mem(key.imageBytes);
    Rng rng(key.seed);
    auto run = [&](auto workload) {
        workload->prepare(mem, rng);
        Program p = sink ? Program(mem, key.kind, *sink)
                         : Program(mem, key.kind);
        workload->emit(p);
        return p.takeTrace();
    };
    return key.isApp ? run(makeApp(key.name)) : run(makeKernel(key.name));
}

SharedTrace
TraceRepository::generate(Entry &e)
{
    vmmx_assert(e.keyed, "only keyed entries can be generated");
    auto t = std::make_shared<const std::vector<InstRecord>>(
        runWorkload(e.key));
    ++generations_;
    if (store_) {
        TELEMETRY_SPAN("trace.storeSave", telemetry::enabled()
                                              ? e.key.name
                                              : std::string());
        if (store_->save(e.key, *t)) {
            ++e.saves;
            e.onDisk = true;
        }
    }
    return t;
}

void
TraceRepository::generateStored(Entry &e, Replay &r)
{
    vmmx_assert(e.keyed && store_, "only keyed entries can be generated");
    TraceStore::Image image(e.key);
    runWorkload(e.key, &image.encoder());
    image.finish();
    ++generations_;
    bool saved;
    {
        TELEMETRY_SPAN("trace.storeSave", telemetry::enabled()
                                              ? e.key.name
                                              : std::string());
        saved = store_->write(e.key, image.bytes());
    }
    if (saved) {
        ++e.saves;
        e.onDisk = true;
    } else {
        // Off disk, the trace stays in tier 1 as a generated vector
        // would: later lookups decode it instead of generating again.
        auto t = std::make_shared<std::vector<InstRecord>>();
        wire::Reader payload = image.payload();
        vmmx_assert(decodeTrace(payload, *t) && payload.atEnd(),
                    "a generated image must decode");
        installRaw(e, std::move(t));
        touchRawAndEnforce(&e);
    }
    r.generated_ = true;
    r.records_.emplace(image.payload());
    r.bytes_ = image.take();
}

SharedTrace
TraceRepository::installRaw(Entry &e, SharedTrace t)
{
    e.raw = std::move(t);
    e.rawBytes = e.raw->size() * sizeof(InstRecord);
    e.rawResident = true;
    bytesRaw_ += e.rawBytes;
    ++rawFills_;
    return e.raw;
}

TraceRepository::TraceHandle
TraceRepository::raw(const TraceKey &key)
{
    std::shared_ptr<Entry> entry = entryFor(key);

    std::lock_guard<std::mutex> build(entry->build);
    if (entry->raw)
        ++rawHits_;
    else
        materializeRaw(*entry);
    TraceHandle h(entry->raw);
    h.pin_ = pin(entry, &Entry::rawPins);
    touchRawAndEnforce(entry.get());
    return h;
}

TraceRepository::Replay
TraceRepository::replay(const TraceKey &key)
{
    Replay r;
    r.repo_ = this;
    r.entry_ = entryFor(key);
    Entry &e = *r.entry_;
    auto trusted = [&] { return e.rejected.load() != e.saves.load(); };
    // Warm: stream the store file.  No entry lock is held, so units of
    // one key (batching off) stream it side by side.
    if (trusted() && openStored(r))
        return r;

    // A miss generates under the entry lock, so concurrent units of one
    // key generate it once: the others find it resident or on disk.
    std::lock_guard<std::mutex> build(e.build);
    if (e.raw) {
        ++rawHits_;
        r.trace_ = e.raw;
        touchRawAndEnforce(&e);
    } else if (e.onDisk.load() && trusted() && openStored(r)) {
        return r;
    } else if (store_) {
        // Generated straight into the file image, saved, and replayed
        // from that image as a warm unit replays the file; the image
        // goes with the unit.
        generateStored(e, r);
    } else {
        // Without a store the trace stays in tier 1, as raw() keeps it.
        r.trace_ = generate(e);
        installRaw(e, r.trace_);
        touchRawAndEnforce(&e);
    }
    return r;
}

bool
TraceRepository::openStored(Replay &r)
{
    if (!store_)
        return false;
    TELEMETRY_SPAN("trace.diskLoad", telemetry::enabled()
                                         ? r.entry_->key.name
                                         : std::string());
    r.saves_ = r.entry_->saves.load();
    if (std::optional<wire::Reader> payload =
            store_->open(r.entry_->key, r.bytes_))
        r.records_.emplace(*payload);
    return r.records_.has_value();
}

std::span<const DecodedInst>
TraceRepository::Replay::next()
{
    if (!records_)
        return decodeBlock(*trace_, pos_, block_);
    if (ended_)
        return {};
    size_t n = records_->read(block_.data(), block_.size());
    if (n < block_.size()) {
        // The end, or a malformed record.
        ended_ = true;
        ok_ = records_->done() && records_->reader().atEnd();
        if (!generated_) {
            // A store file: reject it unless a save replaced it since
            // this replay opened it.
            ok_ = repo_->store_->finish(entry_->key, ok_);
            if (ok_) {
                ++repo_->diskLoads_;
                entry_->onDisk = true;
            } else {
                entry_->rejected = saves_;
            }
        }
    }
    return {block_.data(), ok_ ? n : 0};
}

TraceRepository::DecodedHandle
TraceRepository::decoded(const SharedTrace &trace)
{
    std::shared_ptr<Entry> entry = entryFor(trace);

    std::lock_guard<std::mutex> build(entry->build);
    if (entry->decoded) {
        ++decodedHits_;
    } else {
        TELEMETRY_SPAN("trace.decode");
        entry->decoded =
            std::make_shared<const DecodedStream>(decodeStream(*trace));
        entry->decodedBytes = entry->decoded->bytes();
        entry->decodedResident = true;
        bytesDecoded_ += entry->decodedBytes;
        ++decodes_;
    }
    DecodedHandle h;
    h.stream_ = entry->decoded;
    h.pin_ = pin(entry, &Entry::decodedPins);
    touchDecodedAndEnforce(entry.get());
    return h;
}

// ---- budgets -------------------------------------------------------------

void
TraceRepository::touchRawAndEnforce(Entry *keep)
{
    keep->lastUseRaw = ++useClock_;
    enforceBudgets(keep);
}

void
TraceRepository::touchDecodedAndEnforce(Entry *keep)
{
    keep->lastUseDecoded = ++useClock_;
    enforceBudgets(keep);
}

void
TraceRepository::enforceBudgets(Entry *keep)
{
    u64 rawBudget = rawBudget_.load();
    u64 decodedBudget = decodedBudget_.load();
    bool overRaw = rawBudget != 0 && bytesRaw_.load() > rawBudget;
    bool overDecoded =
        decodedBudget != 0 && bytesDecoded_.load() > decodedBudget;
    if (!overRaw && !overDecoded)
        return;

    std::lock_guard<std::mutex> lock(registryMu_);
    for (;;) {
        overRaw = rawBudget != 0 && bytesRaw_.load() > rawBudget;
        overDecoded =
            decodedBudget != 0 && bytesDecoded_.load() > decodedBudget;
        if (!overRaw && !overDecoded)
            return;

        // One LRU spanning both RAM tiers: the victim is the (entry,
        // tier) pair with the oldest use stamp among tiers over their
        // budget.  A tier copy is evictable when it is resident,
        // unpinned, safe to drop (raw: mirrored on disk; decoded:
        // always, it re-materializes from disk or tier 1), and not part
        // of the entry being returned right now.
        Entry *victim = nullptr;
        bool victimDecoded = false;
        u64 oldest = ~0ull;
        auto consider = [&](Entry *e) {
            if (e == keep)
                return;
            // One load per stamp: a concurrent touch between compare
            // and assign would otherwise inflate `oldest` past the
            // value that won, skewing the LRU choice.
            if (overRaw && e->rawResident.load() && e->onDisk.load() &&
                e->rawPins.load() == 0) {
                u64 use = e->lastUseRaw.load();
                if (use < oldest) {
                    oldest = use;
                    victim = e;
                    victimDecoded = false;
                }
            }
            if (overDecoded && e->decodedResident.load() &&
                e->decodedPins.load() == 0) {
                u64 use = e->lastUseDecoded.load();
                if (use < oldest) {
                    oldest = use;
                    victim = e;
                    victimDecoded = true;
                }
            }
        };
        for (auto &kv : keyed_)
            consider(kv.second.get());
        for (auto &kv : adopted_)
            consider(kv.second.get());
        if (!victim)
            return; // everything left is pinned or not safely droppable
        // try_lock is load-bearing: lookups hold an entry lock while
        // calling into here for registryMu_, so blocking on the
        // victim's entry lock here would invert the two lock orders and
        // can deadlock.  A busy victim just ends this eviction pass.
        if (!victim->build.try_lock())
            return;
        // Re-check under the lock: a pin may have landed between the
        // candidate scan and the lock.
        if (victimDecoded) {
            if (victim->decodedResident.load() &&
                victim->decodedPins.load() == 0) {
                victim->decoded.reset();
                victim->decodedResident = false;
                bytesDecoded_ -= victim->decodedBytes;
                ++decodedEvictions_;
            }
        } else {
            if (victim->rawResident.load() && victim->rawPins.load() == 0) {
                victim->raw.reset();
                victim->rawResident = false;
                bytesRaw_ -= victim->rawBytes;
                ++rawEvictions_;
            }
        }
        victim->build.unlock();
    }
}

// ---- statistics ----------------------------------------------------------

TraceRepository::TierStats
TraceRepository::rawStats() const
{
    return {rawHits_.load(), rawFills_.load(), rawEvictions_.load(),
            bytesRaw_.load()};
}

TraceRepository::TierStats
TraceRepository::decodedStats() const
{
    return {decodedHits_.load(), decodes_.load(), decodedEvictions_.load(),
            bytesDecoded_.load()};
}

size_t
TraceRepository::size() const
{
    std::lock_guard<std::mutex> lock(registryMu_);
    return keyed_.size() + adopted_.size();
}

std::string
TraceRepository::summary() const
{
    size_t nKeyed, nAdopted;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        nKeyed = keyed_.size();
        nAdopted = adopted_.size();
    }
    TierStats rawT = rawStats();
    TierStats decT = decodedStats();
    auto mib = [](u64 b) { return double(b) / (1024.0 * 1024.0); };
    auto budgetStr = [&](u64 b) {
        if (b == 0)
            return std::string("unlimited");
        std::ostringstream s;
        s << std::fixed << std::setprecision(1) << mib(b) << " MiB";
        return s.str();
    };

    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << "trace repository: " << nKeyed + nAdopted << " traces";
    if (nAdopted)
        os << " (" << nAdopted << " adopted)";
    os << '\n';
    os << "  tier0 disk   : ";
    if (store_)
        os << store_->loads() << " loads, " << store_->saves() << " saves, "
           << store_->misses() << " misses [" << store_->dir() << "]";
    else
        os << "detached";
    os << '\n';
    os << "  tier1 raw    : " << mib(rawT.bytes) << " MiB resident (budget "
       << budgetStr(rawBudget()) << "), " << rawT.hits << " hits, "
       << rawT.fills << " fills, " << rawT.evictions << " evictions\n";
    os << "  tier2 decoded: " << mib(decT.bytes) << " MiB resident (budget "
       << budgetStr(decodedBudget()) << "), " << decT.hits << " hits, "
       << decT.fills << " decodes, " << decT.evictions << " evictions\n";
    os << "  sources      : " << generations() << " generated, "
       << diskLoads() << " loaded from disk";
    return os.str();
}

void
TraceRepository::publishMetrics() const
{
    if (!telemetry::enabled())
        return;
    telemetry::Registry &reg = telemetry::Registry::instance();
    TierStats rawT = rawStats();
    TierStats decT = decodedStats();
    reg.setGauge("repo.traces", size());
    reg.setGauge("repo.generations", generations());
    reg.setGauge("repo.diskLoads", diskLoads());
    reg.setGauge("repo.storeSaves", store_ ? store_->saves() : 0);
    reg.setGauge("repo.raw.hits", rawT.hits);
    reg.setGauge("repo.raw.fills", rawT.fills);
    reg.setGauge("repo.raw.evictions", rawT.evictions);
    reg.setGauge("repo.raw.bytes", rawT.bytes);
    reg.setGauge("repo.decodes", decT.fills);
    reg.setGauge("repo.decoded.hits", decT.hits);
    reg.setGauge("repo.decoded.evictions", decT.evictions);
    reg.setGauge("repo.decoded.bytes", decT.bytes);
}

} // namespace vmmx
