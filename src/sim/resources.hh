/**
 * @file
 * Structural-resource models used by the single-pass out-of-order timing
 * core: per-cycle width gates for the in-order stages, slot pools for
 * functional units, a windowed issue-queue model, per-class physical
 * register free lists, and the store window loads disambiguate against.
 *
 * Instructions are processed in program order; these helpers answer "at
 * which cycle >= c can this instruction acquire the resource" while
 * keeping the acquired reservations.
 *
 * Every model here sits on the per-instruction hot path of the timing
 * loop (the profile is dominated by them, not by the caches), so they
 * are defined inline and avoid heap-backed containers: the issue queue
 * is a flat array with a min scan (capacity is a handful of entries),
 * the free lists exploit that releases arrive in non-decreasing commit
 * order, turning the priority queue this replaced into a plain FIFO
 * ring with identical semantics, and the store window drops every store
 * that can no longer delay a load, so a load walks only the stores
 * still in flight.
 *
 * The SoA batch kernels (sim/sim_batch.hh) keep their own lane-parallel
 * copies of the gates, pools and issue queue, and replace the free lists
 * with commit-cycle histories; the serial models here are the oracle
 * those copies must match.  Only the store window is shared: the batch
 * calls into each lane's own instance.
 */

#ifndef VMMX_SIM_RESOURCES_HH
#define VMMX_SIM_RESOURCES_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace vmmx
{

/**
 * In-order pipeline stage of fixed width: at most @p width instructions
 * pass per cycle, in program order.
 */
class WidthGate
{
  public:
    explicit WidthGate(unsigned width) : width_(width) {}

    /** @return the cycle at which the next instruction passes (>= c). */
    Cycle pass(Cycle c)
    {
        if (c > cur_) {
            cur_ = c;
            used_ = 1;
            return cur_;
        }
        // In-order stage: c <= cur_ means this instruction is ready no
        // later than the stage's current cycle.
        if (used_ < width_) {
            ++used_;
            return cur_;
        }
        ++cur_;
        used_ = 1;
        return cur_;
    }

    void reset()
    {
        cur_ = 0;
        used_ = 0;
    }

  private:
    unsigned width_;
    Cycle cur_ = 0;
    unsigned used_ = 0;
};

/**
 * A pool of identical units; acquiring takes the earliest-free unit and
 * occupies it for @p occupancy cycles.  Models functional units (and,
 * with occupancy 1, per-cycle issue slots).
 */
class SlotPool
{
  public:
    explicit SlotPool(unsigned slots) : free_(slots, 0)
    {
        vmmx_assert(slots > 0, "slot pool with zero units");
    }

    /** @return start cycle >= c at which a unit was acquired. */
    Cycle acquire(Cycle c, Cycle occupancy = 1)
    {
        Cycle *slot = free_.data();
        for (size_t i = 1; i < free_.size(); ++i)
            if (free_[i] < *slot)
                slot = &free_[i];
        Cycle start = std::max(c, *slot);
        *slot = start + std::max<Cycle>(occupancy, 1);
        return start;
    }

    void reset() { std::fill(free_.begin(), free_.end(), 0); }

  private:
    std::vector<Cycle> free_;
};

/**
 * Issue-queue occupancy: entries are held from rename until issue.  The
 * caller asks for space before renaming and registers the (later
 * computed) issue cycle afterwards.
 *
 * Resident issue cycles live in a flat array of at most capacity
 * entries; taking space when full extracts the minimum (the entry that
 * leaves earliest) by linear scan, exactly the order the min-heap this
 * replaced produced.
 */
class IssueQueueModel
{
  public:
    explicit IssueQueueModel(unsigned capacity) : capacity_(capacity)
    {
        resident_.reserve(capacity);
    }

    /** @return earliest cycle >= c with a free entry. */
    Cycle waitForSpace(Cycle c)
    {
        while (resident_.size() >= capacity_) {
            size_t m = 0;
            for (size_t i = 1; i < resident_.size(); ++i)
                if (resident_[i] < resident_[m])
                    m = i;
            Cycle leaves = resident_[m];
            resident_[m] = resident_.back();
            resident_.pop_back();
            if (leaves >= c)
                c = leaves + 1;
        }
        return c;
    }

    /** Record that the instruction renamed here leaves at @p issueCycle. */
    void insert(Cycle issueCycle) { resident_.push_back(issueCycle); }

    void reset() { resident_.clear(); }

  private:
    unsigned capacity_;
    std::vector<Cycle> resident_;
};

/**
 * Physical register free list for one register class.  A rename consumes
 * one register; committing a later writer of the same logical register
 * releases the previous mapping.
 *
 * Commit is in order, so release() sees non-decreasing cycles and the
 * pending releases form a sorted FIFO: a power-of-two ring indexed by
 * monotone head/tail counters replaces the priority queue bit for bit.
 * At most total physical registers can be awaiting release, bounding
 * the ring occupancy.
 *
 * This is the serial model.  The SoA batch kernel does not call it: it
 * keeps one release-cycle history per class shared by all lanes plus a
 * per-lane harvest floor, which SimBatch's comment proves equal to this
 * FIFO allocation for allocation.
 */
class RegFreeList
{
  public:
    RegFreeList(unsigned physRegs, unsigned logicalRegs);

    /** @return earliest cycle >= c at which a register can be allocated;
     *  performs the allocation. */
    Cycle allocate(Cycle c)
    {
        harvest(c);
        while (free_ == 0) {
            vmmx_assert(head_ != tail_,
                        "rename deadlock: no free registers and none in "
                        "flight");
            c = std::max(c, ring_[head_ & mask_]);
            harvest(c);
        }
        --free_;
        return c;
    }

    /** A previous mapping becomes free when its successor commits;
     *  successive commits never move backwards in time (the ring is
     *  sorted only because of this -- fail fast if a caller breaks it,
     *  since harvest() would otherwise silently strand entries). */
    void release(Cycle commitCycle)
    {
        vmmx_assert(head_ == tail_ ||
                        commitCycle >= ring_[(tail_ - 1) & mask_],
                    "free-list releases must be in commit order");
        ring_[tail_ & mask_] = commitCycle;
        ++tail_;
    }

    void reset()
    {
        head_ = tail_ = 0;
        free_ = initialFree_;
    }

    unsigned freeNow() const { return free_; }

  private:
    void harvest(Cycle c)
    {
        while (head_ != tail_ && ring_[head_ & mask_] <= c) {
            ++head_;
            ++free_;
        }
    }

    std::vector<Cycle> ring_; ///< pending release cycles, oldest first
    u32 head_ = 0;
    u32 tail_ = 0;
    u32 mask_;
    unsigned free_;
    unsigned initialFree_;
};

/**
 * Memory disambiguation: a load waits for every overlapping store among
 * the last @p window stores that is still in flight when it would issue,
 * i.e. its issue cycle becomes the max of its own and those stores'
 * completion cycles.
 *
 * Entries are kept in push order and dropped as soon as they can no
 * longer delay any load, which is exact:
 *  - when they leave the last @p window pushes;
 *  - when their completion cycle is at or below the wait floor, a cycle
 *    no current or later load issues before.  The timing core passes
 *    its rename cycle + 1: rename is in order and a load issues after
 *    it renames, so floors never decrease and a dropped store could
 *    never again satisfy done > issue.
 * A wait therefore walks only the stores still in flight past rename,
 * usually a handful, instead of the whole window.
 */
class StoreWindow
{
  public:
    explicit StoreWindow(unsigned window);

    void push(Addr lo, Addr hi, Cycle done)
    {
        if (window_ == 0)
            return;
        u64 seq = pushes_++;
        while (count_ != 0 && ring_[head_ & mask_].seq + window_ <= seq) {
            ++head_;
            --count_;
        }
        ring_[(head_ + count_) & mask_] = {lo, hi, done, seq};
        ++count_;
    }

    /** @return max(@p issue, done of every store in the window that
     *  overlaps [lo, hi) and is still in flight at @p issue).  Requires
     *  floor <= issue, and floors that never decrease across calls;
     *  stores done by @p floor are dropped on the way. */
    Cycle wait(Addr lo, Addr hi, Cycle issue, Cycle floor)
    {
        u32 kept = head_;
        for (u32 i = head_; i != head_ + count_; ++i) {
            Entry e = ring_[i & mask_];
            if (e.done <= floor)
                continue;
            if (e.done > issue && e.lo < hi && lo < e.hi)
                issue = e.done;
            ring_[kept++ & mask_] = e;
        }
        count_ = kept - head_;
        return issue;
    }

    void reset()
    {
        head_ = count_ = 0;
        pushes_ = 0;
    }

  private:
    struct Entry
    {
        Addr lo;
        Addr hi;
        Cycle done;
        u64 seq; ///< push number, for expiry by window
    };

    std::vector<Entry> ring_; ///< live entries, oldest first from head_
    u32 head_ = 0;
    u32 count_ = 0;
    u32 mask_;
    u64 pushes_ = 0;
    unsigned window_;
};

} // namespace vmmx

#endif // VMMX_SIM_RESOURCES_HH
