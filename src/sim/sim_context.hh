/**
 * @file
 * Out-of-order superscalar timing core: the per-configuration
 * simulation context and the batched trace-replay entry point.
 *
 * The core replays a dynamic instruction trace through an
 * R10000-style pipeline model: width-limited in-order fetch/rename/
 * commit, renaming against per-class physical register free lists,
 * windowed issue queue, out-of-order issue to functional-unit pools, a
 * gshare branch predictor with a fixed redirect penalty, address-based
 * store->load disambiguation, and the two-level memory system with the
 * vector-cache path.  Vector (matrix) instructions occupy a vector unit
 * for ceil(vl / lanesPerFu) cycles; in-register transposes occupy the
 * lane exchange network for vl cycles.  The model is a single
 * in-program-order pass that resolves each instruction's fetch/rename/
 * issue/complete/commit cycles against the reservations made by older
 * instructions -- equivalent to a cycle-driven model for this machine
 * (no speculation past unresolved branches is modelled other than
 * through the redirect penalty).
 *
 * A SimContext owns every piece of mutable per-run state of that model
 * -- the width gates, issue queue, functional-unit pools, branch
 * predictor, register free lists, ready tables, ROB ring, store window,
 * and the statistics of the run in flight -- bound to one CoreParams
 * and one MemorySystem.  Keeping that state per context is what makes
 * batched simulation possible: N contexts can be stepped against the
 * *same* dynamic instruction stream, so a sweep over N machine
 * configurations decodes and streams the trace once instead of N
 * times; one configuration is simply a batch of one.
 *
 * The decode split: everything about an InstRecord that does not depend
 * on the machine configuration is resolved once into a DecodedInst
 * (trace/decoded.hh) and shared by every context.  Only the
 * configuration-dependent arbitration (gate widths, queue and pool
 * occupancy, cache state) runs per context.
 *
 * runBatch() has one form: it pulls decoded blocks from a BlockSource
 * and steps every context through each block before pulling the next,
 * so only one block of the trace is resident however long the trace
 * is.  A sweep unit's source streams a store file or decodes a
 * generated trace block by block (TraceRepository::Replay).  The
 * raw-trace and DecodedStream overloads are feeders of the same loop:
 * one decodes the InstRecords replayBlock at a time, the other hands
 * out the resident stream as one block.  The per-record step order is the same
 * whatever the source, so every feeder is bit-identical to running each
 * context over the full trace alone, the guarantee the sweep and dist
 * layers assert.
 */

#ifndef VMMX_SIM_SIM_CONTEXT_HH
#define VMMX_SIM_SIM_CONTEXT_HH

#include <functional>
#include <span>
#include <vector>

#include "isa/inst.hh"
#include "mem/memsys.hh"
#include "sim/bpred.hh"
#include "sim/params.hh"
#include "sim/resources.hh"
#include "sim/runstats.hh"
#include "trace/decoded.hh"

namespace vmmx
{

/**
 * All mutable per-run state of the timing model for one machine
 * configuration.  step() advances it by one decoded instruction;
 * contexts never share state, so any interleaving of steps across
 * contexts over the same stream yields identical per-context results.
 */
class SimContext
{
    /** The SoA batch view (sim/sim_batch.hh) hoists this context's hot
     *  state into lane arrays, keeps its own ROB and free-list
     *  histories, and reaches back in only for the scalar sub-phases
     *  (memory system, store window, predictor) and to write the
     *  results finish() reads. */
    friend struct SimBatch;

  public:
    /** @param mem the configuration's memory system; not owned. */
    SimContext(const CoreParams &params, MemorySystem *mem);

    /** Return to a cold pipeline and zeroed statistics.  Cache state in
     *  the memory system is left untouched (reset it separately). */
    void reset();

    /** Advance by one instruction of the shared decoded stream. */
    void step(const DecodedInst &inst);

    /** Finish the run: stamp the cycle total and return the stats.
     *  After a batched runBatch() these results are the only meaningful
     *  state: the batch steps its own SoA copy of the pipeline and
     *  writes back nothing else, so the gates, queues, free lists and
     *  ROB ring here are stale until the next reset(). */
    RunStats finish();

    const CoreParams &params() const { return params_; }
    MemorySystem *mem() const { return mem_; }

  private:
    CoreParams params_;
    MemorySystem *mem_;

    WidthGate fetchGate_;
    WidthGate renameGate_;
    WidthGate commitGate_;
    IssueQueueModel iq_;
    SlotPool intPool_;
    SlotPool fpPool_;
    SlotPool simdPool_;
    SlotPool simdIssuePool_;
    BranchPredictor bpred_;

    std::vector<RegFreeList> freeLists_;

    /** Flat per-logical-register ready table: all classes side by side
     *  at fixed offsets (64 Int | 64 Fp | 64 Simd | 8 Acc), indexed by
     *  the slot numbers DecodedInst precomputes. */
    static constexpr size_t readySlots = decodedReadySlots;
    std::array<Cycle, readySlots> regReady_;

    /** Commit-cycle ring for the ROB-occupancy constraint; robPos_
     *  walks it without the modulo of the seq counter it replaced. */
    std::vector<Cycle> robRing_;
    u32 robPos_ = 0;
    /** ceil(vl / lanesPerFu) for every legal vl, precomputed so the
     *  SIMD occupancy needs no per-instruction division. */
    std::array<u8, 17> lanesOcc_;
    Cycle lastCommit_ = 0;
    Cycle fetchRedirect_ = 0;

    /** Stores loads disambiguate against; the wait floor is the
     *  load's rename cycle + 1 (see StoreWindow). */
    StoreWindow stores_;

    RunStats stats_;
};

/**
 * A pull source of decoded blocks: each call returns the next block of
 * the trace (valid until the next call); an empty block ends the
 * replay.
 */
using BlockSource = std::function<std::span<const DecodedInst>()>;

/**
 * Replay the blocks of @p next once, stepping every context in @p ctxs
 * through each block before pulling the next: one pass over the trace,
 * N configurations' worth of statistics.  Each context is reset()
 * first; collect results with SimContext::finish().  Bit-identical to
 * running each context over the trace alone.
 */
void runBatch(const BlockSource &next, std::span<SimContext *const> ctxs);

/** runBatch() over @p trace, decoded one block at a time. */
void runBatch(const std::vector<InstRecord> &trace,
              std::span<SimContext *const> ctxs);

/** runBatch() over an already-decoded stream (an explicit trace's
 *  decoded tier) as one block, with no decode at all. */
void runBatch(const DecodedStream &stream,
              std::span<SimContext *const> ctxs);

} // namespace vmmx

#endif // VMMX_SIM_SIM_CONTEXT_HH
