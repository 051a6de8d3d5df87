/**
 * @file
 * Experiment runner: replays a trace on one machine configuration -- or
 * on a whole batch of configurations in a single pass over the trace --
 * and returns the combined core + memory statistics per configuration.
 *
 * Both entry points take the trace in any of runBatch()'s shapes: a
 * BlockSource (a sweep unit's streamed replay), a raw trace decoded
 * block by block on the fly, or an already-decoded DecodedStream (an
 * explicit trace's decoded-tier handle).  The per-record step order is
 * identical, so every shape produces bit-identical results.
 */

#ifndef VMMX_HARNESS_RUNNER_HH
#define VMMX_HARNESS_RUNNER_HH

#include <span>
#include <vector>

#include "harness/machine.hh"
#include "sim/sim_context.hh"

namespace vmmx
{

struct RunResult
{
    RunStats core;
    u64 l1Hits = 0;
    u64 l1Misses = 0;
    u64 l2Hits = 0;
    u64 l2Misses = 0;
    u64 vecAccesses = 0;
    u64 cohInvalidations = 0;

    Cycle cycles() const { return core.cycles; }

    /** Bit-exact comparison (sweep determinism checks). */
    bool operator==(const RunResult &o) const = default;
};

/**
 * Run @p trace on every configuration in @p machines from cold caches,
 * streaming the trace once: each record is decoded one time and stepped
 * through all configurations' SimContexts before the next is touched.
 * Results are in @p machines order and bit-identical to calling
 * runTrace() per configuration.
 */
std::vector<RunResult> runTraceBatch(std::span<const MachineConfig> machines,
                                     const std::vector<InstRecord> &trace);

/** Batched replay of a pre-decoded stream: no decode at all, results
 *  bit-identical to the raw-trace overload on the source trace. */
std::vector<RunResult> runTraceBatch(std::span<const MachineConfig> machines,
                                     const DecodedStream &stream);

/** Batched replay of the blocks @p next hands out (runBatch()'s one
 *  form); bit-identical to the raw-trace overload on the same trace. */
std::vector<RunResult> runTraceBatch(std::span<const MachineConfig> machines,
                                     const BlockSource &next);

/** Run @p trace on @p machine from cold caches (the batch-of-one case). */
RunResult runTrace(const MachineConfig &machine,
                   const std::vector<InstRecord> &trace);

/** Batch-of-one replay of a pre-decoded stream. */
RunResult runTrace(const MachineConfig &machine, const DecodedStream &stream);

} // namespace vmmx

#endif // VMMX_HARNESS_RUNNER_HH
