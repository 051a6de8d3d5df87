#include "harness/runner.hh"

#include <memory>

namespace vmmx
{

namespace
{

/**
 * The per-configuration state of one batched pass: one private
 * MemorySystem + SimContext per configuration, so contexts share
 * nothing mutable and the batched pass is bit-identical to N
 * independent runs.
 */
struct Batch
{
    std::vector<std::unique_ptr<MemorySystem>> mems;
    std::vector<std::unique_ptr<SimContext>> ctxs;
    std::vector<SimContext *> span;

    explicit Batch(std::span<const MachineConfig> machines)
    {
        mems.reserve(machines.size());
        ctxs.reserve(machines.size());
        span.reserve(machines.size());
        for (const MachineConfig &m : machines) {
            mems.push_back(std::make_unique<MemorySystem>(m.mem));
            ctxs.push_back(
                std::make_unique<SimContext>(m.core, mems.back().get()));
            span.push_back(ctxs.back().get());
        }
    }

    std::vector<RunResult> collect()
    {
        std::vector<RunResult> results(ctxs.size());
        for (size_t i = 0; i < ctxs.size(); ++i) {
            RunResult &r = results[i];
            r.core = ctxs[i]->finish();
            r.l1Hits = mems[i]->l1Hits();
            r.l1Misses = mems[i]->l1Misses();
            r.l2Hits = mems[i]->l2Hits();
            r.l2Misses = mems[i]->l2Misses();
            r.vecAccesses = mems[i]->vecAccesses();
            r.cohInvalidations = mems[i]->coherenceInvalidations();
        }
        return results;
    }
};

/** One batched pass of @p trace, in any runBatch() shape, over fresh
 *  per-configuration state for @p machines. */
template <typename Trace>
std::vector<RunResult>
runBatched(std::span<const MachineConfig> machines, const Trace &trace)
{
    Batch batch(machines);
    runBatch(trace, batch.span);
    return batch.collect();
}

} // namespace

std::vector<RunResult>
runTraceBatch(std::span<const MachineConfig> machines,
              const std::vector<InstRecord> &trace)
{
    return runBatched(machines, trace);
}

std::vector<RunResult>
runTraceBatch(std::span<const MachineConfig> machines,
              const DecodedStream &stream)
{
    return runBatched(machines, stream);
}

std::vector<RunResult>
runTraceBatch(std::span<const MachineConfig> machines, const BlockSource &next)
{
    return runBatched(machines, next);
}

RunResult
runTrace(const MachineConfig &machine, const std::vector<InstRecord> &trace)
{
    return runTraceBatch({&machine, 1}, trace)[0];
}

RunResult
runTrace(const MachineConfig &machine, const DecodedStream &stream)
{
    return runTraceBatch({&machine, 1}, stream)[0];
}

} // namespace vmmx
