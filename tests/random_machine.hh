/**
 * @file
 * The randomized machine the bit-identity tests draw their grids from:
 * wide coverage of the per-lane state a SimContext must keep private
 * and the SoA kernels must keep exact (ROB/IQ/lane/store-window/bpred/
 * memory shapes).  Shared so every suite replays the same draws.
 */

#ifndef VMMX_TESTS_RANDOM_MACHINE_HH
#define VMMX_TESTS_RANDOM_MACHINE_HH

#include <initializer_list>
#include <random>
#include <vector>

#include "common/config.hh"
#include "harness/machine.hh"

namespace vmmx
{

/** A machine with randomized ablation knobs. */
inline MachineConfig
randomMachine(std::mt19937 &rng, SimdKind kind)
{
    auto pick = [&](std::initializer_list<s64> choices) {
        std::vector<s64> v(choices);
        return v[rng() % v.size()];
    };
    unsigned way = unsigned(pick({2, 4, 8}));
    Config knobs;
    if (rng() % 2)
        knobs.set("core.rob", pick({16, 24, 32, 48, 64, 100, 128}));
    if (rng() % 2)
        knobs.set("core.iq", pick({5, 8, 13, 16, 32, 64}));
    if (rng() % 2)
        knobs.set("core.lanes", pick({1, 2, 4}));
    if (rng() % 2)
        knobs.set("core.store_window", pick({0, 1, 3, 16, 64}));
    if (rng() % 2)
        knobs.set("core.bpred", pick({256, 4096}));
    if (rng() % 2)
        knobs.set("mem.l2.latency", pick({6, 12, 20}));
    if (rng() % 2)
        knobs.set("mem.mshrs", pick({2, 8}));
    if (rng() % 2)
        knobs.set("mem.l1.size", pick({16 * 1024, 32 * 1024}));
    // Barely above the 32 logical SIMD registers of the 1-D flavours:
    // frequent register stalls, and a different free count per lane.
    if (rng() % 2)
        knobs.set("core.phys_simd", pick({33, 34, 36, 40, 64}));
    return makeMachine(kind, way, knobs);
}

} // namespace vmmx

#endif // VMMX_TESTS_RANDOM_MACHINE_HH
