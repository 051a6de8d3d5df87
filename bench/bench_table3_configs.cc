/**
 * @file
 * Tables III and IV: the modelled processor and memory configurations.
 *
 * The machine grid is enumerated as SweepPoints and each machine built
 * by makeMachine() (the helper every timing sweep uses), so the rows
 * here are exactly the machines a default (flavour x width) sweep
 * would run.
 */

#include <iostream>

#include "common/table.hh"
#include "harness/sweep.hh"

using namespace vmmx;

int
main()
{
    // Enumerate the canonical grid once; Table III prints every machine,
    // Table IV prints the memory system per width (flavour-invariant).
    std::vector<SweepPoint> grid;
    for (unsigned way : {2u, 4u, 8u})
        for (auto kind : allSimdKinds)
            grid.push_back({SweepPoint::Workload::Kernel, "idct", kind, way});

    std::cout << "Table III: modelled processors\n\n";
    TextTable t3({"config", "phys SIMD", "fetch/commit", "int FUs",
                  "FP FUs", "SIMD issue", "SIMD FUs", "lanes",
                  "mem ports", "ROB", "IQ"});
    for (const SweepPoint &pt : grid) {
        auto m = makeMachine(pt.kind, pt.way, pt.overrides);
        t3.addRow({m.label(), std::to_string(m.core.physSimd),
                   std::to_string(m.core.way),
                   std::to_string(m.core.intFus),
                   std::to_string(m.core.fpFus),
                   std::to_string(m.core.simdIssue),
                   std::to_string(m.core.simdFus),
                   std::to_string(m.core.lanesPerFu),
                   std::to_string(m.core.memPorts),
                   std::to_string(m.core.robSize),
                   std::to_string(m.core.iqSize)});
    }
    t3.print(std::cout);

    std::cout << "\nTable IV: memory hierarchy\n\n";
    TextTable t4({"config", "L1", "L1 ports", "L2", "fill B/cyc",
                  "vec port B/cyc", "mem latency"});
    for (const SweepPoint &pt : grid) {
        if (pt.kind != SimdKind::VMMX128)
            continue;
        auto m = makeMachine(pt.kind, pt.way, pt.overrides);
        auto cache = [](const CacheParams &c) {
            return std::to_string(c.sizeBytes / 1024) + "KB/" +
                   std::to_string(c.assoc) + "way/" +
                   std::to_string(c.lineBytes) + "B/" +
                   std::to_string(c.banks) + "banks/lat" +
                   std::to_string(unsigned(c.latency));
        };
        t4.addRow({m.label(), cache(m.mem.l1),
                   std::to_string(m.mem.l1Ports), cache(m.mem.l2),
                   std::to_string(m.mem.l2FillBytes),
                   std::to_string(m.mem.vecPortBytes),
                   std::to_string(unsigned(m.mem.memLatency))});
    }
    t4.print(std::cout);
    return 0;
}
