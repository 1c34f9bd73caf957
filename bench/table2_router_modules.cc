/**
 * @file
 * Reproduces Table II: the modules SPIN adds to a router and the loop
 * buffer sizing rule, evaluated for the paper's two design points (the
 * 64-router mesh and the 256-router, 1024-node dragonfly), including
 * the paper's "1 flit deep at 128-bit links" observation.
 */

#include <cstdio>

#include "core/LoopBuffer.hh"
#include "exp/ArgParse.hh"
#include "power/AreaPowerModel.hh"

using namespace spin;

int
main(int argc, char **argv)
{
    exp::parseCommandLine(argc, argv, {}); // --help only
    std::printf("=== Table II: SPIN router modules ===\n\n");
    std::printf("%-14s %s\n", "FSM",
                "manages SM traversals and correctness (core/SpinUnit, "
                "core/SpinFsm)");
    std::printf("%-14s %s\n", "Probe Manager",
                "scans input-port VCs, forks probes over waited-on "
                "output ports (core/ProbeManager)");
    std::printf("%-14s %s\n", "Move Manager",
                "processes move / kill_move / probe_move "
                "(core/MoveManager)");
    std::printf("%-14s %s\n\n", "Loop Buffer",
                "stores the deadlock path: log2(radix) * N bits "
                "(core/LoopBuffer)");

    std::printf("%-32s %10s %14s %12s\n", "design point", "bits",
                "flits @128b", "area um^2");
    struct Row
    {
        const char *name;
        int radix, routers;
    } rows[] = {
        {"64-router 8x8 mesh (radix 5)", 5, 64},
        {"256-router dragonfly (radix 15)", 15, 256},
    };
    for (const Row &r : rows) {
        const int bits = LoopBuffer::sizeBits(r.radix, r.routers);
        RouterDesign with, without;
        with.radix = without.radix = r.radix;
        with.numRouters = without.numRouters = r.routers;
        with.extras = SchemeExtras::Spin;
        const double delta = AreaPowerModel::evaluate(with).areaUm2 -
                             AreaPowerModel::evaluate(without).areaUm2;
        std::printf("%-32s %10d %14.1f %12.0f\n", r.name, bits,
                    bits / 128.0, delta);
    }
    std::printf("\nThe 64-router mesh loop buffer is %.1f flits deep at "
                "128-bit links;\nthe paper quotes ~1 flit, i.e. the "
                "control-path cost of SPIN is about one\nbuffer slot "
                "per router -- no datapath buffers are added.\n",
                LoopBuffer::sizeBits(5, 64) / 128.0);
    return 0;
}
