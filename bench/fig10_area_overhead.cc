/**
 * @file
 * Reproduces Fig. 10 (router area overhead of deadlock-freedom schemes
 * normalized to the plain west-first router) plus the Sec. VI-C/D
 * area/power claims (1-VC vs 3-VC routers for mesh and dragonfly),
 * using the analytical Nangate-15nm-calibrated model.
 *
 * Expected shape: SPIN adds a few percent over west-first; Static
 * Bubble costs more (central recovery buffer); Escape-VC costs by far
 * the most (a full extra VC per vnet); the 1-VC routers are roughly
 * half the area and power of the 3-VC routers.
 */

#include <cstdio>

#include "bench/BenchUtil.hh"
#include "core/LoopBuffer.hh"
#include "power/AreaPowerModel.hh"

using namespace spin;

namespace
{

RouterDesign
design(int radix, int vcs, int routers, SchemeExtras extras)
{
    RouterDesign d;
    d.radix = radix;
    d.vnets = 3;
    d.vcsPerVnet = vcs;
    d.vcDepthFlits = 5;
    d.flitBits = 128;
    d.numRouters = routers;
    d.extras = extras;
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options::parse(argc, argv, {}); // --help only
    std::printf("=== Fig. 10: mesh router area, normalized to "
                "west-first ===\n%-16s %12s %10s %10s\n", "design",
                "area(um^2)", "norm", "overhead");
    const AreaPower base =
        AreaPowerModel::evaluate(design(5, 1, 64, SchemeExtras::None));
    const struct
    {
        const char *name;
        SchemeExtras extras;
    } rows[] = {
        {"WestFirst", SchemeExtras::None},
        {"EscapeVC", SchemeExtras::EscapeVc},
        {"StaticBubble", SchemeExtras::StaticBubble},
        {"SPIN", SchemeExtras::Spin},
    };
    for (const auto &r : rows) {
        const AreaPower ap =
            AreaPowerModel::evaluate(design(5, 1, 64, r.extras));
        std::printf("%-16s %12.0f %10.3f %9.1f%%\n", r.name, ap.areaUm2,
                    ap.areaUm2 / base.areaUm2,
                    100.0 * (ap.areaUm2 / base.areaUm2 - 1.0));
    }

    std::printf("\n=== Sec. VI-C/D: 1-VC vs 3-VC router cost ===\n");
    std::printf("%-28s %12s %12s\n", "router", "area(um^2)",
                "power(mW)");
    const struct
    {
        const char *name;
        int radix, vcs, routers;
    } duo[] = {
        {"mesh r5 1VC/vnet", 5, 1, 64},
        {"mesh r5 3VC/vnet", 5, 3, 64},
        {"dragonfly r15 1VC/vnet", 15, 1, 256},
        {"dragonfly r15 3VC/vnet", 15, 3, 256},
    };
    AreaPower prev{};
    for (const auto &r : duo) {
        const AreaPower ap = AreaPowerModel::evaluate(
            design(r.radix, r.vcs, r.routers, SchemeExtras::None));
        std::printf("%-28s %12.0f %12.2f", r.name, ap.areaUm2,
                    ap.powerMw);
        if (r.vcs == 3) {
            std::printf("   (1VC is %.0f%% lower area, %.0f%% lower "
                        "power)", 100 * (1 - prev.areaUm2 / ap.areaUm2),
                        100 * (1 - prev.powerMw / ap.powerMw));
        }
        std::printf("\n");
        prev = ap;
    }

    std::printf("\n=== Table II sizing check: loop buffer ===\n");
    std::printf("64-router mesh (radix 5):      %4d bits (%0.1f flits "
                "@128b)\n", LoopBuffer::sizeBits(5, 64),
                LoopBuffer::sizeBits(5, 64) / 128.0);
    std::printf("256-router dragonfly (radix 15): %4d bits (%0.1f flits "
                "@128b)\n", LoopBuffer::sizeBits(15, 256),
                LoopBuffer::sizeBits(15, 256) / 128.0);
    return 0;
}
