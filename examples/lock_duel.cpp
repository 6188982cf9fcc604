/**
 * @file
 * lock_duel: compare the five locking primitives head-to-head on one
 * benchmark profile (paper Section 2.1's menagerie), with and without
 * iNPG -- a compact view of Figures 2 and 13.
 *
 * Usage: lock_duel [benchmark=fluid] [cs_scale=0.1] [topology=mesh:8x8] ...
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/table_printer.hh"

using namespace inpg;

int
main(int argc, char **argv)
{
    Config overrides;
    overrides.loadArgs(argc, argv);

    const BenchmarkProfile &profile =
        benchmarkByName(overrides.getString("benchmark", "fluid"));
    const double cs_scale = overrides.getDouble("cs_scale", 0.1);

    std::printf("lock_duel -- '%s' (%s, group %d): %llu CS, ~%.0f "
                "cycles each, %d lock(s)\n\n",
                profile.fullName.c_str(),
                profile.suite == Suite::Parsec ? "PARSEC" : "OMP2012",
                profile.group,
                static_cast<unsigned long long>(profile.totalCs),
                profile.avgCsCycles, profile.numLocks);

    TablePrinter t("five primitives, Original vs iNPG");
    t.header({"lock", "ROI (Original)", "ROI (iNPG)", "iNPG gain",
              "LCO% (Orig)", "sleeps", "early Invs"});

    for (LockKind k : {LockKind::Tas, LockKind::Ticket, LockKind::Abql,
                       LockKind::Mcs, LockKind::Qsl}) {
        RunConfig rc;
        rc.profile = profile;
        rc.system.applyOverrides(overrides);
        rc.system.lockKind = k;
        rc.csScale = cs_scale;

        rc.system.mechanism = Mechanism::Original;
        RunRecord base = runBenchmark(rc);
        rc.system.mechanism = Mechanism::Inpg;
        RunRecord inpg = runBenchmark(rc);

        const double lco = base.phaseFraction(base.lockCohCycles);
        t.row({lockKindName(k), std::to_string(base.roiCycles),
               std::to_string(inpg.roiCycles),
               fixed(100.0 * (1.0 - static_cast<double>(inpg.roiCycles) /
                                        static_cast<double>(
                                            base.roiCycles)),
                     1) + "%",
               fixed(100.0 * lco, 1) + "%",
               std::to_string(base.sleeps),
               std::to_string(inpg.earlyInvs)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Reading guide: TAS generates the heaviest lock "
                "coherence traffic and benefits most from iNPG; MCS's "
                "local spinning leaves iNPG the least to do (paper "
                "Figs. 2 and 13).\n");
    return 0;
}
