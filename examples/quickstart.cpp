/**
 * @file
 * Quickstart: build the paper's 64-core system, run one benchmark
 * under all four mechanisms, and print the comparison.
 *
 * Defaults showcase the mechanism most clearly: facesim under the
 * test-and-set lock (the primitive with the heaviest lock coherence
 * traffic). Pass lock=qsl for the paper's default platform setup.
 *
 * Every run records per-acquire LCO attribution (the RunRecord's lco
 * section -- no text parsing) and writes a
 * Perfetto-loadable Chrome trace plus a JSON stats snapshot of the
 * iNPG run.
 *
 * Usage: quickstart [benchmark=face] [lock=tas] [topology=mesh:8x8]
 *                   [cs_scale=0.1] [seed=1]
 *                   [trace_out=quickstart_trace.json]
 *                   [stats_json=quickstart_stats.json] ...
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/config.hh"
#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/table_printer.hh"

using namespace inpg;

namespace {

/** Leg share of the mean acquire, in percent. */
std::string
legPct(const JsonValue &lco, const char *leg)
{
    const double total = lco.at("total_latency").asDouble();
    if (total == 0)
        return "-";
    return fixed(100.0 * lco.at("legs").at(leg).asDouble() / total, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    Config overrides;
    overrides.loadArgs(argc, argv);

    RunConfig rc;
    rc.profile =
        benchmarkByName(overrides.getString("benchmark", "face"));
    if (!overrides.has("lock"))
        rc.system.lockKind = LockKind::Tas;
    rc.system.telemetry.lco = true; // typed LCO attribution below
    rc.system.applyOverrides(overrides);
    rc.csScale = overrides.getDouble("cs_scale", 0.1);
    rc.traceOutPath =
        overrides.getString("trace_out", "quickstart_trace.json");
    const std::string stats_json =
        overrides.getString("stats_json", "quickstart_stats.json");

    std::cout << "iNPG quickstart -- benchmark '" << rc.profile.fullName
              << "' on a " << rc.system.noc.meshWidth << "x"
              << rc.system.noc.meshHeight << " many-core\n\n";
    std::cout << rc.system.describe() << "\n";

    TablePrinter table("Four comparative mechanisms (paper Sec. 5.1)");
    table.header({"mechanism", "ROI cycles", "rel. ROI", "CS time",
                  "CS speedup", "COH%", "CSE%", "early Invs",
                  "sleeps"});

    std::vector<RunRecord> results = runAllMechanisms(rc);
    const double base_roi = static_cast<double>(results[0].roiCycles);
    const double base_cs =
        static_cast<double>(results[0].csTotalCycles());

    for (const auto &r : results) {
        table.row({
            r.mechanism,
            std::to_string(r.roiCycles),
            fixed(100.0 * static_cast<double>(r.roiCycles) / base_roi,
                  1) + "%",
            std::to_string(r.csTotalCycles()),
            fixed(base_cs / static_cast<double>(r.csTotalCycles()), 2) +
                "x",
            fixed(100.0 * r.phaseFraction(r.cohCycles), 1),
            fixed(100.0 * r.phaseFraction(r.cseCycles), 1),
            std::to_string(r.earlyInvs),
            std::to_string(r.sleeps),
        });
    }
    std::cout << "\n" << table.render() << "\n";

    // Per-acquire LCO attribution, straight off the lco section.
    TablePrinter lco_table(
        "Lock-acquire latency attribution (% of mean acquire)");
    lco_table.header({"mechanism", "acquires", "mean cyc", "l1", "req",
                      "dir", "resp", "invack", "spin", "sleep",
                      "early-inv acq"});
    for (const auto &r : results) {
        const JsonValue &lco = r.lco;
        lco_table.row({
            r.mechanism,
            std::to_string(lco.at("acquires").asUint()),
            fixed(lco.at("mean_latency").asDouble(), 0),
            legPct(lco, "l1_access"),
            legPct(lco, "req_network"),
            legPct(lco, "dir_service"),
            legPct(lco, "resp_network"),
            legPct(lco, "inv_ack_wait"),
            legPct(lco, "spin_wait"),
            legPct(lco, "sleep_wait"),
            std::to_string(lco.at("acquires_with_early_inv").asUint()),
        });
    }
    std::cout << lco_table.render() << "\n";

    if (!stats_json.empty()) {
        // Snapshot of the iNPG run (ALL_MECHANISMS order: index 2).
        std::ofstream out(stats_json);
        out << results[2].stats.dump(2) << "\n";
        std::cout << "Stats snapshot (iNPG run): " << stats_json
                  << "\n";
    }
    if (!rc.traceOutPath.empty()) {
        std::cout << "Chrome traces (load in Perfetto / "
                     "chrome://tracing): "
                  << traceOutPathFor(rc.traceOutPath,
                                     Mechanism::Original)
                  << " ... "
                  << traceOutPathFor(rc.traceOutPath,
                                     Mechanism::InpgOcor)
                  << "\n";
    }

    std::cout << "CS entries per run: " << results[0].csCompleted
              << " (cs_scale=" << rc.csScale << ")\n";
    if (results[0].csCompleted <
        static_cast<std::uint64_t>(5 * rc.system.numCores())) {
        std::cout << "NOTE: fewer than 5 CS per thread were simulated; "
                     "mechanism deltas at this scale are noise-"
                     "dominated. Use cs_scale=0.1 or higher (and "
                     "several seeds) for steadier comparisons.\n";
    }
    return 0;
}
