/**
 * @file
 * inpg_sim: the general-purpose simulation driver.
 *
 * Runs any benchmark profile (or the whole suite) under any mechanism /
 * lock / platform configuration and reports the full set of metrics,
 * optionally as CSV and optionally with the per-component statistics
 * dump (routers, directories, L1s, locks).
 *
 * Usage:
 *   inpg_sim benchmark=freq mechanism=inpg lock=qsl cs_scale=0.1
 *   inpg_sim benchmark=all csv=1 > results.csv
 *   inpg_sim benchmark=kdtree dump_stats=1 topology=mesh:4x4
 *   inpg_sim benchmark=freq topology=torus:8x8     # wraparound fabric
 *   inpg_sim benchmark=freq topology=cmesh:4x4x4   # 4 cores/router
 *   inpg_sim benchmark=freq topology=mesh:16x16 threads=4  # parallel
 *       kernel; bit-identical to threads=1 (src/sim/parallel)
 *   inpg_sim config=myrun.cfg        # "key = value" lines
 *   inpg_sim benchmark=freq --trace-out=run.json   # Chrome trace
 *   inpg_sim benchmark=freq telemetry=lco --stats-json=stats.json
 *   inpg_sim benchmark=freq --ledger-out=sweeps/ledger.jsonl  # append
 *       one RunRecord per run to the experiment ledger (JSONL; see
 *       src/telemetry/run_record.hh and tools/inpg_report)
 *   inpg_sim benchmark=freq --timeseries-out=ts.csv  # congestion rows
 *   inpg_sim benchmark=freq --watchdog-window=1000000 \
 *       --hang-report-out=hang.json   # exit 86 on detected no-progress
 *
 * GNU-style spellings are accepted for every key: "--trace-out=f"
 * means "trace_out=f". A key neither this driver nor SystemConfig
 * reads (a typo such as "lokc=tas") exits 2, from argv or a config
 * file. --stats-json collects one machine-readable snapshot
 * (StatsRegistry + LCO attribution) per run under {"runs": [...]};
 * --trace-out force-enables packet tracing and writes a
 * Perfetto-loadable Chrome trace of the (last) run.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/table_printer.hh"
#include "telemetry/watchdog.hh"

using namespace inpg;

namespace {

void
addResultRow(TablePrinter &t, const RunRecord &r)
{
    t.row({r.benchmark, r.mechanism, r.lock, std::to_string(r.roiCycles),
           std::to_string(r.csCompleted),
           fixed(100.0 * r.phaseFraction(r.parallelCycles), 1),
           fixed(100.0 * r.phaseFraction(r.cohCycles), 1),
           fixed(100.0 * r.phaseFraction(r.cseCycles), 1),
           fixed(100.0 * r.phaseFraction(r.lockCohCycles), 1),
           fixed(r.rttMean, 1), std::to_string(r.rttMax),
           std::to_string(r.earlyInvs), std::to_string(r.sleeps)});
}

/**
 * The dump_stats=1 component statistics, rendered from the run's stats
 * snapshot: router, directory and L1 counters summed over every
 * instance, then each lock and each big router that generated early
 * invalidations. The snapshot lists only non-zero stats, so neither
 * does this dump.
 */
void
printComponentStats(const RunRecord &r)
{
    std::printf("--- component statistics (%s / %s) ---\n",
                r.benchmark.c_str(), r.mechanism.c_str());
    const JsonValue &groups = r.stats.at("groups");
    for (const auto &[prefix, label] :
         {std::pair{"router.", "routers.total"},
          std::pair{"dir.", "dirs.total"}, std::pair{"l1.", "l1s.total"}}) {
        std::map<std::string, std::uint64_t> total;
        for (const auto &[name, g] : groups.members())
            if (name.starts_with(prefix))
                for (const auto &[key, v] : g.at("counters").members())
                    total[key] += v.asUint();
        for (const auto &[key, v] : total)
            std::printf("%s.%s = %llu\n", label, key.c_str(),
                        static_cast<unsigned long long>(v));
    }
    for (const auto &[name, g] : groups.members()) {
        const JsonValue &counters = g.at("counters");
        if (!name.starts_with("lock.") &&
            !(name.starts_with("inpg.gen.") &&
              counters.contains("early_invs_generated")))
            continue;
        for (const auto &[key, v] : counters.members())
            std::printf("%s.%s = %llu\n", name.c_str(), key.c_str(),
                        static_cast<unsigned long long>(v.asUint()));
        for (const auto &[key, v] : g.at("samples").members())
            std::printf("%s.%s = mean %g min %g max %g n %llu\n",
                        name.c_str(), key.c_str(),
                        v.at("mean").asDouble(), v.at("min").asDouble(),
                        v.at("max").asDouble(),
                        static_cast<unsigned long long>(
                            v.at("count").asUint()));
    }
    std::printf("---\n");
}

int
run(int argc, char **argv)
{
    // Every key this driver reads plus every SystemConfig key; any
    // other key, on the command line or in a config file, is fatal.
    std::vector<std::string> known = SystemConfig::overrideKeys();
    known.insert(known.end(),
                 {"config", "benchmark", "csv", "dump_stats",
                  "all_mechanisms", "cs_scale", "lock_home", "num_locks",
                  "trace_out", "timeseries_out", "stats_json",
                  "hang_report_out", "ledger_out"});
    Config overrides;
    overrides.loadArgs(argc, argv, known);
    if (overrides.has("config")) {
        overrides.loadFile(overrides.getString("config"), known);
        // Command line wins over the file: re-apply argv.
        overrides.loadArgs(argc, argv, known);
    }

    const std::string bench = overrides.getString("benchmark", "freq");
    const bool csv = overrides.getBool("csv", false);
    const bool dump = overrides.getBool("dump_stats", false);
    const bool all_mechs = overrides.getBool("all_mechanisms", false);

    std::vector<BenchmarkProfile> profiles;
    if (bench == "all")
        profiles = allBenchmarks();
    else
        for (const auto &name : split(bench, ','))
            profiles.push_back(benchmarkByName(trim(name)));

    RunConfig rc;
    rc.system.applyOverrides(overrides);
    rc.csScale = overrides.getDouble("cs_scale", 0.05);
    if (overrides.has("lock_home"))
        rc.lockHome =
            static_cast<NodeId>(overrides.getInt("lock_home"));
    rc.traceOutPath = overrides.getString("trace_out", "");
    rc.timeseriesOutPath = overrides.getString("timeseries_out", "");
    const std::string stats_json_path =
        overrides.getString("stats_json", "");
    const std::string hang_report_path =
        overrides.getString("hang_report_out", "");
    const std::string ledger_path =
        overrides.getString("ledger_out", "");
    std::unique_ptr<ExperimentLedger> ledger;
    if (!ledger_path.empty()) {
        ledger = std::make_unique<ExperimentLedger>(ledger_path);
        if (!ledger->ok())
            fatal("cannot open ledger '%s'", ledger_path.c_str());
    }

    TablePrinter t("inpg_sim results");
    t.header({"benchmark", "mechanism", "lock", "roi_cycles",
              "cs_completed", "parallel%", "coh%", "cse%", "lco%",
              "rtt_mean", "rtt_max", "early_invs", "sleeps"});

    JsonValue runs = JsonValue::array();
    auto one_run = [&](const RunConfig &run_rc) {
        RunRecord r = runBenchmark(run_rc);
        if (dump)
            printComponentStats(r);
        addResultRow(t, r);
        if (ledger)
            ledger->append(r);
        if (!stats_json_path.empty()) {
            JsonValue entry = JsonValue::object();
            entry["benchmark"] = r.benchmark;
            entry["mechanism"] = r.mechanism;
            entry["lock"] = r.lock;
            entry["roi_cycles"] = r.roiCycles;
            entry["cs_completed"] = r.csCompleted;
            entry["stats"] = std::move(r.stats);
            runs.push(std::move(entry));
        }
    };
    try {
        for (const auto &p : profiles) {
            rc.profile = p;
            // num_locks=1 concentrates the profile's CS traffic on
            // one lock, as the LCO figure benches do.
            if (overrides.has("num_locks"))
                rc.profile.numLocks = overrides.getInt("num_locks");
            if (all_mechs) {
                for (Mechanism m : ALL_MECHANISMS) {
                    rc.system.mechanism = m;
                    one_run(rc);
                }
            } else {
                one_run(rc);
            }
        }
    } catch (const SimHangError &e) {
        // Watchdog trip: persist the structured hang report and exit
        // with the dedicated code so harnesses can tell a detected
        // hang from an ordinary failure.
        std::fprintf(stderr, "inpg_sim: %s\n", e.what());
        std::FILE *out = stdout;
        if (!hang_report_path.empty()) {
            out = std::fopen(hang_report_path.c_str(), "w");
            if (!out)
                fatal("cannot open hang report file '%s'",
                      hang_report_path.c_str());
        }
        const std::string &report = e.reportJson();
        std::fwrite(report.data(), 1, report.size(), out);
        std::fputc('\n', out);
        if (out != stdout) {
            std::fclose(out);
            std::fprintf(stderr, "inpg_sim: hang report written to %s\n",
                         hang_report_path.c_str());
        }
        return HANG_EXIT_CODE;
    }

    if (!stats_json_path.empty()) {
        JsonValue doc = JsonValue::object();
        doc["schema_version"] = STATS_JSON_SCHEMA_VERSION;
        doc["runs"] = std::move(runs);
        std::FILE *f = std::fopen(stats_json_path.c_str(), "w");
        if (!f)
            fatal("cannot open '%s'", stats_json_path.c_str());
        const std::string text = doc.dump(2);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }

    if (csv)
        std::fputs(t.renderCsv().c_str(), stdout);
    else
        std::fputs(t.render().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the message; a rejected config exits
    // 2 (as perfbench_driver does) instead of terminating on a signal.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 2;
    }
}
