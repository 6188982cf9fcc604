/**
 * @file
 * ExperimentRunner: runs one benchmark profile on one system
 * configuration and collects every metric the paper's figures report.
 */

#ifndef INPG_HARNESS_EXPERIMENT_HH
#define INPG_HARNESS_EXPERIMENT_HH

#include <vector>

#include "harness/system.hh"
#include "telemetry/run_record.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {

/** Parameters of one experiment run. */
struct RunConfig {
    BenchmarkProfile profile;
    SystemConfig system;
    /** CS-count scaling (see Workload::Params::csScale). */
    double csScale = 0.125;
    /** Optional fixed home for the program's first lock. */
    NodeId lockHome = INVALID_NODE;
    /** Simulation watchdog. */
    Cycle maxCycles = 200000000;
    /**
     * When non-empty, write a Chrome-trace (Perfetto-loadable) JSON of
     * the run here; trace-event + packet telemetry are force-enabled
     * for the run (they never change simulated results).
     */
    std::string traceOutPath;
    /**
     * When non-empty, write the time-series congestion samples here
     * (CSV when the path ends in ".csv", JSON otherwise); the sampler
     * is force-enabled at DEFAULT_TIMESERIES_EPOCH if the config did
     * not already set an epoch. Pure observer -- never changes results.
     */
    std::string timeseriesOutPath;

    bool operator==(const RunConfig &) const = default;
};

/**
 * The identity half of a run's RunRecord, without running it:
 * provenance from the build and the INPG_GIT_SHA / INPG_GIT_DIRTY
 * environment (run_benches.sh exports them), and the configuration
 * fields from `cfg` with its system finalized. Its configKey() names
 * the run before it runs.
 */
RunRecord runIdentity(const RunConfig &cfg);

/**
 * Build a system, run the profile to completion, and describe the run
 * as a ledger RunRecord: runIdentity(cfg) plus the metrics, the rtt
 * and phases sections, and the stats snapshot (with its "lco" and
 * "timeseries" sections attached). Deterministic for a given
 * RunConfig.
 */
RunRecord runBenchmark(const RunConfig &cfg);

/**
 * Run the same profile under all four mechanisms (paper's comparative
 * setup); results indexed by ALL_MECHANISMS order. When
 * cfg.traceOutPath is set, each mechanism's trace goes to
 * traceOutPathFor(path, mechanism) -- the runs execute concurrently
 * and must not share one file.
 */
std::vector<RunRecord> runAllMechanisms(RunConfig cfg);

/** "<stem>.<mechanism><ext>" trace file name ('+' becomes '_'). */
std::string traceOutPathFor(const std::string &base, Mechanism m);

} // namespace inpg

#endif // INPG_HARNESS_EXPERIMENT_HH
