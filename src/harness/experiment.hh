/**
 * @file
 * ExperimentRunner: runs one benchmark profile on one system
 * configuration and collects every metric the paper's figures report.
 */

#ifndef INPG_HARNESS_EXPERIMENT_HH
#define INPG_HARNESS_EXPERIMENT_HH

#include <vector>

#include "common/histogram.hh"
#include "harness/system.hh"
#include "telemetry/json.hh"
#include "telemetry/lco_attribution.hh"
#include "telemetry/run_record.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {

/** Everything measured in one benchmark run. */
struct RunResult {
    std::string benchmark;
    Mechanism mechanism = Mechanism::Original;
    LockKind lockKind = LockKind::Qsl;

    /** ROI length: cycle at which the last thread finished. */
    Cycle roiCycles = 0;

    /** CS entries completed (across threads). */
    std::uint64_t csCompleted = 0;

    /** Per-phase totals summed over threads (thread-cycles). */
    Cycle parallelCycles = 0;
    Cycle cohCycles = 0;   ///< competition overhead incl. sleep
    Cycle sleepCycles = 0; ///< QSL sleep part of COH
    Cycle cseCycles = 0;   ///< CS execution

    /**
     * Lock coherence overhead (paper Fig. 2): thread-cycles spent in
     * lock-variable coherence transactions beyond the L1 hit cost.
     */
    Cycle lockCohCycles = 0;

    /** Total CS time (paper Fig. 11's unit): COH + CSE. */
    Cycle csTotalCycles() const { return cohCycles + cseCycles; }

    /** Inv-Ack round-trip statistics (paper Fig. 10). */
    double rttMean = 0;
    std::uint64_t rttMax = 0;
    std::uint64_t rttCount = 0;
    Histogram rttHistogram{5, 40};
    std::vector<double> rttPerCoreMean;

    /** iNPG activity. */
    std::uint64_t earlyInvs = 0;

    /** QSL sleep statistics. */
    std::uint64_t sleeps = 0;
    std::uint64_t wakeups = 0;

    /**
     * Machine-readable stats snapshot (System::statsSnapshot()): every
     * component StatGroup, derived scalars, kernel histograms, and --
     * when LCO attribution is on -- the "lco" section. Always
     * populated; consumers no longer parse the text dump.
     */
    JsonValue stats;

    /**
     * Per-lock-acquire LCO attribution roll-up; all-zero unless
     * `telemetry=lco` (or more) was enabled on the run.
     */
    LcoSummary lco;

    /** Fraction of (thread x ROI) time spent in a phase. */
    double
    phaseFraction(Cycle phase_cycles, int threads) const
    {
        double denom = static_cast<double>(roiCycles) *
                       static_cast<double>(threads);
        return denom > 0 ? static_cast<double>(phase_cycles) / denom : 0;
    }
};

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
};

/**
 * Build a system, run the profile to completion, return the metrics.
 * Deterministic for a given RunConfig.
 */
RunResult runBenchmark(const RunConfig &cfg);

/**
 * Describe a finished run as a ledger RunRecord: configuration
 * identity from the (finalized) config, provenance from the build and
 * the INPG_GIT_SHA / INPG_GIT_DIRTY environment (run_benches.sh
 * exports them), metrics and attached sections from the result.
 */
RunRecord makeRunRecord(const RunConfig &cfg, const RunResult &r);

/**
 * Run the same profile under all four mechanisms (paper's comparative
 * setup); results indexed by ALL_MECHANISMS order. When
 * cfg.traceOutPath is set, each mechanism's trace goes to
 * traceOutPathFor(path, mechanism) -- the runs execute concurrently
 * and must not share one file.
 */
std::vector<RunResult> runAllMechanisms(RunConfig cfg);

/** "<stem>.<mechanism><ext>" trace file name ('+' becomes '_'). */
std::string traceOutPathFor(const std::string &base, Mechanism m);

} // namespace inpg

#endif // INPG_HARNESS_EXPERIMENT_HH
