/**
 * @file
 * Cross-run differential reports over experiment ledgers: the library
 * core behind `tools/inpg_report`.
 *
 *  - diffLedgers():   pair runs by simulated-configuration key and
 *                     report per-metric deltas. Thresholds are
 *                     noise-aware: simulated counters are exact by
 *                     default (the kernel is deterministic), doubles
 *                     absorb only float-formatting epsilon, and
 *                     host-time measurements (the parallel profiler's
 *                     ns counters, anything under stats host sections)
 *                     are never compared at all.
 *  - aggregateReport(): ledger -> markdown paper-figure tables: the
 *                     Fig-2 LCO share table (lcoShare(), the formula
 *                     bench_figures' Fig. 2 prints), the LCO
 *                     home/big-router InvAck split, and speedup vs
 *                     core count per mechanism.
 *  - seedMean() / lcoShare(): the one seed-averaging arithmetic that
 *                     every figure table and aggregateReport() use.
 *  - regressLedger(): fresh ledger vs committed baseline -> pass/fail
 *                     gate (used by run_benches.sh --quick and ci.sh):
 *                     fails on any metric delta and on any baseline
 *                     configuration missing from the fresh ledger.
 *
 * Everything here is deterministic in its inputs: the same two ledgers
 * produce byte-identical reports (asserted in tests).
 */

#ifndef INPG_TELEMETRY_REPORT_HH
#define INPG_TELEMETRY_REPORT_HH

#include <functional>
#include <string>
#include <vector>

#include "telemetry/run_record.hh"

namespace inpg {

/** Report knobs. */
struct ReportOptions {
    /**
     * Relative tolerance applied to every compared metric; 0 (the
     * default) means exact for integer counters. Use a small value
     * when comparing across compilers or seed-averaged ledgers.
     */
    double tolerance = 0;

    /** Also list paired configs with no differing metric. */
    bool verbose = false;
};

/** One metric that differs between paired runs. */
struct MetricDelta {
    std::string configKey;
    std::string metric;
    double before = 0;
    double after = 0;
};

/** Outcome of a ledger diff. */
struct DiffResult {
    std::vector<MetricDelta> deltas;
    std::vector<std::string> onlyInA; ///< config keys unpaired in B
    std::vector<std::string> onlyInB; ///< config keys unpaired in A
    std::size_t pairedConfigs = 0;

    bool identical() const { return deltas.empty(); }

    /** Human-readable report (stable across invocations). */
    std::string render(const ReportOptions &opts = {}) const;
};

/**
 * Pair the runs of `a` and `b` by RunRecord::configKey() (first
 * occurrence wins on duplicates) and compare every deterministic
 * metric. See the file comment for the threshold discipline.
 */
DiffResult diffLedgers(const std::vector<RunRecord> &a,
                       const std::vector<RunRecord> &b,
                       const ReportOptions &opts = {});

/**
 * Seed mean of `metric` -- a RunRecord member pointer or a function of
 * a record -- over `runs`, one configuration under several seeds: the
 * sum in the given order, then one division by the count (0 for no
 * runs). Every seed-averaged figure cell uses this.
 */
template <typename Metric>
double
seedMean(const std::vector<const RunRecord *> &runs, Metric metric)
{
    double sum = 0;
    for (const RunRecord *r : runs)
        sum += static_cast<double>(std::invoke(metric, *r));
    return runs.empty() ? 0 : sum / static_cast<double>(runs.size());
}

/**
 * Paper Fig. 2's LCO share of one configuration: the ratio of seed
 * means, seedMean(lock_coh_cycles) / (seedMean(roi_cycles) x cores),
 * with cores from the first run (0 when there is no ROI).
 */
double lcoShare(const std::vector<const RunRecord *> &runs);

/** Ledger -> markdown tables; see the file comment. */
std::string aggregateReport(const std::vector<RunRecord> &records);

/** Outcome of a regression gate. */
struct RegressResult {
    DiffResult diff;
    bool pass = false;

    /** Human-readable verdict ending in PASS or FAIL. */
    std::string render(const ReportOptions &opts = {}) const;
};

/**
 * Gate `fresh` against `baseline`: every baseline configuration must
 * be present in the fresh ledger with every compared metric within
 * tolerance. Extra fresh-only configurations are reported but legal
 * (ledgers grow append-only).
 */
RegressResult regressLedger(const std::vector<RunRecord> &fresh,
                            const std::vector<RunRecord> &baseline,
                            const ReportOptions &opts = {});

} // namespace inpg

#endif // INPG_TELEMETRY_REPORT_HH
