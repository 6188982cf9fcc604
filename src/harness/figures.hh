/**
 * @file
 * The paper's tables -- Table 1, Fig. 7a, the run-based Figs. 2 and
 * 8-15, and the design-constant ablations -- rendered from RunRecords.
 * `bench_figures` runs the listed configurations and renders their
 * records; `inpg_report figures` renders the records of a ledger. Both
 * take the same keys:
 *
 *   [fig=table1,07,02,08,09,10,11,12,13,14,15,ablation]
 *   [cs_scale=<f>] [seeds=<n>] [quick=1] [benchmark=<name>]
 *   [SystemConfig keys: topology=, big_routers=, ...]
 *
 * A run is named by its RunRecord::configKey(), so a configuration
 * several figures show is listed once, and each figure renders its
 * tables from the records of its own keys. A data point is `seeds`
 * runs (seeds 1..n) averaged by seedMean(); Figs. 9 and 10 take one
 * run per point. benchmark= picks the ablations' program (default
 * freq).
 */

#ifndef INPG_HARNESS_FIGURES_HH
#define INPG_HARNESS_FIGURES_HH

#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/experiment.hh"

namespace inpg {

/** The figure keys of one command line. */
struct FigureOptions {
    Config overrides;
    double csScale = 0.04;
    int seeds = 1;
    bool quick = false;
    /** Selected figure names, in command-line order. */
    std::vector<std::string> figures;

    /**
     * Base system config with the command line's overrides applied; a
     * non-empty `topology` replaces the command line's fabric.
     */
    SystemConfig systemConfig(const std::string &topology = {}) const;
};

/**
 * Load the figure keys from `argv` (argv[0] is skipped) strictly: an
 * unknown key, an unknown figure or benchmark, seeds < 1 or a bad
 * fabric or table shape is fatal.
 */
FigureOptions loadFigureOptions(int argc, const char *const *argv);

/** The distinct runs of the selected figures, in first-listed order. */
std::vector<RunConfig> listFigureRuns(const FigureOptions &opts);

/**
 * The selected figures' tables, each point read from `records` by
 * configKey() (the first record of a key wins, as in diffLedgers()).
 * A listed run with no record is fatal, naming its key.
 */
std::string renderFigures(const FigureOptions &opts,
                          const std::vector<RunRecord> &records);

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

} // namespace inpg

#endif // INPG_HARNESS_FIGURES_HH
