/**
 * @file
 * Parallel sweep runner: fan independent RunConfigs across a host
 * thread pool.
 *
 * Benchmark runs are embarrassingly parallel -- each builds its own
 * System (kernel, NoC, coherence, locks) and its own Rng stream seeded
 * from the configuration, and a System never leaves the worker thread
 * that built it (FlitPool free lists are thread-local; see
 * flit_pool.hh). Results are therefore bit-identical to a serial sweep
 * regardless of thread count or scheduling, just indexed back into
 * submission order.
 */

#ifndef INPG_HARNESS_SWEEP_RUNNER_HH
#define INPG_HARNESS_SWEEP_RUNNER_HH

#include <vector>

#include "harness/experiment.hh"

namespace inpg {

/** Host-side knobs for a sweep (simulated behavior is unaffected). */
struct SweepOptions {
    /**
     * Worker threads; 0 = auto (INPG_SWEEP_THREADS env var if set, else
     * hardware concurrency, capped at the job count).
     */
    int threads = 0;

    /**
     * When set, every finished run's RunRecord is appended after
     * the sweep completes, in submission order -- so the ledger's
     * contents are deterministic regardless of worker scheduling.
     */
    ExperimentLedger *ledger = nullptr;
};

/**
 * Resolve the worker count for `jobs` jobs: an explicit request wins,
 * then the INPG_SWEEP_THREADS environment variable, then the hardware
 * thread count; always within [1, jobs].
 */
int sweepThreadCount(std::size_t jobs, int requested);

/**
 * Arbitrate the host thread budget between sweep-level and intra-run
 * parallelism: with `sweep_workers` concurrent runs on `hw` hardware
 * threads, each run's SystemConfig::threads request is clamped to its
 * fair share max(1, hw / sweep_workers) so a sweep of parallel-kernel
 * runs cannot oversubscribe the host. Never raises a request; a
 * serial run (request <= 1) stays serial. Simulated results are
 * unaffected (the parallel kernel is bit-identical at any width).
 */
int perRunThreadBudget(int sweep_workers, int requested_run_threads,
                       unsigned hw);

/**
 * Run every configuration and return its records in submission order.
 * Runs inline (no threads) when only one worker is warranted.
 */
std::vector<RunRecord> runSweep(const std::vector<RunConfig> &configs,
                                const SweepOptions &opts = {});

/**
 * Big-router-placement sweep grid: one RunConfig per (fabric,
 * big-router count) pair, row-major in the given order. Each fabric is
 * a topology spec or preset name ("torus:8x8", "32x32"); each count
 * sets inpg.numBigRouters on a copy of `base` (counts above the
 * fabric's router total clamp at finalize, as everywhere else). The
 * base's mechanism/lock/benchmark are preserved, so callers sweep
 * placement under exactly the configuration they care about.
 */
std::vector<RunConfig>
buildPlacementSweep(const RunConfig &base,
                    const std::vector<std::string> &fabrics,
                    const std::vector<int> &big_router_counts);

} // namespace inpg

#endif // INPG_HARNESS_SWEEP_RUNNER_HH
