/**
 * @file
 * ParallelProfile: self-profiler for the tile-sharded kernel.
 *
 * Answers the questions the equivalence suites cannot: where does the
 * wall-clock of a parallel run actually go? The counters split into
 * two classes, kept apart in the JSON output:
 *
 *  - Deterministic counters -- quanta (cycles) stepped, barriers
 *    issued vs elided, per-worker component ticks, flits/credits
 *    merged from boundary outboxes.
 *    These depend only on simulated state and are bit-identical across
 *    repeat runs at the same thread count.
 *
 *  - Host-time measurements (monotonic-clock ns) -- per-worker busy /
 *    wait time, coordinator sweep / barrier-wait / merge time, and a
 *    barrier-wait histogram. These vary run to run and are emitted
 *    under a "host" subobject so report tooling can skip them; the
 *    ledger diff in src/telemetry/report.cc never compares stats.
 *
 * Threading: per-worker slots are written only by their own worker
 * thread, strictly before the domain's arrival-gate release; the
 * coordinator reads them only between cycles (after awaiting every
 * gate) or after shutdown's join, so every read is ordered by the gate
 * acquire and no atomics are needed.
 *
 * The profiler observes, never steers: no simulated state is read back
 * from it, so simulation results are bit-identical with or without it.
 */

#ifndef INPG_SIM_PARALLEL_PARALLEL_PROFILE_HH
#define INPG_SIM_PARALLEL_PARALLEL_PROFILE_HH

#include <cstdint>
#include <vector>

#include "common/histogram.hh"
#include "telemetry/json.hh"

namespace inpg {

/** Per-run execution profile of the parallel kernel; see file comment. */
class ParallelProfile
{
  public:
    /** @param threads total threads including the coordinator (>= 2) */
    explicit ParallelProfile(int threads);

    /** Monotonic host clock in nanoseconds (profiling only). */
    static std::uint64_t nowNs();

    /**
     * Worker `w` (0-based, coordinator excluded) finished one cycle:
     * `wait_ns` parked at the release gate, `busy_ns` sweeping,
     * `ticks` component ticks executed. Called by the worker thread
     * itself, before its arrival-gate release.
     */
    void workerQuantum(std::size_t w, std::uint64_t wait_ns,
                       std::uint64_t busy_ns, std::uint64_t ticks);

    /**
     * Coordinator is about to step one cycle (a quantum); `barrier` is
     * false when the release/await round-trip was elided because every
     * fabric domain was quiescent (nothing active, no timed wake
     * pending).
     */
    void onQuantum(bool barrier);

    /**
     * Coordinator-side timings for the cycle just stepped: own sweep
     * (events + domain-0 components), wait for worker arrival gates
     * (0 when the barrier was elided), and outbox drain.
     */
    void coordinatorQuantum(std::uint64_t sweep_ns,
                            std::uint64_t barrier_wait_ns,
                            std::uint64_t merge_ns);

    /** Boundary traffic merged by one drainOutboxes() pass. */
    void drained(std::uint64_t flits, std::uint64_t credits);

    /**
     * Max / mean of per-worker busy ns -- 1.0 is a perfectly balanced
     * fabric partition, 0 when no worker ever ran.
     */
    double loadImbalance() const;

    std::uint64_t quantaCount() const { return quanta; }
    std::uint64_t barrierCount() const { return barriers; }
    std::uint64_t barriersElidedCount() const { return barriersElided; }

    /**
     * Full profile document: deterministic counters at the top level,
     * host-time measurements under "host" (see file comment).
     */
    JsonValue toJson() const;

  private:
    /** One worker thread's tally; written only by that thread. */
    struct WorkerSlot {
        std::uint64_t quanta = 0;
        std::uint64_t ticks = 0;
        std::uint64_t busyNs = 0;
        std::uint64_t waitNs = 0;
    };

    int nThreads;

    // Deterministic (simulated-state-driven) counters.
    std::uint64_t quanta = 0;
    std::uint64_t barriers = 0;
    std::uint64_t barriersElided = 0;
    std::uint64_t drainedFlits = 0;
    std::uint64_t drainedCredits = 0;

    // Host-time measurements (ns).
    std::vector<WorkerSlot> slots;
    std::uint64_t coordSweepNs = 0;
    std::uint64_t coordBarrierWaitNs = 0;
    std::uint64_t coordMergeNs = 0;
    Histogram barrierWaitHist;
};

} // namespace inpg

#endif // INPG_SIM_PARALLEL_PARALLEL_PROFILE_HH
