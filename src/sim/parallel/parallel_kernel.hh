/**
 * @file
 * ParallelKernel: tile-sharded execution mode for the simulation
 * kernel.
 *
 * The mesh is partitioned into per-thread tiles ("fabric domains") of
 * plain routers; every protocol component -- NIs, L1s, directories,
 * memory controllers, locks, thread contexts, the workload, and every
 * BigRouter -- stays on the coordinator (domain 0, the calling
 * thread), which also owns the event queue. Plain routers are pure
 * dataflow machines: they never schedule events, never allocate
 * packets, and only talk to their channels (plus, with packet
 * telemetry on, the lifetime record riding on each packet they
 * forward), so a fabric domain needs no event-queue shard and no
 * allocator -- the per-edge outbox mailboxes carry the only cross-tile
 * traffic (flits and credits).
 *
 * Every cycle the coordinator releases the workers, runs its own
 * share of the cycle (events + domain-0 components, Simulator's one
 * serial cycle body) while each worker sweeps its domain for the same
 * cycle, waits for all workers to arrive, then merges: the
 * boundary-channel outboxes that saw a push this cycle (each thread's
 * dirty list) are drained in deterministic channel order (each flit
 * and credit is applied with its original push cycle, so delivery
 * cycles are exactly the serial ones). A packet's head flit sits in one router
 * per cycle and crosses domains only through those outboxes, so each
 * packet lifetime record has one writer per cycle and the coordinator
 * reads it only after a merge. The simulator's end-of-cycle tail
 * (timeseries sampler, progress watchdog, clock) runs after the merge,
 * exactly as in the serial kernel.
 *
 * One cycle per barrier is all the channel latencies allow, and it is
 * enough: a cross-domain flit pushed at cycle t becomes deliverable at
 * t + FLIT_DELAY (2) and a credit at t + CREDIT_DELAY (1), so nothing
 * pushed during a cycle can be read before the next cycle, and the
 * merge at the end of the cycle is never late.
 *
 * Determinism: at every cycle boundary the simulated state -- channel
 * contents, active sets, wake calendars, telemetry -- is identical to
 * the serial kernel's state at that cycle. Each domain has its own
 * ActiveSet, whose wake calendar (the domain ring) it applies at the
 * start of every cycle of its sweep. A flit push wakes its consumer
 * for the delivery cycle, push + FLIT_DELAY, which is never the
 * current cycle, so the merge's delivery sets the wake in the
 * consumer's ring -- a domain ring or the serial one -- before that
 * ring reaches the cycle; credits wake nobody, and the merge lands
 * each one with its push cycle, so it counts from the same cycle as
 * in a serial run. The coordinator writes
 * domain rings only during the merge, while every worker is parked.
 * Fabric routers are woken by timed wakes alone, so no tick is skipped
 * or added against the serial kernel. The barrier is elided only while
 * every domain is quiescent: nothing active and no timed wake pending
 * (a flit in flight toward a sleeping fabric router keeps its domain
 * live). shutdown() moves every pending domain wake back into the
 * serial ring.
 * tests/test_parallel_kernel.cc holds the fingerprint, stats-JSON, and
 * hang-report equivalence suites.
 */

#ifndef INPG_SIM_PARALLEL_PARALLEL_KERNEL_HH
#define INPG_SIM_PARALLEL_PARALLEL_KERNEL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "noc/link.hh"
#include "sim/parallel/parallel_profile.hh"
#include "sim/parallel/spin_barrier.hh"
#include "sim/ticking.hh"

namespace inpg {

class Network;
class Simulator;
class Ticking;

/** Tile-sharded parallel stepper; see file comment. */
class ParallelKernel
{
  public:
    /**
     * Shard `net`'s plain routers across `threads - 1` worker domains
     * (the coordinator keeps a load-balancing share), divert every
     * boundary channel through an outbox, and attach to `sim` so
     * every cycle it executes runs through step(). threads must be
     * >= 2; the serial kernel IS the threads == 1 path.
     *
     * All components must already be registered with `sim`; the
     * simulator rejects addTicking() while a parallel kernel is
     * attached.
     */
    ParallelKernel(Simulator &sim, Network &net, int threads);

    ~ParallelKernel();

    ParallelKernel(const ParallelKernel &) = delete;
    ParallelKernel &operator=(const ParallelKernel &) = delete;

    /**
     * Join the workers and hand every stolen component back to the
     * serial kernel (active bits, pending timed wakes and sleep tokens
     * restored), leaving the simulator in a state bit-identical to a
     * serial kernel that executed the same cycles. Idempotent; runs
     * automatically at destruction.
     */
    void shutdown();

    /** Total threads, including the coordinator. */
    int threads() const { return nThreads; }

    /** Stolen components currently awake across all fabric domains. */
    std::size_t fabricActive() const;

    /**
     * True when no fabric domain has an active component or a timed
     * wake pending in its ring (the barrier-elision test).
     */
    bool fabricQuiescent() const;

    /** Channels whose endpoints live in different domains. */
    std::size_t boundaryChannels() const { return boundaries.size(); }

    /** Components stolen into fabric domains. */
    std::size_t stolenComponents() const { return stolen.size(); }

    /**
     * Execution self-profile (always collected; the overhead is a few
     * clock reads per cycle). Stable to read between cycles and after
     * shutdown.
     */
    const ParallelProfile &profile() const { return *prof; }

  private:
    /** Simulator::step() runs the cycle body through step(). */
    friend class Simulator;

    /** One worker thread's tile: components, active set, arrival gate. */
    struct Domain {
        std::vector<Ticking *> comps;
        /** Bit i = comps[i]; its wake calendar is the domain ring. */
        ActiveSet set;
        /** Outboxes this domain pushed into during the cycle. */
        std::vector<ChannelOutbox *> dirty;
        QuantumGate done;
    };

    /** A cross-domain channel and its diversion mailbox. */
    struct Boundary {
        Channel *channel = nullptr;
        ChannelOutbox box;
    };

    /** Steal record so shutdown() can restore the serial binding. */
    struct StolenSlot {
        Ticking *comp = nullptr;
        std::size_t mainSlot = 0;
    };

    void adopt(Ticking *comp, int domain);
    void classifyBoundaries(Network &net,
                            const std::vector<int> &domainByNode);
    /**
     * The current cycle's body: release the workers unless the fabric
     * is quiescent, run the serial share, await the workers, merge.
     * Simulator::step() then runs the end-of-cycle tail.
     */
    void step();

    void workerLoop(std::size_t d);
    std::uint64_t sweepDomain(Domain &d, Cycle now);
    void drainOutboxes();

    Simulator &sim;
    Network &net;
    int nThreads;

    // deque, not vector: Domain holds a QuantumGate (atomics) and is
    // therefore immovable; deque grows without relocating elements.
    std::deque<Domain> domains;
    std::vector<Boundary> boundaries;
    /** The coordinator's dirty outboxes; the merge appends the rest. */
    std::vector<ChannelOutbox *> coordDirty;
    std::vector<StolenSlot> stolen;
    std::vector<std::thread> workers;

    QuantumGate go;
    std::uint64_t seq = 0;
    std::atomic<bool> stopFlag{false};
    bool joined = false;

    std::unique_ptr<ParallelProfile> prof;
};

} // namespace inpg

#endif // INPG_SIM_PARALLEL_PARALLEL_KERNEL_HH
