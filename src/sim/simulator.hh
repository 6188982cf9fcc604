/**
 * @file
 * The cycle-driven simulation kernel.
 *
 * One Simulator instance owns the global clock, the event queue, and the
 * list of clocked components. Each cycle it (1) applies the timed wakes
 * due that cycle, (2) fires due events and (3) ticks every *active*
 * registered component in registration order.
 * Components communicate only through latched structures, so the tick
 * order within a cycle is not observable; runs are fully deterministic.
 *
 * Activity-driven operation: components may suspend themselves via their
 * SleepToken once provably idle (see Ticking), and channel pushes wake
 * their consumer for the cycle the item becomes deliverable (the wake
 * calendar in ActiveSet). When the active set is empty and no timed
 * wake is pending, nothing can change simulated state until the next
 * event-queue firing, so run()/runUntil() fast-forward the clock across
 * the gap instead of spinning through empty cycles. Fast-forward is
 * cycle-accurate: the visited state trajectory is bit-identical to
 * naive per-cycle ticking (only the no-op cycles are elided). Every
 * executed cycle, serial, host-profiled or parallel, goes through
 * step().
 */

#ifndef INPG_SIM_SIMULATOR_HH
#define INPG_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/ticking.hh"

namespace inpg {

class Telemetry;
class KernelProfile;
class ParallelKernel;
class TimeseriesSampler;
class ProgressWatchdog;

/** Cycle-driven kernel with an auxiliary event queue. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component; it will be ticked every cycle while active. */
    void addTicking(Ticking *component);

    /** Current cycle (the cycle about to be or being evaluated). */
    Cycle now() const { return currentCycle; }

    /** Event queue for timed callbacks. */
    EventQueue &events() { return eventQueue; }
    const EventQueue &events() const { return eventQueue; }

    /** Schedule a callback `delay` cycles from now (delay >= 0). */
    void
    scheduleIn(Cycle delay, EventQueue::Callback fn)
    {
        eventQueue.schedule(currentCycle + delay, std::move(fn));
    }

    /** Advance exactly one cycle (never fast-forwards). */
    void step();

    /** Advance n cycles (fast-forwarding across fully idle spans). */
    void run(Cycle n);

    /**
     * Advance until the predicate returns true (checked once per
     * executed cycle, before the cycle executes) or max_cycles elapse.
     * The predicate must be a pure function of simulated state (as
     * every "done" / "held == n" predicate is): it cannot change while
     * the kernel is quiescent, so idle spans are skipped in one jump
     * without re-evaluating it. A clock-reading predicate would be
     * observed late.
     *
     * @return true if the predicate fired, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Cycle max_cycles);

    /**
     * Disable/enable idle fast-forwarding (for A/B determinism checks;
     * enabled by default). Off, run()/runUntil() execute every cycle
     * exactly like the pre-activity-kernel loop.
     */
    void setFastForward(bool enabled) { ffEnabled = enabled; }

    /** Cycles skipped (not individually executed) by fast-forwarding. */
    std::uint64_t cyclesFastForwarded() const { return ffCycles; }

    /** Number of distinct fast-forward jumps taken. */
    std::uint64_t fastForwardJumps() const { return ffJumps; }

    /**
     * Host-side wall-clock breakdown of where simulation time goes,
     * classified by tick-name prefix. Accumulated only while a profile
     * is attached (setHostProfile): the same sweep then ticks through
     * a timing callable. Simulated state is identical either way.
     */
    struct HostPhaseProfile {
        double eventsSec = 0;  ///< EventQueue::runDue
        double routersSec = 0; ///< router%d ticks (incl. big routers)
        double nisSec = 0;     ///< ni%d ticks
        double dirsSec = 0;    ///< dir%d ticks
        double otherSec = 0;   ///< cores / workload / everything else
        std::uint64_t profiledCycles = 0; ///< executed cycles
    };

    /**
     * Attach (or detach with nullptr) a phase-profile accumulator.
     * Requires the serial kernel: per-tick clock reads mean nothing
     * across threads.
     */
    void setHostProfile(HostPhaseProfile *p);

    /**
     * Attach (or detach with nullptr) the telemetry facade.
     * Components read it lazily through telemetry(), so installation
     * order relative to component construction does not matter. The
     * kernel itself feeds the profile (events-per-cycle, wheel
     * occupancy, fast-forward skip histogram) when one is enabled.
     */
    void setTelemetry(Telemetry *t);

    /** Installed telemetry facade, or nullptr when disabled. */
    Telemetry *telemetry() const { return tel; }

    /**
     * Attach (or detach with nullptr) a parallel kernel. While one is
     * attached, every cycle's body runs through it and component
     * registration is rejected. Rejected while a host profile is
     * attached. Installed by ParallelKernel itself; see sim/parallel.
     */
    void attachParallel(ParallelKernel *k);

    /** Attached parallel kernel, or nullptr in serial mode. */
    ParallelKernel *parallel() const { return parKernel; }

    /**
     * Components currently in the active set, across the serial set
     * and every fabric domain of an attached parallel kernel.
     */
    std::size_t activeComponents() const { return totalActive(); }

    /** Registered components (active or not). */
    std::size_t numComponents() const { return slots.size(); }

  private:
    /** Runs the coordinator's share of each cycle (sim/parallel). */
    friend class ParallelKernel;
    /** Tick-name-derived HostPhaseProfile bucket (sweepSerial order). */
    enum class PhaseClass : std::uint8_t {
        Router,
        Ni,
        Dir,
        Other,
    };

    struct Slot {
        Ticking *component = nullptr;
        PhaseClass phase = PhaseClass::Other;
    };

    /**
     * The serial set's share of the current cycle: apply its timed
     * wakes, fire due events, sweep it. The whole cycle body of the
     * serial kernel, and the coordinator's under the parallel kernel.
     * With a host profile attached, the event phase and every tick are
     * timed.
     */
    void sweepSerial();

    /** Fire due events (feeding the kernel profile when attached). */
    void runEventPhase();

    /**
     * Jump the clock across an idle span ending at the event horizon
     * or `limit`, whichever is first. False (clock untouched) when
     * the current cycle must execute: fast-forward is off, the kernel
     * is not quiescent, or an event is due now.
     */
    bool fastForward(Cycle limit);

    /** Active components including fabric domains. */
    std::size_t totalActive() const;

    /**
     * The one quiescence test (fast-forward, deadlock trip): no
     * component active and no timed wake pending, in the serial set
     * or any fabric domain. A flit in flight toward a sleeping
     * consumer is a pending wake, so the clock never skips its
     * delivery.
     */
    bool quiescent() const;

    /**
     * Cycle at which the next stimulus can occur once the active set is
     * empty; CYCLE_NEVER when the event queue is also empty.
     */
    Cycle idleHorizon() const { return eventQueue.nextEventCycle(); }

    Cycle currentCycle = 0;
    EventQueue eventQueue;
    std::vector<Slot> slots;

    /**
     * Packed active set (bit i = slot i) and its wake calendar. The
     * per-cycle loop sweeps set bits (ascending index keeps
     * registration-order ticking) instead of testing a flag per
     * registered component; SleepTokens name their word and bit, so
     * wake/suspend are single bit operations.
     */
    ActiveSet active;

    bool ffEnabled = true;
    std::uint64_t ffCycles = 0;
    std::uint64_t ffJumps = 0;

    HostPhaseProfile *profile = nullptr;
    ParallelKernel *parKernel = nullptr;
    Telemetry *tel = nullptr;
    KernelProfile *kernelProf = nullptr;
    TimeseriesSampler *sampler = nullptr;
    ProgressWatchdog *wdog = nullptr;
};

} // namespace inpg

#endif // INPG_SIM_SIMULATOR_HH
