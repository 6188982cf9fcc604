/**
 * @file
 * Base class of the lock primitives.
 *
 * A LockPrimitive instance is one lock: all competing threads call
 * acquire()/release() on the same object. Primitives are asynchronous
 * state machines driving the coherent memory system through L1
 * operations; completion is signalled through callbacks, so a thread
 * context can chain its lifecycle without any host-side blocking.
 */

#ifndef INPG_SYNC_LOCK_PRIMITIVE_HH
#define INPG_SYNC_LOCK_PRIMITIVE_HH

#include <functional>
#include <string>
#include <vector>

#include "coh/coherent_system.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/simulator.hh"
#include "sync/sync_config.hh"

namespace inpg {

/** Callbacks a thread context registers for QSL sleep accounting. */
struct ThreadHooks {
    /** The thread entered the sleep phase (context switched out). */
    std::function<void()> onSleep;
    /** The thread was woken and runs again. */
    std::function<void()> onWake;
};

/** A lock's statistics (snapshot group `lock.NAME`), for all primitives. */
struct LockStats : StatGroup {
    Counter acquiredAfterSleep{*this, "acquired_after_sleep"};
    Counter acquiredSpinning{*this, "acquired_spinning"};
    Counter acquisitions{*this, "acquisitions"};
    Counter demotionEscalations{*this, "demotion_escalations"};
    Counter queuedAcquires{*this, "queued_acquires"};
    Counter releaseLinkRaces{*this, "release_link_races"};
    Counter releases{*this, "releases"};
    Counter sleepAborted{*this, "sleep_aborted"};
    Counter sleeps{*this, "sleeps"};
    Counter spinReadsBusy{*this, "spin_reads_busy"};
    Counter swapFailures{*this, "swap_failures"};
    Counter wakeups{*this, "wakeups"};
    Sample retriesPerAcquire{*this, "retries_per_acquire"};
};

/** One lock, shared by all competing threads. */
class LockPrimitive
{
  public:
    using DoneFn = std::function<void()>;

    /**
     * @param lock_name stats label
     * @param system    the coherent memory substrate
     * @param sim       kernel
     * @param cfg       synchronization parameters (copied)
     * @param threads   number of competing threads (queue sizing)
     */
    LockPrimitive(std::string lock_name, CoherentSystem &system,
                  Simulator &sim, const SyncConfig &cfg, int threads);

    virtual ~LockPrimitive() = default;

    /**
     * Acquire the lock for thread t (running on core t); `done` fires
     * when the thread holds the lock. At most one acquire per thread
     * may be outstanding, and a thread must not re-acquire while
     * holding.
     */
    virtual void acquire(ThreadId t, DoneFn done,
                         ThreadHooks *hooks = nullptr) = 0;

    /** Release the lock held by thread t; `done` fires when visible. */
    virtual void release(ThreadId t, DoneFn done) = 0;

    /** Primitive kind. */
    virtual LockKind kind() const = 0;

    const std::string &name() const { return lockName; }

    /**
     * Mutual-exclusion guard used by tests and thread contexts:
     * number of threads currently between acquire-done and release.
     */
    int holders() const { return numHolders; }

    LockStats stats;

  protected:
    L1Controller &l1(ThreadId t) { return sys.l1(t); }

    /** Schedule `fn` after the configured spin interval. */
    void
    spinDelay(DoneFn fn)
    {
        sim.scheduleIn(cfg.spinInterval, std::move(fn));
    }

    /**
     * OCOR: stamp the next request packet of thread t's L1 with the
     * priority for `remaining_retries` (no-op when OCOR is off).
     * Pass remaining_retries < 0 for a wakeup-phase request.
     */
    void applyOcorPriority(ThreadId t, int remaining_retries);

    /**
     * Telemetry bracket: every primitive calls this at the top of its
     * acquire() so the LCO tracker can attribute the whole window up
     * to markAcquired(). No-op when telemetry is off.
     */
    void markAcquireStart(ThreadId t);

    /** Bracket the critical section for the holders() guard. */
    void markAcquired(ThreadId t);
    void markReleased(ThreadId t);

    /** QSL sleep window, reported to the LCO tracker. */
    void markSleepBegin(ThreadId t);
    void markSleepEnd(ThreadId t);

    CoherentSystem &sys;
    Simulator &sim;
    SyncConfig cfg;
    OcorPolicy ocorPolicy;
    int numThreads;

  private:
    std::string lockName;
    int numHolders = 0;
    ThreadId holderThread = -1;
};

} // namespace inpg

#endif // INPG_SYNC_LOCK_PRIMITIVE_HH
