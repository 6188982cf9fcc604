/**
 * @file
 * Coordinator/worker quantum gate for the parallel kernel.
 *
 * The parallel kernel advances the fabric domains in lockstep, one
 * cycle per quantum: the coordinator publishes a quantum (release),
 * every worker sweeps its domain and arrives (also release, on its own
 * gate), and the coordinator waits for all arrivals before merging
 * boundary traffic.
 * A gate is a monotonically increasing epoch counter; release stores
 * the new epoch, await blocks until the published epoch reaches the
 * requested one. All cross-thread data (the clock, domain bitmaps,
 * outboxes, dirty-outbox lists, packet lifetime records) is plain memory
 * ordered exclusively by the release/acquire pairs on these epochs --
 * there is no other lock in the simulator.
 *
 * Waiters spin, yield, then park. A quantum is one simulated cycle, a
 * few microseconds of work, so a waiter that parked on the
 * futex behind std::atomic::wait would pay a park/unpark round trip on
 * nearly every barrier. await() therefore spins on the epoch for up
 * to SPIN_ROUNDS rounds of cpuRelax() (about 40 us at ~19 ns per x86
 * `pause`), which catches the common handoff on a host with a core
 * per thread. Every YIELD_PERIOD rounds it calls
 * std::this_thread::yield(): when the host is oversubscribed -- CI
 * containers running several threaded tests at once, fewer cores than
 * worker threads -- the thread that would publish the epoch may be
 * queued behind the spinner on the same core, and the yield hands it
 * the core instead of burning the spinner's time slice. A waiter that
 * outlasts the budget parks on the futex, so an idle kernel costs no
 * CPU.
 */

#ifndef INPG_SIM_PARALLEL_SPIN_BARRIER_HH
#define INPG_SIM_PARALLEL_SPIN_BARRIER_HH

#include <atomic>
#include <cstdint>
#include <thread>

namespace inpg {

/** Spin-loop hint: x86 `pause`, aarch64 `yield`, otherwise nothing. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/** One-directional epoch gate (see file comment). */
class alignas(64) QuantumGate
{
  public:
    /** Spin rounds before a waiter parks on the futex. */
    static constexpr int SPIN_ROUNDS = 2048;
    /** A spinning waiter yields its core once per this many rounds. */
    static constexpr int YIELD_PERIOD = 64;

    /** Publish epoch `e`; wakes every parked waiter. */
    void
    release(std::uint64_t e)
    {
        epoch.store(e, std::memory_order_release);
        epoch.notify_all();
    }

    /**
     * Block until the published epoch reaches `e`. Returns true if
     * the wait outlasted the spin budget and parked.
     */
    bool
    await(std::uint64_t e) const
    {
        for (int i = 1; i <= SPIN_ROUNDS; ++i) {
            if (epoch.load(std::memory_order_acquire) >= e)
                return false;
            cpuRelax();
            if (i % YIELD_PERIOD == 0)
                std::this_thread::yield();
        }
        std::uint64_t cur = epoch.load(std::memory_order_acquire);
        while (cur < e) {
            epoch.wait(cur, std::memory_order_acquire);
            cur = epoch.load(std::memory_order_acquire);
        }
        return true;
    }

  private:
    std::atomic<std::uint64_t> epoch{0};
};

} // namespace inpg

#endif // INPG_SIM_PARALLEL_SPIN_BARRIER_HH
