/**
 * @file
 * Queue spin-lock (QSL): the default synchronization primitive of
 * modern OSes (Linux 4.2, paper Section 2.1 #5).
 *
 * A thread spins on the lock word for a bounded number of retries
 * (Table 1: 128), then context-switches out and parks on the lock's OS
 * request queue; the releasing holder wakes the queue head, which
 * re-enters the spin phase. Model notes (see DESIGN.md): the spin
 * phase issues test-and-swap attempts on the lock word -- sleeping
 * threads must abandon the spin queue, which rules out literal MCS
 * queueing in the spin phase; the retry loop is exactly what OCOR's
 * RTR instrumentation attaches to (spin packets carry RTR priority,
 * wakeup packets the lowest level).
 */

#ifndef INPG_SYNC_QSL_LOCK_HH
#define INPG_SYNC_QSL_LOCK_HH

#include <deque>
#include <vector>

#include "sync/lock_primitive.hh"

namespace inpg {

/** Queue spin-lock: bounded spin, then sleep on an OS queue. */
class QslLock : public LockPrimitive
{
  public:
    QslLock(std::string name, CoherentSystem &system, Simulator &sim,
            const SyncConfig &cfg, int threads, Addr lock_addr);

    void acquire(ThreadId t, DoneFn done,
                 ThreadHooks *hooks = nullptr) override;
    void release(ThreadId t, DoneFn done) override;

    /** Threads currently parked on the OS queue. */
    std::size_t sleepers() const { return sleepQueue.size(); }

  private:
    void readPhase(ThreadId t);
    void swapPhase(ThreadId t, bool force_exclusive = false);
    void considerSleep(ThreadId t);
    void commitOrAbortSleep(ThreadId t);
    void wake(ThreadId t);
    int remainingRetries(ThreadId t) const;

    struct PerThread {
        DoneFn done;
        ThreadHooks *hooks = nullptr;
        int retries = 0;
        /** Cycle the current spin phase began (retry budget is time-
         *  based: 128 retries x spin interval of quick polls; a slow
         *  coherence round trip consumes several retries' worth). */
        Cycle spinStart = 0;
        bool sleeping = false;
        /** Woken from the sleep phase: packets use wakeup priority. */
        bool wokenUp = false;
    };

    /** True when the thread's spin budget is exhausted. */
    bool budgetExhausted(ThreadId t) const;

    Addr addr;
    std::vector<PerThread> threadState;

    /** The lock's OS request queue (FIFO). */
    std::deque<ThreadId> sleepQueue;
};

} // namespace inpg

#endif // INPG_SYNC_QSL_LOCK_HH
