/**
 * @file
 * Mellor-Crummey & Scott (MCS) list lock [26]: threads enqueue with an
 * atomic swap on a tail pointer and spin on their own qnode flag; a
 * releaser hands the lock directly to its successor, eliminating most
 * cache-line bouncing.
 */

#ifndef INPG_SYNC_MCS_LOCK_HH
#define INPG_SYNC_MCS_LOCK_HH

#include <vector>

#include "sync/lock_primitive.hh"

namespace inpg {

/**
 * MCS lock. The tail pointer holds 0 (free) or thread-id + 1; each
 * thread's qnode is two cache lines: `next` (successor id + 1, or 0)
 * and `locked` (1 while waiting).
 */
class McsLock : public LockPrimitive
{
  public:
    /**
     * @param tail_addr    queue tail pointer line
     * @param next_addrs   per-thread successor-pointer lines
     * @param locked_addrs per-thread wait-flag lines
     */
    McsLock(std::string name, CoherentSystem &system, Simulator &sim,
            const SyncConfig &cfg, int threads, Addr tail_addr,
            std::vector<Addr> next_addrs, std::vector<Addr> locked_addrs);

    void acquire(ThreadId t, DoneFn done,
                 ThreadHooks *hooks = nullptr) override;
    void release(ThreadId t, DoneFn done) override;

  protected:
    /**
     * Hook for QslLock: polls of the locked flag route through here so
     * the subclass can count retries and divert to the sleep phase.
     */
    virtual void pollLocked(ThreadId t);

    /** Complete an acquire (lock handed to t). */
    void finishAcquire(ThreadId t);

    /**
     * Hook for QslLock: called after the releaser's hand-off store to
     * `locked[successor]` completed, identifying the successor.
     */
    virtual void
    onHandoff(ThreadId successor)
    {
        (void)successor;
    }

    struct PerThread {
        DoneFn done;
        int retries = 0;
    };

    PerThread &state(ThreadId t)
    {
        return threadState[static_cast<std::size_t>(t)];
    }

  private:
    void waitForSuccessor(ThreadId t, DoneFn done);

    Addr tailAddr;
    std::vector<Addr> nextAddrs;
    std::vector<Addr> lockedAddrs;
    std::vector<PerThread> threadState;

  protected:
    Addr lockedAddr(ThreadId t)
    {
        return lockedAddrs[static_cast<std::size_t>(t)];
    }
};

} // namespace inpg

#endif // INPG_SYNC_MCS_LOCK_HH
