/**
 * @file
 * Test-and-set spin lock (paper Section 2.1, Algorithm 1).
 *
 * Each thread spins reading a shared flag until it observes 0, then
 * attempts an atomic SWAP(1); the winner enters the critical section,
 * losers return to spinning. Generates the heaviest lock coherence
 * traffic of the five primitives: every release triggers a full
 * invalidate/re-read/GetX storm.
 */

#ifndef INPG_SYNC_TAS_LOCK_HH
#define INPG_SYNC_TAS_LOCK_HH

#include <vector>

#include "sync/lock_primitive.hh"

namespace inpg {

/** Test-and-set lock over one shared cache line. */
class TasLock : public LockPrimitive
{
  public:
    /**
     * @param lock_addr line holding the flag (0 free / 1 held)
     */
    TasLock(std::string name, CoherentSystem &system, Simulator &sim,
            const SyncConfig &cfg, int threads, Addr lock_addr);

    void acquire(ThreadId t, DoneFn done,
                 ThreadHooks *hooks = nullptr) override;
    void release(ThreadId t, DoneFn done) override;
    LockKind kind() const override { return LockKind::Tas; }

  private:
    void readPhase(ThreadId t);
    void swapPhase(ThreadId t, bool force_exclusive = false);

    struct PerThread {
        DoneFn done;
        int retries = 0;
    };

    Addr addr;
    std::vector<PerThread> threadState;
};

} // namespace inpg

#endif // INPG_SYNC_TAS_LOCK_HH
