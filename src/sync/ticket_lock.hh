/**
 * @file
 * Ticket lock (TTL) [31]: a request counter hands out tickets with
 * fetch-and-add; threads poll the release counter until it equals
 * their ticket. FIFO-fair; a release invalidates every poller's copy
 * of the serving counter at once.
 */

#ifndef INPG_SYNC_TICKET_LOCK_HH
#define INPG_SYNC_TICKET_LOCK_HH

#include <vector>

#include "sync/lock_primitive.hh"

namespace inpg {

/** Ticket lock over two cache lines (request + release counters). */
class TicketLock : public LockPrimitive
{
  public:
    /**
     * @param next_addr    request-counter line (fetch-and-add target)
     * @param serving_addr release-counter line (polled)
     */
    TicketLock(std::string name, CoherentSystem &system, Simulator &sim,
               const SyncConfig &cfg, int threads, Addr next_addr,
               Addr serving_addr);

    void acquire(ThreadId t, DoneFn done,
                 ThreadHooks *hooks = nullptr) override;
    void release(ThreadId t, DoneFn done) override;

  private:
    void pollPhase(ThreadId t);

    struct PerThread {
        DoneFn done;
        std::uint64_t ticket = 0;
        int retries = 0;
    };

    Addr nextAddr;
    Addr servingAddr;
    std::vector<PerThread> threadState;
};

} // namespace inpg

#endif // INPG_SYNC_TICKET_LOCK_HH
