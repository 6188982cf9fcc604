#include "sync/ticket_lock.hh"

#include "common/logging.hh"

namespace inpg {

TicketLock::TicketLock(std::string lock_name, CoherentSystem &system,
                       Simulator &simulator, const SyncConfig &config,
                       int threads, Addr next_addr, Addr serving_addr)
    : LockPrimitive(std::move(lock_name), system, simulator, config,
                    threads),
      nextAddr(next_addr), servingAddr(serving_addr),
      threadState(static_cast<std::size_t>(threads))
{
    INPG_ASSERT(next_addr != serving_addr,
                "ticket counters must not share a line");
}

void
TicketLock::acquire(ThreadId t, DoneFn done, ThreadHooks *hooks)
{
    (void)hooks;
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    INPG_ASSERT(!st.done, "thread %d double-acquire on %s", t,
                name().c_str());
    st.done = std::move(done);
    st.retries = 0;
    markAcquireStart(t);
    l1(t).issueAtomic(nextAddr, AtomicOp::FetchAdd, 1, 0, true,
                      [this, t](std::uint64_t old, bool) {
                          threadState[static_cast<std::size_t>(t)]
                              .ticket = old;
                          pollPhase(t);
                      });
}

void
TicketLock::pollPhase(ThreadId t)
{
    l1(t).issueLoad(servingAddr, true, [this, t](std::uint64_t serving) {
        PerThread &st = threadState[static_cast<std::size_t>(t)];
        if (serving == st.ticket) {
            markAcquired(t);
            stats.retriesPerAcquire.add(st.retries);
            DoneFn done = std::move(st.done);
            st.done = nullptr;
            done();
            return;
        }
        INPG_ASSERT(serving < st.ticket,
                    "ticket lock %s passed thread %d (serving %llu, "
                    "ticket %llu)",
                    name().c_str(), t,
                    static_cast<unsigned long long>(serving),
                    static_cast<unsigned long long>(st.ticket));
        ++st.retries;
        ++stats.spinReadsBusy;
        spinDelay([this, t] { pollPhase(t); });
    });
}

void
TicketLock::release(ThreadId t, DoneFn done)
{
    const std::uint64_t next_serving =
        threadState[static_cast<std::size_t>(t)].ticket + 1;
    l1(t).issueStore(servingAddr, next_serving, true,
                     [this, t, done = std::move(done)](std::uint64_t) {
                         markReleased(t);
                         done();
                     });
}

} // namespace inpg
