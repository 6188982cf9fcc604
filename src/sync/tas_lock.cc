#include "sync/tas_lock.hh"

#include "common/logging.hh"

namespace inpg {

TasLock::TasLock(std::string lock_name, CoherentSystem &system,
                 Simulator &simulator, const SyncConfig &config,
                 int threads, Addr lock_addr)
    : LockPrimitive(std::move(lock_name), system, simulator, config,
                    threads),
      addr(lock_addr),
      threadState(static_cast<std::size_t>(threads))
{}

void
TasLock::acquire(ThreadId t, DoneFn done, ThreadHooks *hooks)
{
    (void)hooks; // TAS never sleeps
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    INPG_ASSERT(!st.done, "thread %d double-acquire on %s", t,
                name().c_str());
    st.done = std::move(done);
    st.retries = 0;
    markAcquireStart(t);
    readPhase(t);
}

void
TasLock::readPhase(ThreadId t)
{
    l1(t).issueLoad(addr, true, [this, t](std::uint64_t v) {
        PerThread &st = threadState[static_cast<std::size_t>(t)];
        if (v != 0) {
            ++st.retries;
            ++stats.spinReadsBusy;
            spinDelay([this, t] { readPhase(t); });
            return;
        }
        // First attempt goes for ownership directly (an uncontended
        // lock should transfer in one trip); once we have failed swaps
        // behind us the acquire is contended and demotion applies.
        swapPhase(t, st.retries == 0);
    });
}

void
TasLock::swapPhase(ThreadId t, bool force_exclusive)
{
    l1(t).issueAtomic(
        addr, AtomicOp::Swap, 1, 0, true,
        [this, t](std::uint64_t old, bool demoted) {
            PerThread &st = threadState[static_cast<std::size_t>(t)];
            if (!demoted && old == 0) {
                markAcquired(t);
                stats.retriesPerAcquire.add(st.retries);
                DoneFn done = std::move(st.done);
                st.done = nullptr;
                done();
                return;
            }
            if (demoted && old == 0) {
                // Lock freed while our demoted request was in flight:
                // insist on ownership this time.
                ++stats.demotionEscalations;
                swapPhase(t, true);
                return;
            }
            ++st.retries;
            ++stats.swapFailures;
            spinDelay([this, t] { readPhase(t); });
        },
        /*demotable=*/!force_exclusive);
}

void
TasLock::release(ThreadId t, DoneFn done)
{
    l1(t).issueStore(addr, 0, true,
                     [this, t, done = std::move(done)](std::uint64_t) {
                         markReleased(t);
                         done();
                     });
}

} // namespace inpg
