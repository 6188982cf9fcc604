#include "sync/qsl_lock.hh"

#include <algorithm>

#include "common/logging.hh"

namespace inpg {

QslLock::QslLock(std::string lock_name, CoherentSystem &system,
                 Simulator &simulator, const SyncConfig &config,
                 int threads, Addr lock_addr)
    : LockPrimitive(std::move(lock_name), system, simulator, config,
                    threads),
      addr(lock_addr), threadState(static_cast<std::size_t>(threads))
{}

int
QslLock::remainingRetries(ThreadId t) const
{
    const PerThread &st = threadState[static_cast<std::size_t>(t)];
    if (st.wokenUp)
        return -1; // wakeup-phase request: lowest priority
    // Remaining retries of the time-based budget: each retry stands
    // for one spin-interval-long poll of the lock word.
    const Cycle budget = static_cast<Cycle>(cfg.qslRetryLimit) *
                         (cfg.spinInterval + 2);
    const Cycle elapsed = sim.now() - st.spinStart;
    if (elapsed >= budget)
        return 0;
    return static_cast<int>((budget - elapsed) /
                            (cfg.spinInterval + 2));
}

bool
QslLock::budgetExhausted(ThreadId t) const
{
    // Woken threads get a fresh budget and may park again if they keep
    // losing (no unbounded priority-starved spinning).
    const PerThread &st = threadState[static_cast<std::size_t>(t)];
    const Cycle budget = static_cast<Cycle>(cfg.qslRetryLimit) *
                         (cfg.spinInterval + 2);
    return !st.sleeping && sim.now() - st.spinStart >= budget;
}

void
QslLock::acquire(ThreadId t, DoneFn done, ThreadHooks *hooks)
{
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    INPG_ASSERT(!st.done, "thread %d double-acquire on %s", t,
                name().c_str());
    st.done = std::move(done);
    st.hooks = hooks;
    st.retries = 0;
    st.spinStart = sim.now();
    st.sleeping = false;
    st.wokenUp = false;
    markAcquireStart(t);
    readPhase(t);
}

void
QslLock::readPhase(ThreadId t)
{
    applyOcorPriority(t, remainingRetries(t));
    l1(t).issueLoad(addr, true, [this, t](std::uint64_t v) {
        PerThread &st = threadState[static_cast<std::size_t>(t)];
        if (v != 0) {
            ++st.retries;
            ++stats.spinReadsBusy;
            if (budgetExhausted(t)) {
                considerSleep(t);
                return;
            }
            spinDelay([this, t] { readPhase(t); });
            return;
        }
        // First attempt goes for ownership directly; retries under
        // observed contention use the demotable path.
        swapPhase(t, st.retries == 0);
    });
}

void
QslLock::swapPhase(ThreadId t, bool force_exclusive)
{
    applyOcorPriority(t, remainingRetries(t));
    l1(t).issueAtomic(addr, AtomicOp::Swap, 1, 0, true,
                      [this, t](std::uint64_t old, bool demoted) {
        PerThread &st = threadState[static_cast<std::size_t>(t)];
        if (demoted && old == 0) {
            ++stats.demotionEscalations;
            swapPhase(t, true);
            return;
        }
        if (!demoted && old == 0) {
            markAcquired(t);
            stats.retriesPerAcquire.add(st.retries);
            if (st.wokenUp)
                ++stats.acquiredAfterSleep;
            else
                ++stats.acquiredSpinning;
            DoneFn done = std::move(st.done);
            st.done = nullptr;
            done();
            return;
        }
        ++st.retries;
        ++stats.swapFailures;
        if (budgetExhausted(t)) {
            considerSleep(t);
            return;
        }
        spinDelay([this, t] { readPhase(t); });
    },
    /*demotable=*/!force_exclusive);
}

void
QslLock::considerSleep(ThreadId t)
{
    // Park on the OS queue, then re-check the lock word once before
    // committing (the kernel's lost-wakeup guard): a release that found
    // the queue empty must be observed here.
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    INPG_ASSERT(!st.sleeping, "thread %d sleeping twice", t);
    st.wokenUp = false;
    st.sleeping = true;
    sleepQueue.push_back(t);
    commitOrAbortSleep(t);
}

void
QslLock::commitOrAbortSleep(ThreadId t)
{
    applyOcorPriority(t, 0);
    l1(t).issueLoad(addr, true, [this, t](std::uint64_t v) {
        PerThread &st = threadState[static_cast<std::size_t>(t)];
        if (!st.sleeping) {
            // A release raced ahead and already woke us; wake() has
            // rescheduled the spin phase.
            return;
        }
        if (v == 0) {
            // Lock freed while parking: abort the sleep and retry.
            st.sleeping = false;
            sleepQueue.erase(
                std::find(sleepQueue.begin(), sleepQueue.end(), t));
            ++stats.sleepAborted;
            swapPhase(t);
            return;
        }
        // Commit: pay the context switch; the thread now only runs
        // again via wake().
        ++stats.sleeps;
        markSleepBegin(t);
        if (st.hooks && st.hooks->onSleep)
            st.hooks->onSleep();
    });
}

void
QslLock::wake(ThreadId t)
{
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    INPG_ASSERT(st.sleeping, "waking awake thread %d", t);
    st.sleeping = false;
    st.wokenUp = true;
    st.spinStart = sim.now();
    ++stats.wakeups;
    // Context-switch out (charged on the sleep side) + wakeup cost.
    sim.scheduleIn(cfg.contextSwitchCost + cfg.wakeupCost, [this, t] {
        PerThread &state = threadState[static_cast<std::size_t>(t)];
        markSleepEnd(t);
        if (state.hooks && state.hooks->onWake)
            state.hooks->onWake();
        readPhase(t);
    });
}

void
QslLock::release(ThreadId t, DoneFn done)
{
    l1(t).issueStore(addr, 0, true,
                     [this, t, done = std::move(done)](std::uint64_t) {
                         markReleased(t);
                         if (!sleepQueue.empty()) {
                             ThreadId head = sleepQueue.front();
                             sleepQueue.pop_front();
                             wake(head);
                         }
                         done();
                     });
}

} // namespace inpg
