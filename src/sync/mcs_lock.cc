#include "sync/mcs_lock.hh"

#include "common/logging.hh"

namespace inpg {

McsLock::McsLock(std::string lock_name, CoherentSystem &system,
                 Simulator &simulator, const SyncConfig &config,
                 int threads, Addr tail_addr, std::vector<Addr> next_addrs,
                 std::vector<Addr> locked_addrs)
    : LockPrimitive(std::move(lock_name), system, simulator, config,
                    threads),
      tailAddr(tail_addr), nextAddrs(std::move(next_addrs)),
      lockedAddrs(std::move(locked_addrs)),
      threadState(static_cast<std::size_t>(threads))
{
    INPG_ASSERT(static_cast<int>(nextAddrs.size()) >= threads &&
                    static_cast<int>(lockedAddrs.size()) >= threads,
                "MCS needs a qnode per thread");
}

void
McsLock::acquire(ThreadId t, DoneFn done, ThreadHooks *hooks)
{
    (void)hooks; // QslLock overrides the polling to use them
    PerThread &st = state(t);
    INPG_ASSERT(!st.done, "thread %d double-acquire on %s", t,
                name().c_str());
    st.done = std::move(done);
    st.retries = 0;
    markAcquireStart(t);

    // mynode.next = null; mynode.locked = 1; prev = swap(tail, my)
    l1(t).issueStore(nextAddrs[static_cast<std::size_t>(t)], 0, true,
                     [this, t](std::uint64_t) {
        l1(t).issueStore(lockedAddr(t), 1, true, [this, t](std::uint64_t) {
            applyOcorPriority(t, cfg.qslRetryLimit);
            l1(t).issueAtomic(
                tailAddr, AtomicOp::Swap,
                static_cast<std::uint64_t>(t) + 1, 0, true,
                [this, t](std::uint64_t prev, bool) {
                    if (prev == 0) {
                        finishAcquire(t);
                        return;
                    }
                    // Link behind the predecessor, then wait for the
                    // hand-off on our own flag.
                    ThreadId pred = static_cast<ThreadId>(prev - 1);
                    ++stats.queuedAcquires;
                    l1(t).issueStore(
                        nextAddrs[static_cast<std::size_t>(pred)],
                        static_cast<std::uint64_t>(t) + 1, true,
                        [this, t](std::uint64_t) { pollLocked(t); });
                });
        });
    });
}

void
McsLock::pollLocked(ThreadId t)
{
    l1(t).issueLoad(lockedAddr(t), true, [this, t](std::uint64_t locked) {
        if (locked == 0) {
            finishAcquire(t);
            return;
        }
        ++state(t).retries;
        ++stats.spinReadsBusy;
        spinDelay([this, t] { pollLocked(t); });
    });
}

void
McsLock::finishAcquire(ThreadId t)
{
    PerThread &st = state(t);
    markAcquired(t);
    stats.retriesPerAcquire.add(st.retries);
    DoneFn done = std::move(st.done);
    st.done = nullptr;
    done();
}

void
McsLock::release(ThreadId t, DoneFn done)
{
    l1(t).issueLoad(nextAddrs[static_cast<std::size_t>(t)], true,
                    [this, t, done = std::move(done)](
                        std::uint64_t next) mutable {
        if (next != 0) {
            ThreadId succ = static_cast<ThreadId>(next - 1);
            l1(t).issueStore(
                lockedAddr(succ), 0, true,
                [this, t, succ, done = std::move(done)](std::uint64_t) {
                    markReleased(t);
                    onHandoff(succ);
                    done();
                });
            return;
        }
        // No known successor: try closing the queue.
        l1(t).issueAtomic(
            tailAddr, AtomicOp::Cas, static_cast<std::uint64_t>(t) + 1, 0,
            true,
            [this, t,
             done = std::move(done)](std::uint64_t old, bool) mutable {
                if (old == static_cast<std::uint64_t>(t) + 1) {
                    markReleased(t);
                    done();
                    return;
                }
                // A successor is linking right now; wait for the link.
                ++stats.releaseLinkRaces;
                waitForSuccessor(t, std::move(done));
            });
    });
}

void
McsLock::waitForSuccessor(ThreadId t, DoneFn done)
{
    l1(t).issueLoad(nextAddrs[static_cast<std::size_t>(t)], true,
                    [this, t, done = std::move(done)](
                        std::uint64_t next) mutable {
        if (next == 0) {
            spinDelay([this, t, done = std::move(done)]() mutable {
                waitForSuccessor(t, std::move(done));
            });
            return;
        }
        ThreadId succ = static_cast<ThreadId>(next - 1);
        l1(t).issueStore(
            lockedAddr(succ), 0, true,
            [this, t, succ, done = std::move(done)](std::uint64_t) {
                markReleased(t);
                onHandoff(succ);
                done();
            });
    });
}

} // namespace inpg
