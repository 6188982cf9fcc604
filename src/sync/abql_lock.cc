#include "sync/abql_lock.hh"

#include "common/logging.hh"

namespace inpg {

AbqlLock::AbqlLock(std::string lock_name, CoherentSystem &system,
                   Simulator &simulator, const SyncConfig &config,
                   int threads, Addr tail_addr,
                   std::vector<Addr> flag_lines, int slots_per_line)
    : LockPrimitive(std::move(lock_name), system, simulator, config,
                    threads),
      tailAddr(tail_addr), flagLines(std::move(flag_lines)),
      slotsPerLine(slots_per_line),
      threadState(static_cast<std::size_t>(threads))
{
    INPG_ASSERT(slots_per_line >= 1 && slots_per_line <= 64,
                "flags are bits of a 64-bit word: 1..64 per line");
    INPG_ASSERT(numSlots() >= threads,
                "ABQL needs at least one slot per thread");
}

void
AbqlLock::acquire(ThreadId t, DoneFn done, ThreadHooks *hooks)
{
    (void)hooks;
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    INPG_ASSERT(!st.done, "thread %d double-acquire on %s", t,
                name().c_str());
    st.done = std::move(done);
    st.retries = 0;
    markAcquireStart(t);
    l1(t).issueAtomic(
        tailAddr, AtomicOp::FetchAdd, 1, 0, true,
        [this, t](std::uint64_t old, bool) {
            threadState[static_cast<std::size_t>(t)].slot =
                static_cast<std::size_t>(old) %
                static_cast<std::size_t>(numSlots());
            pollPhase(t);
        });
}

void
AbqlLock::pollPhase(ThreadId t)
{
    PerThread &st = threadState[static_cast<std::size_t>(t)];
    const std::size_t slot = st.slot;
    l1(t).issueLoad(lineOfSlot(slot), true,
                    [this, t, slot](std::uint64_t flags) {
        if ((flags & bitOfSlot(slot)) == 0) {
            ++threadState[static_cast<std::size_t>(t)].retries;
            ++stats.spinReadsBusy;
            spinDelay([this, t] { pollPhase(t); });
            return;
        }
        // Consume the grant so the slot can be reused on wrap-around;
        // this RMW invalidates every poller sharing the line (the
        // packed array's false sharing).
        l1(t).issueAtomic(
            lineOfSlot(slot), AtomicOp::FetchAnd, ~bitOfSlot(slot), 0,
            true, [this, t](std::uint64_t, bool) {
                PerThread &s = threadState[static_cast<std::size_t>(t)];
                markAcquired(t);
                stats.retriesPerAcquire.add(s.retries);
                DoneFn done = std::move(s.done);
                s.done = nullptr;
                done();
            });
    });
}

void
AbqlLock::release(ThreadId t, DoneFn done)
{
    const std::size_t next =
        (threadState[static_cast<std::size_t>(t)].slot + 1) %
        static_cast<std::size_t>(numSlots());
    l1(t).issueAtomic(
        lineOfSlot(next), AtomicOp::FetchOr, bitOfSlot(next), 0, true,
        [this, t, done = std::move(done)](std::uint64_t, bool) {
            markReleased(t);
            done();
        });
}

} // namespace inpg
