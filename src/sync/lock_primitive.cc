#include "sync/lock_primitive.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

const char *
lockKindName(LockKind kind)
{
    switch (kind) {
      case LockKind::Tas:
        return "TAS";
      case LockKind::Ticket:
        return "TTL";
      case LockKind::Abql:
        return "ABQL";
      case LockKind::Mcs:
        return "MCS";
      case LockKind::Qsl:
        return "QSL";
    }
    return "?";
}

LockPrimitive::LockPrimitive(std::string lock_name, CoherentSystem &system,
                             Simulator &simulator, const SyncConfig &config,
                             int threads)
    : sys(system), sim(simulator), cfg(config), ocorPolicy(config.ocor),
      numThreads(threads), lockName(std::move(lock_name))
{
    INPG_ASSERT(threads > 0, "lock with no threads");
}

void
LockPrimitive::applyOcorPriority(ThreadId t, int remaining_retries)
{
    if (!cfg.ocorEnabled)
        return;
    int prio = remaining_retries < 0
        ? ocorPolicy.wakeupPriority()
        : ocorPolicy.spinPriority(remaining_retries);
    l1(t).setNextRequestPriority(prio);
}

void
LockPrimitive::markAcquireStart(ThreadId t)
{
    if (LcoTracker *lco = lcoOf(sim.telemetry()))
        lco->acquireBegin(t, sim.now());
}

void
LockPrimitive::markSleepBegin(ThreadId t)
{
    if (LcoTracker *lco = lcoOf(sim.telemetry()))
        lco->sleepBegin(t, sim.now());
}

void
LockPrimitive::markSleepEnd(ThreadId t)
{
    if (LcoTracker *lco = lcoOf(sim.telemetry()))
        lco->sleepEnd(t, sim.now());
}

void
LockPrimitive::markAcquired(ThreadId t)
{
    if (LcoTracker *lco = lcoOf(sim.telemetry()))
        lco->acquireEnd(t, sim.now());
    ++numHolders;
    INPG_ASSERT(numHolders == 1,
                "mutual exclusion violated on %s: thread %d acquired "
                "while thread %d holds",
                lockName.c_str(), t, holderThread);
    holderThread = t;
    ++stats.acquisitions;
}

void
LockPrimitive::markReleased(ThreadId t)
{
    INPG_ASSERT(numHolders == 1 && holderThread == t,
                "thread %d released %s without holding it", t,
                lockName.c_str());
    --numHolders;
    holderThread = -1;
    ++stats.releases;
}

} // namespace inpg
