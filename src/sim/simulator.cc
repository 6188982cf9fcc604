#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/logging.hh"
#include "sim/parallel/parallel_kernel.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

// Host-side profiling only: wall-clock reads never feed back into
// simulated state, so the determinism lint is opted out on this line.
using HostClock = std::chrono::steady_clock; // lint:allow(nondeterminism)

} // namespace

void
Simulator::addTicking(Ticking *component)
{
    INPG_ASSERT(component != nullptr, "registering null component");
    INPG_ASSERT(parKernel == nullptr,
                "cannot register components while a parallel kernel "
                "is attached (it has already partitioned the slots)");
    INPG_ASSERT(!component->token.bound(),
                "component %s registered twice",
                component->tickName().c_str());
    const std::string name = component->tickName();
    PhaseClass phase = PhaseClass::Other;
    if (name.rfind("router", 0) == 0)
        phase = PhaseClass::Router;
    else if (name.rfind("ni", 0) == 0)
        phase = PhaseClass::Ni;
    else if (name.rfind("dir", 0) == 0)
        phase = PhaseClass::Dir;
    slots.push_back(Slot{component, phase});
    // Tokens name the set and a slot index, so growing the bitmap
    // never invalidates an earlier binding: registration is O(1).
    component->token.bind(&active, active.addSlot(true));
}

void
Simulator::setTelemetry(Telemetry *t)
{
    tel = t;
    kernelProf = t ? t->kernel : nullptr;
    sampler = t ? t->timeseries : nullptr;
    wdog = t ? t->watchdog : nullptr;
}

void
Simulator::setHostProfile(HostPhaseProfile *p)
{
    INPG_ASSERT(p == nullptr || parKernel == nullptr,
                "host phase profiling requires the serial kernel "
                "(threads=1)");
    profile = p;
}

void
Simulator::attachParallel(ParallelKernel *k)
{
    INPG_ASSERT(k == nullptr || parKernel == nullptr,
                "a parallel kernel is already attached");
    INPG_ASSERT(k == nullptr || profile == nullptr,
                "host phase profiling requires the serial kernel "
                "(threads=1)");
    parKernel = k;
}

std::size_t
Simulator::totalActive() const
{
    return active.activeCount() +
           (parKernel ? parKernel->fabricActive() : 0);
}

bool
Simulator::quiescent() const
{
    return active.quiescent() && (!parKernel || parKernel->fabricQuiescent());
}

void
Simulator::runEventPhase()
{
    if (kernelProf) {
        const std::uint64_t before = eventQueue.executedTotal();
        eventQueue.runDue(currentCycle);
        kernelProf->onCycle(eventQueue.executedTotal() - before,
                            eventQueue.size());
    } else {
        eventQueue.runDue(currentCycle);
    }
}

void
Simulator::sweepSerial()
{
    active.applyWakes(currentCycle);
    if (!profile) {
        runEventPhase();
        active.sweep([this](std::size_t i) {
            slots[i].component->tick(currentCycle);
        });
        return;
    }
    // Same cycle, with wall-clock accounting. The reads are chained:
    // the one read before each tick closes the event phase's or the
    // previous tick's bucket and opens this tick's.
    double *const buckets[] = {&profile->routersSec, &profile->nisSec,
                               &profile->dirsSec, &profile->otherSec};
    double *open = &profile->eventsSec;
    HostClock::time_point mark = HostClock::now();
    const auto close = [&] {
        const HostClock::time_point now = HostClock::now();
        *open += std::chrono::duration<double>(now - mark).count();
        mark = now;
    };
    runEventPhase();
    active.sweep([&](std::size_t i) {
        close();
        open = buckets[static_cast<std::size_t>(slots[i].phase)];
        slots[i].component->tick(currentCycle);
    });
    close();
}

void
Simulator::step()
{
    if (parKernel)
        parKernel->step();
    else
        sweepSerial();
    // Diagnosis observers see executed cycles only; null when off, so
    // the disabled cost is a few predictable branches.
    if (sampler)
        sampler->onCycle(currentCycle);
    if (wdog)
        wdog->onCycle(currentCycle);
    if (profile)
        ++profile->profiledCycles;
    ++currentCycle;
}

bool
Simulator::fastForward(Cycle limit)
{
    if (!ffEnabled || !quiescent())
        return false;
    const Cycle target = std::min(limit, idleHorizon());
    if (target <= currentCycle)
        return false;
    if (kernelProf)
        kernelProf->onFastForward(target - currentCycle);
    if (sampler)
        sampler->onFastForward(target);
    ffCycles += target - currentCycle;
    ++ffJumps;
    currentCycle = target;
    return true;
}

void
Simulator::run(Cycle n)
{
    const Cycle limit = currentCycle + n;
    while (currentCycle < limit)
        if (!fastForward(limit))
            step();
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    const Cycle limit = currentCycle + max_cycles;
    while (currentCycle < limit) {
        if (done())
            return true;
        if (wdog && ffEnabled && eventQueue.empty() && quiescent()) {
            // Every component is asleep, no timed wake is pending and
            // the event horizon is empty, so no simulated state can
            // ever change again; a predicate that has not fired never
            // will. This is a structural deadlock, not a long sleep --
            // trip immediately rather than fast-forward to the timeout.
            wdog->tripDeadlock(currentCycle);
        }
        // Nothing can flip the predicate inside an idle span.
        if (!fastForward(limit))
            step();
    }
    return done();
}

} // namespace inpg
