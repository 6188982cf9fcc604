#include "sim/simulator.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "common/logging.hh"
#include "sim/parallel/parallel_kernel.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

// Host-side profiling only: these wall-clock reads never feed back
// into simulated state, so the determinism lint is opted out per line.
double
secondsSince(std::chrono::steady_clock::time_point t0) // lint:allow(nondeterminism)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0) // lint:allow(nondeterminism)
        .count();
}

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
Simulator::attachParallel(ParallelKernel *k)
{
    INPG_ASSERT(k == nullptr || parKernel == nullptr,
                "a parallel kernel is already attached");
    INPG_ASSERT(k == nullptr || profile == nullptr,
                "host phase profiling requires the serial kernel");
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
Simulator::sweepActive()
{
    // Sweep the active bitmap in ascending slot order, re-reading the
    // live word before every pick so a tick that wakes a HIGHER slot
    // makes it run this same cycle -- exactly the reference flag loop's
    // semantics (each index is examined once, with its state as of the
    // moment the scan reaches it). The cursor mask retires the chosen
    // bit and everything below it, so backward wakes wait for the next
    // cycle just as the flag loop's already-passed indices did.
    // Components only ever suspend themselves, so a bit the cursor has
    // not reached can vanish only with its tick already unnecessary.
    for (std::size_t w = 0; w < active.numWords(); ++w) {
        std::uint64_t eligible = ~std::uint64_t{0};
        std::uint64_t m;
        while ((m = active.word(w) & eligible) != 0) {
            const std::size_t b =
                static_cast<std::size_t>(std::countr_zero(m));
            eligible &= ~std::uint64_t{0} << 1 << b;
            slots[(w << 6) + b].component->tick(currentCycle);
        }
    }
}

void
Simulator::step()
{
    if (profile) {
        stepProfiled();
        return;
    }
    if (parKernel) {
        parKernel->step(1);
        return;
    }
    active.applyWakes(currentCycle);
    runEventPhase();
    sweepActive();
    // Diagnosis observers see executed cycles only; null when off, so
    // the disabled cost is two predictable branches.
    if (sampler)
        sampler->onCycle(currentCycle);
    if (wdog)
        wdog->onCycle(currentCycle);
    ++currentCycle;
}

void
Simulator::stepProfiled()
{
    // Identical cycle semantics to step(), with wall-clock accounting
    // around the event phase and each component tick. The two extra
    // clock reads per tick distort absolute times slightly; the
    // events-vs-subsystem *split* is what perfbench reports.
    active.applyWakes(currentCycle);
    auto t0 = std::chrono::steady_clock::now(); // lint:allow(nondeterminism)
    eventQueue.runDue(currentCycle);
    profile->eventsSec += secondsSince(t0);
    for (std::size_t w = 0; w < active.numWords(); ++w) {
        std::uint64_t eligible = ~std::uint64_t{0};
        std::uint64_t m;
        while ((m = active.word(w) & eligible) != 0) {
            const std::size_t b =
                static_cast<std::size_t>(std::countr_zero(m));
            eligible &= ~std::uint64_t{0} << 1 << b;
            const std::size_t i = (w << 6) + b;
            auto t1 = std::chrono::steady_clock::now(); // lint:allow(nondeterminism)
            slots[i].component->tick(currentCycle);
            const double dt = secondsSince(t1);
            switch (slots[i].phase) {
              case PhaseClass::Router:
                profile->routersSec += dt;
                break;
              case PhaseClass::Ni:
                profile->nisSec += dt;
                break;
              case PhaseClass::Dir:
                profile->dirsSec += dt;
                break;
              case PhaseClass::Other:
                profile->otherSec += dt;
                break;
            }
        }
    }
    if (sampler)
        sampler->onCycle(currentCycle);
    if (wdog)
        wdog->onCycle(currentCycle);
    ++profile->profiledCycles;
    ++currentCycle;
}

void
Simulator::run(Cycle n)
{
    const Cycle limit = currentCycle + n;
    while (currentCycle < limit) {
        if (ffEnabled && quiescent()) {
            const Cycle target = std::min(limit, idleHorizon());
            if (target > currentCycle) {
                if (kernelProf)
                    kernelProf->onFastForward(target - currentCycle);
                if (sampler)
                    sampler->onFastForward(target);
                ffCycles += target - currentCycle;
                ++ffJumps;
                currentCycle = target;
                continue;
            }
        }
        if (parKernel && !profile) {
            // Fixed-horizon stepping has no per-cycle predicate, so
            // the parallel kernel may batch up to its conservative
            // lookahead per barrier round-trip (it clamps internally).
            parKernel->step(limit - currentCycle);
        } else {
            step();
        }
    }
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles,
                    PredicateMode mode)
{
    const Cycle limit = currentCycle + max_cycles;
    while (currentCycle < limit) {
        if (done())
            return true;
        if (ffEnabled && quiescent()) {
            if (wdog && mode == PredicateMode::StateChange &&
                eventQueue.empty()) {
                // Every component is asleep, no timed wake is pending
                // and the event horizon is empty, so no simulated
                // state can ever change again; a StateChange predicate
                // that has not fired never will. This is a structural
                // deadlock, not a long sleep -- trip immediately rather
                // than fast-forward to the timeout.
                wdog->tripDeadlock(currentCycle);
            }
            const Cycle target = std::min(limit, idleHorizon());
            if (target > currentCycle) {
                if (kernelProf)
                    kernelProf->onFastForward(target - currentCycle);
                if (sampler)
                    sampler->onFastForward(target);
                if (mode == PredicateMode::StateChange) {
                    // Nothing can flip the predicate before `target`.
                    ffCycles += target - currentCycle;
                    ++ffJumps;
                    currentCycle = target;
                } else {
                    // Execute the empty cycles (predicate may read the
                    // clock), but skip the component loop. The outer
                    // loop re-checks the predicate at `target`, so each
                    // cycle is checked exactly once, as in plain
                    // stepping.
                    while (currentCycle < target) {
                        ++currentCycle;
                        ++ffCycles;
                        if (currentCycle == target)
                            break;
                        if (done())
                            return true;
                    }
                    ++ffJumps;
                }
                continue;
            }
        }
        step();
    }
    return done();
}

} // namespace inpg
