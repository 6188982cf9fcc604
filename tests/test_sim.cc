/**
 * @file
 * Simulation kernel tests: event queue ordering and the cycle loop.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace inpg {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runDue(25);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    q.runDue(30);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[2], 3);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runDue(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(1, [&] { ++fired; }); // due immediately
        q.schedule(9, [&] { ++fired; }); // later
    });
    q.runDue(5);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.nextEventCycle(), 9u);
    q.runDue(9);
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextEventCycleAndClear)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), CYCLE_NEVER);
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextEventCycle(), 42u);
    q.clear();
    EXPECT_TRUE(q.empty());
}

struct CountingTick : Ticking {
    int ticks = 0;
    Cycle last = 0;

    void
    tick(Cycle now) override
    {
        ++ticks;
        last = now;
    }
};

TEST(Simulator, TicksEveryRegisteredComponentOncePerCycle)
{
    Simulator sim;
    CountingTick a;
    CountingTick b;
    sim.addTicking(&a);
    sim.addTicking(&b);
    sim.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(a.last, 9u);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, EventsRunBeforeTicksOfTheSameCycle)
{
    Simulator sim;
    struct Probe : Ticking {
        bool *flag;
        bool seen_at_tick = false;

        void
        tick(Cycle) override
        {
            seen_at_tick = *flag;
        }
    };
    bool flag = false;
    Probe p;
    p.flag = &flag;
    sim.addTicking(&p);
    sim.scheduleIn(0, [&] { flag = true; });
    sim.step();
    EXPECT_TRUE(p.seen_at_tick);
}

TEST(Simulator, RunUntilStopsAtPredicate)
{
    Simulator sim;
    bool flag = false;
    sim.scheduleIn(16, [&] { flag = true; });
    bool ok = sim.runUntil([&] { return flag; }, 100);
    EXPECT_TRUE(ok);
    // The event fires during cycle 16; the predicate sees it at 17.
    EXPECT_EQ(sim.now(), 17u);
    ok = sim.runUntil([] { return false; }, 5);
    EXPECT_FALSE(ok);
    EXPECT_EQ(sim.now(), 22u);
}

TEST(Simulator, ScheduleInUsesCurrentCycle)
{
    Simulator sim;
    sim.run(5);
    Cycle fired_at = 0;
    sim.scheduleIn(3, [&] { fired_at = sim.now(); });
    sim.run(10);
    EXPECT_EQ(fired_at, 8u);
}

// ---------------------------------------------------------------------
// Activity contract / fast-forward
// ---------------------------------------------------------------------

struct SleepyTick : Ticking {
    int ticks = 0;
    Cycle last = 0;
    bool sleepAfterTick = false;

    void
    tick(Cycle now) override
    {
        ++ticks;
        last = now;
        if (sleepAfterTick)
            suspendSelf();
    }
};

TEST(Simulator, SuspendedComponentLeavesTheTickLoop)
{
    Simulator sim;
    SleepyTick a;
    SleepyTick b;
    b.sleepAfterTick = true;
    sim.addTicking(&a);
    sim.addTicking(&b);
    EXPECT_EQ(sim.numComponents(), 2u);
    EXPECT_EQ(sim.activeComponents(), 2u);

    sim.run(3);
    EXPECT_EQ(a.ticks, 3);
    EXPECT_EQ(b.ticks, 1); // slept after its first tick
    EXPECT_EQ(sim.activeComponents(), 1u);

    b.sleepAfterTick = false;
    b.sleepToken().wake();
    b.sleepToken().wake(); // idempotent
    EXPECT_EQ(sim.activeComponents(), 2u);
    sim.run(2);
    EXPECT_EQ(b.ticks, 3);
}

TEST(Simulator, FastForwardSkipsFullyIdleSpans)
{
    Simulator sim;
    SleepyTick t;
    t.sleepAfterTick = true;
    sim.addTicking(&t);
    sim.scheduleIn(50, [&] { t.sleepToken().wake(); });
    sim.run(100);
    // Ticked at 0, slept, woken by the event at 50, slept again.
    EXPECT_EQ(t.ticks, 2);
    EXPECT_EQ(t.last, 50u);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.cyclesFastForwarded(), 98u);
    EXPECT_EQ(sim.fastForwardJumps(), 2u);
}

TEST(Simulator, FastForwardOffExecutesEveryCycle)
{
    Simulator sim;
    sim.setFastForward(false);
    sim.run(25);
    EXPECT_EQ(sim.now(), 25u);
    EXPECT_EQ(sim.cyclesFastForwarded(), 0u);
    EXPECT_EQ(sim.fastForwardJumps(), 0u);
}

TEST(Simulator, RunUntilStateChangeJumpsToTheHorizon)
{
    Simulator sim;
    bool flag = false;
    sim.scheduleIn(40, [&] { flag = true; });
    bool ok = sim.runUntil([&] { return flag; }, 100);
    EXPECT_TRUE(ok);
    // The event fires during cycle 40, the predicate observation lands
    // at 41; the idle span before it is one jump.
    EXPECT_EQ(sim.now(), 41u);
    EXPECT_EQ(sim.cyclesFastForwarded(), 40u);
}

TEST(SleepToken, UnboundTokenIsANoOp)
{
    SleepyTick t;
    t.sleepToken().wake();
    t.sleepAfterTick = true; // suspendSelf on an unbound token
    t.tick(0);
    EXPECT_EQ(t.ticks, 1);
    EXPECT_FALSE(t.sleepToken().bound());
}

} // namespace
} // namespace inpg
