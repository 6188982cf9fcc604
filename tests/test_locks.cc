/**
 * @file
 * Lock primitive tests: mutual exclusion, progress, fairness and
 * sleep/wakeup behaviour for all five primitives of the paper.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "sync/qsl_lock.hh"

namespace inpg {
namespace {

struct LockHarness {
    explicit LockHarness(LockKind kind, int w = 4, int h = 4,
                         Mechanism mech = Mechanism::Original)
    {
        cfg.noc.meshWidth = w;
        cfg.noc.meshHeight = h;
        cfg.lockKind = kind;
        cfg.mechanism = mech;
        cfg.finalize();
        system = std::make_unique<System>(cfg);
        lock = system->locks().createLock(kind, cfg.numCores(), 5);
    }

    /** Run `rounds` of acquire -> hold `hold_cycles` -> release per
     *  thread; returns the global acquisition order. */
    std::vector<ThreadId>
    contend(int rounds, Cycle hold_cycles)
    {
        std::vector<ThreadId> order;
        const int n = cfg.numCores();
        std::vector<int> remaining(static_cast<std::size_t>(n), rounds);
        int active = n;
        std::function<void(ThreadId)> loop = [&](ThreadId t) {
            if (remaining[static_cast<std::size_t>(t)]-- <= 0) {
                --active;
                return;
            }
            lock->acquire(t, [&, t] {
                order.push_back(t);
                system->sim().scheduleIn(hold_cycles, [&, t] {
                    lock->release(t, [&, t] { loop(t); });
                });
            });
        };
        for (ThreadId t = 0; t < n; ++t)
            loop(t);
        while (active > 0) {
            system->sim().step();
            EXPECT_LE(lock->holders(), 1);
            if (system->sim().now() > 30000000) {
                ADD_FAILURE() << "lock protocol hung";
                break;
            }
        }
        return order;
    }

    SystemConfig cfg;
    std::unique_ptr<System> system;
    LockPrimitive *lock = nullptr;
};

class LockKindTest : public ::testing::TestWithParam<LockKind>
{};

TEST_P(LockKindTest, AllThreadsCompleteAllRounds)
{
    LockHarness h(GetParam());
    const int rounds = 4;
    auto order = h.contend(rounds, 50);
    EXPECT_EQ(order.size(),
              static_cast<std::size_t>(h.cfg.numCores() * rounds));
    EXPECT_EQ(h.lock->stats.acquisitions,
              static_cast<std::uint64_t>(h.cfg.numCores() * rounds));
    EXPECT_EQ(h.lock->stats.acquisitions, h.lock->stats.releases);
    // Every thread appears exactly `rounds` times.
    std::vector<int> counts(static_cast<std::size_t>(h.cfg.numCores()),
                            0);
    for (ThreadId t : order)
        ++counts[static_cast<std::size_t>(t)];
    for (int c : counts)
        EXPECT_EQ(c, rounds);
}

TEST_P(LockKindTest, UncontendedAcquireIsFast)
{
    LockHarness h(GetParam());
    bool done = false;
    Cycle start = h.system->sim().now();
    h.lock->acquire(0, [&] { done = true; });
    h.system->runUntil([&] { return done; }, 10000);
    Cycle latency = h.system->sim().now() - start;
    // One cold miss round trip, no competition: well under 1000 cycles.
    EXPECT_LT(latency, 1000u);
    bool released = false;
    h.lock->release(0, [&] { released = true; });
    h.system->runUntil([&] { return released; }, 10000);
}

TEST_P(LockKindTest, WorksWithBigRoutersDeployed)
{
    LockHarness h(GetParam(), 4, 4, Mechanism::Inpg);
    auto order = h.contend(3, 30);
    EXPECT_EQ(order.size(),
              static_cast<std::size_t>(h.cfg.numCores() * 3));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LockKindTest,
                         ::testing::Values(LockKind::Tas,
                                           LockKind::Ticket,
                                           LockKind::Abql, LockKind::Mcs,
                                           LockKind::Qsl),
                         [](const auto &info) {
                             return lockKindName(info.param);
                         });

TEST(TicketLock, GrantsInFifoOrder)
{
    LockHarness h(LockKind::Ticket);
    // Stagger the arrival of threads so ticket order is deterministic:
    // thread t arrives at cycle 400 * t (well beyond the fetch-add
    // round trip, so tickets are taken in arrival order).
    const int n = 8;
    std::vector<ThreadId> order;
    int held = 0;
    for (ThreadId t = 0; t < n; ++t) {
        h.system->sim().events().schedule(
            static_cast<Cycle>(400) * static_cast<Cycle>(t), [&, t] {
                h.lock->acquire(t, [&, t] {
                    order.push_back(t);
                    h.system->sim().scheduleIn(2000, [&, t] {
                        h.lock->release(t, [&] { ++held; });
                    });
                });
            });
    }
    h.system->runUntil([&] { return held == n; }, 10000000);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
    for (ThreadId t = 0; t < n; ++t)
        EXPECT_EQ(order[static_cast<std::size_t>(t)], t)
            << "FIFO violated at position " << t;
}

TEST(AbqlLock, SlotsWrapAroundAcrossRounds)
{
    LockHarness h(LockKind::Abql);
    auto order = h.contend(5, 20);
    EXPECT_EQ(order.size(),
              static_cast<std::size_t>(h.cfg.numCores() * 5));
}

TEST(QslLock, ContentionCausesSleepsAndAllWake)
{
    LockHarness h(LockKind::Qsl);
    // Long hold times force spinners past the 128-retry budget.
    auto order = h.contend(2, 4000);
    auto *qsl = dynamic_cast<QslLock *>(h.lock);
    ASSERT_NE(qsl, nullptr);
    EXPECT_GT(h.lock->stats.sleeps, 0u);
    EXPECT_EQ(qsl->sleepers(), 0u) << "thread left asleep";
    EXPECT_EQ(h.lock->stats.wakeups +
                  h.lock->stats.sleepAborted,
              h.lock->stats.sleeps);
}

TEST(QslLock, NoSleepsWithoutContention)
{
    LockHarness h(LockKind::Qsl);
    int done = 0;
    // Strictly serialized accesses: never more than one competitor.
    std::function<void(ThreadId)> next = [&](ThreadId t) {
        if (t >= 8)
            return;
        h.lock->acquire(t, [&, t] {
            h.lock->release(t, [&, t] {
                ++done;
                next(t + 1);
            });
        });
    };
    next(0);
    h.system->runUntil([&] { return done == 8; }, 1000000);
    EXPECT_EQ(h.lock->stats.sleeps, 0u);
}

TEST(Ocor, PrioritiesAreStampedUnderOcorMechanism)
{
    LockHarness h(LockKind::Qsl, 4, 4, Mechanism::Ocor);
    EXPECT_TRUE(h.cfg.sync.ocorEnabled);
    EXPECT_EQ(h.cfg.noc.switchPolicy, SwitchPolicy::Priority);
    auto order = h.contend(2, 1000);
    EXPECT_EQ(order.size(),
              static_cast<std::size_t>(h.cfg.numCores() * 2));
}

TEST(Mechanisms, DeploymentMatchesMechanism)
{
    for (Mechanism m : ALL_MECHANISMS) {
        SystemConfig cfg;
        cfg.noc.meshWidth = 4;
        cfg.noc.meshHeight = 4;
        cfg.inpg.numBigRouters = 8;
        cfg.mechanism = m;
        cfg.finalize();
        System sys(cfg);
        EXPECT_EQ(sys.deployedBigRouters(), usesInpg(m) ? 8 : 0)
            << mechanismName(m);
    }
}

} // namespace
} // namespace inpg
