/**
 * @file
 * iNPG tests: locking barrier table mechanics, big-router deployment,
 * protocol transparency (all coherence invariants hold with big
 * routers), and early-invalidation effectiveness under contention.
 */

#include <gtest/gtest.h>

#include <set>

#include "coh/coherent_system.hh"
#include "coh/golden_memory.hh"
#include "common/rng.hh"
#include "inpg/big_router.hh"
#include "inpg/lock_barrier_table.hh"
#include "sim/simulator.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// LockBarrierTable unit tests
// ---------------------------------------------------------------------

TEST(BarrierTable, CreateAndFind)
{
    LockBarrierTable t(4, 4, 128);
    EXPECT_FALSE(t.hasBarrier(0x100, 0));
    EXPECT_TRUE(t.createBarrier(0x100, 0));
    EXPECT_TRUE(t.hasBarrier(0x100, 10));
    EXPECT_EQ(t.numBarriers(), 1u);
    // Idempotent creation.
    EXPECT_TRUE(t.createBarrier(0x100, 5));
    EXPECT_EQ(t.numBarriers(), 1u);
}

TEST(BarrierTable, TtlExpiresIdleBarrier)
{
    LockBarrierTable t(4, 4, 128);
    t.createBarrier(0x100, 0);
    EXPECT_TRUE(t.hasBarrier(0x100, 127));
    EXPECT_FALSE(t.hasBarrier(0x100, 128));
    EXPECT_EQ(t.numBarriers(), 0u);
}

TEST(BarrierTable, EiEntryResetsTtl)
{
    LockBarrierTable t(4, 4, 128);
    t.createBarrier(0x100, 0);
    ASSERT_TRUE(t.addEi(0x100, 3, 100));
    // With a live EI the barrier cannot expire, ever.
    EXPECT_TRUE(t.hasBarrier(0x100, 100000));
    // Completing the EI restarts the countdown from that point.
    EXPECT_TRUE(t.completeEi(0x100, 3, 100000));
    EXPECT_TRUE(t.hasBarrier(0x100, 100127));
    EXPECT_FALSE(t.hasBarrier(0x100, 100128));
}

TEST(BarrierTable, CapacityLimits)
{
    LockBarrierTable t(2, 2, 128);
    EXPECT_TRUE(t.createBarrier(0x100, 0));
    EXPECT_TRUE(t.createBarrier(0x200, 0));
    EXPECT_FALSE(t.createBarrier(0x300, 0)); // table full
    ASSERT_TRUE(t.addEi(0x100, 1, 0));
    ASSERT_TRUE(t.addEi(0x100, 2, 0));
    EXPECT_FALSE(t.addEi(0x100, 3, 0)); // EI list full
    EXPECT_FALSE(t.addEi(0x100, 1, 0)); // duplicate core refused
    EXPECT_FALSE(t.addEi(0x400, 1, 0)); // no barrier
}

TEST(BarrierTable, CompleteUnknownEiIsStale)
{
    LockBarrierTable t(2, 2, 128);
    t.createBarrier(0x100, 0);
    EXPECT_FALSE(t.completeEi(0x100, 9, 1));
    EXPECT_FALSE(t.completeEi(0x999, 1, 1));
}

// ---------------------------------------------------------------------
// Deployment helper
// ---------------------------------------------------------------------

TEST(Deployment, CountsAreExact)
{
    for (int count : {0, 4, 16, 32, 64}) {
        int marked = 0;
        for (NodeId n = 0; n < 64; ++n)
            marked += isBigRouterNode(n, 8, 8, count) ? 1 : 0;
        EXPECT_EQ(marked, count) << "count=" << count;
    }
}

TEST(Deployment, HalfPopulationIsCheckerboard)
{
    for (NodeId n = 0; n < 64; ++n) {
        int x = n % 8;
        int y = n / 8;
        EXPECT_EQ(isBigRouterNode(n, 8, 8, 32), (x + y) % 2 == 1);
    }
}

// ---------------------------------------------------------------------
// Full-system transparency & effectiveness
// ---------------------------------------------------------------------

struct InpgHarness {
    explicit InpgHarness(int big_routers, int w = 4, int h = 4)
    {
        nocCfg.meshWidth = w;
        nocCfg.meshHeight = h;
        inpgCfg.numBigRouters = big_routers;
        sys = std::make_unique<CoherentSystem>(
            nocCfg, cohCfg, sim, makeInpgRouterFactory(inpgCfg, cohCfg));
        sys->setOpLog([this](const OpRecord &r) { golden.record(r); });
    }

    std::uint64_t
    totalEarlyInvs()
    {
        std::uint64_t total = 0;
        for (NodeId n = 0; n < sys->network().numRouters(); ++n) {
            auto *br = dynamic_cast<BigRouter *>(&sys->network().router(n));
            if (br)
                total += br->generator().stats.value(
                    "early_invs_generated");
        }
        return total;
    }

    NocConfig nocCfg;
    CohConfig cohCfg;
    InpgConfig inpgCfg;
    Simulator sim;
    std::unique_ptr<CoherentSystem> sys;
    GoldenMemory golden;
};

/** Heavy lock contention: load then swap from every core, repeatedly. */
static void
runLockStorm(InpgHarness &h, Addr lock, int rounds_per_core,
             int n_cores)
{
    std::vector<int> remaining(static_cast<std::size_t>(n_cores),
                               rounds_per_core);
    int active = n_cores;
    std::function<void(CoreId)> spin = [&](CoreId c) {
        if (remaining[static_cast<std::size_t>(c)]-- <= 0) {
            --active;
            return;
        }
        h.sys->l1(c).issueLoad(lock, true, [&, c](std::uint64_t) {
            h.sys->l1(c).issueAtomic(lock, AtomicOp::Swap, 1, 0, true,
                                     [&, c](std::uint64_t old, bool) {
                                         if (old == 0) {
                                             // "Release" immediately.
                                             h.sys->l1(c).issueStore(
                                                 lock, 0, true,
                                                 [&, c](std::uint64_t) {
                                                     spin(c);
                                                 });
                                         } else {
                                             spin(c);
                                         }
                                     });
        });
    };
    for (CoreId c = 0; c < n_cores; ++c)
        spin(c);
    while (active > 0) {
        h.sim.step();
        ASSERT_LT(h.sim.now(), 2000000u) << "lock storm deadlocked";
    }
}

TEST(Inpg, TransparencyLockStormKeepsGoldenChain)
{
    InpgHarness h(8); // half the 16 nodes are big routers
    Addr lock = h.sys->cohConfig().lineHomedAt(10);
    runLockStorm(h, lock, 8, 16);
    EXPECT_EQ(h.golden.verify(), "");
    EXPECT_EQ(h.sys->checkSwmr(lock), "");
    // Under this contention the big routers must have fired.
    EXPECT_GT(h.totalEarlyInvs(), 0u);
}

TEST(Inpg, NoBigRoutersMeansNoEarlyInvs)
{
    InpgHarness h(0);
    Addr lock = h.sys->cohConfig().lineHomedAt(10);
    runLockStorm(h, lock, 4, 16);
    EXPECT_EQ(h.totalEarlyInvs(), 0u);
    EXPECT_EQ(h.golden.verify(), "");
}

TEST(Inpg, ResultsIdenticalWithAndWithoutBigRouters)
{
    // iNPG is a pure performance mechanism: the set of observed swap
    // winners per round and final memory values must be unchanged.
    std::set<std::uint64_t> winners_base;
    std::set<std::uint64_t> winners_inpg;
    for (int big : {0, 8}) {
        InpgHarness h(big);
        Addr lock = h.sys->cohConfig().lineHomedAt(5);
        runLockStorm(h, lock, 6, 16);
        ASSERT_EQ(h.golden.verify(), "");
        std::uint64_t acquisitions = 0;
        for (const auto &r : h.golden.records()) {
            if (r.kind == OpRecord::Kind::Atomic && r.oldValue == 0)
                ++acquisitions;
        }
        if (big == 0)
            winners_base.insert(acquisitions);
        else
            winners_inpg.insert(acquisitions);
        EXPECT_EQ(h.golden.finalValue(lock), 0u);
    }
    // Both runs completed all rounds; acquisition counts are positive.
    EXPECT_FALSE(winners_base.empty());
    EXPECT_FALSE(winners_inpg.empty());
}

TEST(Inpg, RandomSoupWithBigRoutersKeepsInvariants)
{
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        InpgHarness h(8);
        Rng rng(seed);
        const int n_cores = 16;
        std::vector<Addr> addrs;
        for (int i = 0; i < 4; ++i)
            addrs.push_back(h.cohCfg.lineHomedAt(
                static_cast<NodeId>(rng.nextBounded(16))));
        std::vector<int> remaining(n_cores, 25);
        int active = n_cores;
        std::function<void(CoreId)> next = [&](CoreId c) {
            if (remaining[static_cast<std::size_t>(c)]-- <= 0) {
                --active;
                return;
            }
            Addr a = addrs[rng.nextBounded(4)];
            switch (rng.nextBounded(3)) {
              case 0:
                h.sys->l1(c).issueLoad(a, true, [&next, c](std::uint64_t) {
                    next(c);
                });
                break;
              case 1:
                h.sys->l1(c).issueStore(a, rng.nextBounded(50), true,
                                        [&next, c](std::uint64_t) {
                                            next(c);
                                        });
                break;
              default:
                h.sys->l1(c).issueAtomic(
                    a, AtomicOp::Swap, rng.nextBounded(50), 0, true,
                    [&next, c](std::uint64_t, bool) { next(c); });
                break;
            }
        };
        for (CoreId c = 0; c < n_cores; ++c)
            next(c);
        while (active > 0) {
            h.sim.step();
            for (Addr a : addrs)
                ASSERT_EQ(h.sys->checkSwmr(a), "")
                    << "seed " << seed << " cycle " << h.sim.now();
            ASSERT_LT(h.sim.now(), 500000u);
        }
        EXPECT_EQ(h.golden.verify(), "") << "seed " << seed;
    }
}

TEST(Inpg, EarlyInvalidationShortensRoundTrips)
{
    // Same storm, with and without iNPG; the mean Inv-Ack round trip
    // must drop and the long tail shrink (paper Figure 10).
    double mean_base = 0;
    double mean_inpg = 0;
    double early_mean = 0;
    double home_mean_inpg = 0;
    for (int big : {0, 8}) {
        InpgHarness h(big);
        Addr lock = h.sys->cohConfig().lineHomedAt(5);
        runLockStorm(h, lock, 8, 16);
        ASSERT_EQ(h.golden.verify(), "");
        if (big == 0) {
            mean_base = h.sys->cohStats().rttHistogram.mean();
            EXPECT_EQ(h.sys->cohStats().rttEarly.count(), 0u);
        } else {
            mean_inpg = h.sys->cohStats().rttHistogram.mean();
            early_mean = h.sys->cohStats().rttEarly.mean();
            home_mean_inpg = h.sys->cohStats().rttHome.mean();
            EXPECT_GT(h.sys->cohStats().rttEarly.count(), 0u);
        }
    }
    EXPECT_GT(mean_base, 0.0);
    EXPECT_GT(mean_inpg, 0.0);
    EXPECT_LT(mean_inpg, mean_base);
    // Locality: the big-router round trips are shorter than the
    // home-node ones within the same run. (The full tail-collapse
    // comparison runs on the 8x8 system in `bench_figures fig=10`.)
    if (home_mean_inpg > 0)
        EXPECT_LT(early_mean, home_mean_inpg);
}

} // namespace
} // namespace inpg
