/**
 * @file
 * Directory MOESI protocol tests: transitions, atomicity, invariants.
 */

#include <gtest/gtest.h>

#include <set>

#include "coh/coherent_system.hh"
#include "coh/golden_memory.hh"
#include "common/rng.hh"
#include "sim/simulator.hh"

namespace inpg {
namespace {

struct CohHarness {
    explicit CohHarness(int w = 4, int h = 4)
    {
        nocCfg.meshWidth = w;
        nocCfg.meshHeight = h;
        sys = std::make_unique<CoherentSystem>(nocCfg, cohCfg, sim);
        sys->setOpLog([this](const OpRecord &r) { golden.record(r); });
    }

    /** Run until `done` or fail the test on timeout. */
    void
    runUntil(const std::function<bool()> &done, Cycle max = 100000)
    {
        ASSERT_TRUE(sim.runUntil(done, max)) << "timeout at cycle "
                                             << sim.now();
    }

    NocConfig nocCfg;
    CohConfig cohCfg;
    Simulator sim;
    std::unique_ptr<CoherentSystem> sys;
    GoldenMemory golden;
};

TEST(Coherence, ColdLoadReturnsInitialValueAndGrantsE)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(5);
    h.sys->directory(5).initValue(a, 77);

    bool done = false;
    std::uint64_t got = 0;
    h.sys->l1(0).issueLoad(a, false, [&](std::uint64_t v) {
        got = v;
        done = true;
    });
    h.runUntil([&] { return done; });
    EXPECT_EQ(got, 77u);
    EXPECT_EQ(h.sys->l1(0).lineState(a), L1State::E);
    const auto *e = h.sys->directory(5).entry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->owner, 0);
}

TEST(Coherence, StoreAfterExclusiveLoadHitsLocally)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(3);
    bool done = false;
    h.sys->l1(1).issueLoad(a, false, [&](std::uint64_t) {
        h.sys->l1(1).issueStore(a, 42, false,
                                [&](std::uint64_t) { done = true; });
    });
    h.runUntil([&] { return done; });
    EXPECT_EQ(h.sys->l1(1).lineState(a), L1State::M);
    EXPECT_EQ(h.sys->l1(1).lineValue(a), 42u);
    // The store hit locally: no GetX reached the home.
    EXPECT_EQ(h.sys->directory(3).stats.getx, 0u);
}

TEST(Coherence, SecondReaderSharesViaOwnerForward)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(0);
    h.sys->directory(0).initValue(a, 9);
    int done = 0;
    std::uint64_t v1 = 0;
    h.sys->l1(2).issueLoad(a, false, [&](std::uint64_t) { ++done; });
    h.runUntil([&] { return done == 1; });
    h.sys->l1(7).issueLoad(a, false, [&](std::uint64_t v) {
        v1 = v;
        ++done;
    });
    h.runUntil([&] { return done == 2; });
    EXPECT_EQ(v1, 9u);
    EXPECT_EQ(h.sys->l1(2).lineState(a), L1State::O);
    EXPECT_EQ(h.sys->l1(7).lineState(a), L1State::S);
    EXPECT_EQ(h.sys->checkSwmr(a), "");
}

TEST(Coherence, WriterInvalidatesSharers)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(6);
    int loads = 0;
    for (CoreId c : {1, 2, 3}) {
        h.sys->l1(c).issueLoad(a, false, [&](std::uint64_t) { ++loads; });
        h.runUntil([&, c] { return loads == c; });
    }
    bool stored = false;
    h.sys->l1(4).issueStore(a, 5, false,
                            [&](std::uint64_t) { stored = true; });
    h.runUntil([&] { return stored; });
    EXPECT_EQ(h.sys->l1(4).lineState(a), L1State::M);
    EXPECT_EQ(h.sys->l1(2).lineState(a), L1State::I);
    EXPECT_EQ(h.sys->l1(3).lineState(a), L1State::I);
    EXPECT_EQ(h.sys->checkSwmr(a), "");
    EXPECT_EQ(h.golden.verify(), "");
}

TEST(Coherence, SwapCompetitionHasExactlyOneWinner)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(10);
    const int n = 16;
    int completions = 0;
    int winners = 0;
    // All cores read first (building a full sharer set), then swap.
    int reads = 0;
    for (CoreId c = 0; c < n; ++c)
        h.sys->l1(c).issueLoad(a, true, [&](std::uint64_t) { ++reads; });
    h.runUntil([&] { return reads == n; });
    for (CoreId c = 0; c < n; ++c) {
        h.sys->l1(c).issueAtomic(a, AtomicOp::Swap, 1, 0, true,
                                 [&](std::uint64_t old, bool) {
                                     if (old == 0)
                                         ++winners;
                                     ++completions;
                                 });
    }
    h.runUntil([&] { return completions == n; });
    EXPECT_EQ(winners, 1);
    EXPECT_EQ(h.golden.verify(), "");
    EXPECT_EQ(h.sys->checkSwmr(a), "");
}

TEST(Coherence, FetchAddYieldsPermutation)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(12);
    const int n = 16;
    std::set<std::uint64_t> seen;
    int completions = 0;
    for (CoreId c = 0; c < n; ++c) {
        h.sys->l1(c).issueAtomic(a, AtomicOp::FetchAdd, 1, 0, false,
                                 [&](std::uint64_t old, bool) {
                                     seen.insert(old);
                                     ++completions;
                                 });
    }
    h.runUntil([&] { return completions == n; });
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), static_cast<std::uint64_t>(n - 1));
    const auto *e = h.sys->homeOf(a).entry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(h.golden.finalValue(a), static_cast<std::uint64_t>(n));
    EXPECT_EQ(h.golden.verify(), "");
}

TEST(Coherence, CasOnlySucceedsOnExpectedValue)
{
    CohHarness h;
    Addr a = h.cohCfg.lineHomedAt(1);
    int completions = 0;
    int successes = 0;
    for (CoreId c = 0; c < 8; ++c) {
        h.sys->l1(c).issueAtomic(a, AtomicOp::Cas, 0, 100 + c, false,
                                 [&](std::uint64_t old, bool) {
                                     if (old == 0)
                                         ++successes;
                                     ++completions;
                                 });
    }
    h.runUntil([&] { return completions == 8; });
    EXPECT_EQ(successes, 1);
    EXPECT_EQ(h.golden.verify(), "");
}

/** Random op soup across cores/addresses with invariant sampling. */
class CoherenceRandomTest : public ::testing::TestWithParam<int>
{};

TEST_P(CoherenceRandomTest, RandomOpsKeepInvariants)
{
    CohHarness h;
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int n_cores = 16;
    const int n_addrs = 4;
    std::vector<Addr> addrs;
    for (int i = 0; i < n_addrs; ++i)
        addrs.push_back(
            h.cohCfg.lineHomedAt(static_cast<NodeId>(rng.nextBounded(16))));

    const int ops_per_core = 30;
    std::vector<int> remaining(n_cores, ops_per_core);
    int active = n_cores;

    // Each core issues a random op chain; completion triggers the next.
    std::function<void(CoreId)> next = [&](CoreId c) {
        if (remaining[static_cast<std::size_t>(c)]-- <= 0) {
            --active;
            return;
        }
        Addr a = addrs[rng.nextBounded(static_cast<std::uint64_t>(
            n_addrs))];
        switch (rng.nextBounded(4)) {
          case 0:
            h.sys->l1(c).issueLoad(a, false,
                                   [&next, c](std::uint64_t) { next(c); });
            break;
          case 1:
            h.sys->l1(c).issueStore(a, rng.nextBounded(100), false,
                                    [&next, c](std::uint64_t) { next(c); });
            break;
          case 2:
            h.sys->l1(c).issueAtomic(
                a, AtomicOp::FetchAdd, 1, 0, false,
                [&next, c](std::uint64_t, bool) { next(c); });
            break;
          default:
            h.sys->l1(c).issueAtomic(
                a, AtomicOp::Swap, rng.nextBounded(100), 0, false,
                [&next, c](std::uint64_t, bool) { next(c); });
            break;
        }
    };
    for (CoreId c = 0; c < n_cores; ++c)
        next(c);

    while (active > 0) {
        h.sim.step();
        // SWMR must hold at every cycle, including transient windows.
        for (Addr a : addrs)
            ASSERT_EQ(h.sys->checkSwmr(a), "") << "cycle " << h.sim.now();
        ASSERT_LT(h.sim.now(), 300000u) << "random soup deadlocked";
    }
    EXPECT_EQ(h.golden.verify(), "");
    EXPECT_EQ(h.golden.size(),
              static_cast<std::size_t>(n_cores * ops_per_core));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceRandomTest,
                         ::testing::Range(1, 9));

} // namespace
} // namespace inpg
