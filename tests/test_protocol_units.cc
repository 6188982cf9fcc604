/**
 * @file
 * Focused protocol unit tests: directory state transitions, memory
 * controller queueing, channel hop timing, NI behaviour, and the L1's
 * forward-deferral machinery under adversarial orderings.
 */

#include <gtest/gtest.h>

#include "coh/coherent_system.hh"
#include "coh/memory_controller.hh"
#include "noc/link.hh"
#include "sim/simulator.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// Channel hop timing
// ---------------------------------------------------------------------

/** A consumer that only receives wakes (unregistered: wakes no-op). */
struct IdleSink : Ticking {
    void tick(Cycle) override {}
};

FlitPtr
hopFlit()
{
    return makeFlit(std::make_shared<Packet>(/*id=*/0, /*src=*/0,
                                             /*dst=*/1, /*vnet=*/0,
                                             /*num_flits=*/1),
                    FlitType::HeadTail, 0);
}

TEST(Channel, FlitDeliverableTwoCyclesAfterPush)
{
    // Flit delay = the sender's ST stage + the 1-cycle link: a flit
    // pushed at t is due at t + 2 on its port, and not at t + 1.
    IdleSink sink;
    DueMasks due{};
    Channel ch;
    ch.bindConsumer(&sink, &due, /*port=*/3);
    FlitPtr flit = hopFlit();
    Flit *raw = flit.get();
    ch.pushFlit(std::move(flit), 10);
    EXPECT_EQ(due[flitSlot(11)], 0u);
    EXPECT_EQ(due[flitSlot(12)], 1u << 3);
    EXPECT_TRUE(anyDue(due));
    EXPECT_EQ(ch.takeFlit(12).get(), raw);

    // Back-to-back pushes reuse the slots in turn.
    ch.pushFlit(hopFlit(), 11);
    ch.pushFlit(hopFlit(), 12);
    EXPECT_EQ(due[flitSlot(13)], 1u << 3);
    EXPECT_EQ(due[flitSlot(14)], 1u << 3);
}

TEST(Channel, SecondFlitInOneCycleDies)
{
    IdleSink sink;
    DueMasks due{};
    Channel ch;
    ch.bindConsumer(&sink, &due, 0);
    ch.pushFlit(hopFlit(), 5);
    EXPECT_DEATH(ch.pushFlit(hopFlit(), 5), "second flit on one channel");
}

TEST(Channel, CreditVisibleOneCycleAfterPush)
{
    // A credit returned at t counts from t + 1, also when credits land
    // on consecutive cycles.
    IdleSink consumer, producer;
    DueMasks due{};
    Channel ch;
    ch.bindConsumer(&consumer, &due, 0);
    OutputUnit ou(/*num_vcs=*/2, /*vc_depth=*/4);
    ch.connectProducer(&producer, &ou);
    EXPECT_EQ(ou.outChannel(), &ch);
    for (int i = 0; i < 4; ++i)
        ou.decrementCredit(1, 3);
    EXPECT_EQ(ou.credits(1, 3), 0);

    ch.pushCredit(1, 7);
    EXPECT_EQ(ou.credits(1, 7), 0);
    EXPECT_EQ(ou.credits(1, 8), 1);
    ch.pushCredit(1, 8);
    EXPECT_EQ(ou.credits(1, 8), 1);
    EXPECT_EQ(ou.credits(1, 9), 2);
    ch.pushCredit(1, 9);
    // A send in the landing cycle sees only the older landings.
    ou.decrementCredit(1, 9);
    EXPECT_EQ(ou.credits(1, 9), 1);
    EXPECT_EQ(ou.credits(1, 10), 2);
    EXPECT_EQ(ou.credits(0, 10), 4);
}

TEST(Channel, CreditOverflowDies)
{
    OutputUnit ou(/*num_vcs=*/1, /*vc_depth=*/2);
    ou.decrementCredit(0, 1);
    ou.land(0, 2);
    EXPECT_DEATH(ou.land(0, 3), "credit overflow");
    EXPECT_DEATH(ou.land(0, 2), "credit overflow");
}

// ---------------------------------------------------------------------
// MemoryController
// ---------------------------------------------------------------------

TEST(MemoryController, SerializesAtServiceInterval)
{
    Simulator sim;
    MemoryController mc(0, sim, 50, 4);
    std::vector<Cycle> done;
    for (int i = 0; i < 3; ++i)
        mc.fetch(0x100, [&done, &sim] { done.push_back(sim.now()); });
    sim.run(100);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 50u);
    EXPECT_EQ(done[1], 54u); // +serviceInterval
    EXPECT_EQ(done[2], 58u);
    EXPECT_EQ(mc.stats.fetches, 3u);
}

// ---------------------------------------------------------------------
// Directory behaviour
// ---------------------------------------------------------------------

struct DirHarness {
    DirHarness()
    {
        noc.meshWidth = 4;
        noc.meshHeight = 4;
        sys = std::make_unique<CoherentSystem>(noc, coh, sim);
    }

    void
    runUntil(const std::function<bool()> &f, Cycle max = 100000)
    {
        ASSERT_TRUE(sim.runUntil(f, max));
    }

    NocConfig noc;
    CohConfig coh;
    Simulator sim;
    std::unique_ptr<CoherentSystem> sys;
};

TEST(Directory, ColdMissPaysDramLatency)
{
    DirHarness h;
    Addr a = h.coh.lineHomedAt(5);
    Cycle start = h.sim.now();
    bool done = false;
    h.sys->l1(0).issueLoad(a, false, [&](std::uint64_t) { done = true; });
    h.runUntil([&] { return done; });
    Cycle cold = h.sim.now() - start;
    EXPECT_GE(cold, h.coh.memLatency);

    // A second, warm access to the same home is much faster.
    start = h.sim.now();
    done = false;
    h.sys->l1(1).issueLoad(a, false, [&](std::uint64_t) { done = true; });
    h.runUntil([&] { return done; });
    EXPECT_LT(h.sim.now() - start, cold);
    EXPECT_EQ(h.sys->directory(5).stats.coldMisses, 1u);
}

TEST(Directory, TracksOwnerAndSharers)
{
    DirHarness h;
    Addr a = h.coh.lineHomedAt(2);
    int loads = 0;
    h.sys->l1(4).issueLoad(a, false, [&](std::uint64_t) { ++loads; });
    h.runUntil([&] { return loads == 1; });
    const auto *e = h.sys->directory(2).entry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->owner, 4); // E grant

    h.sys->l1(9).issueLoad(a, false, [&](std::uint64_t) { ++loads; });
    h.runUntil([&] { return loads == 2; });
    EXPECT_EQ(e->owner, 4); // owner keeps the line (O)
    EXPECT_TRUE(e->sharers.count(9));

    bool stored = false;
    h.sys->l1(7).issueStore(a, 3, false,
                            [&](std::uint64_t) { stored = true; });
    h.runUntil([&] { return stored; });
    EXPECT_EQ(e->owner, 7);
    EXPECT_TRUE(e->sharers.empty());
}

TEST(Directory, InitValueOnlyBeforeFirstTouch)
{
    DirHarness h;
    Addr a = h.coh.lineHomedAt(1);
    h.sys->directory(1).initValue(a, 42);
    bool done = false;
    std::uint64_t got = 0;
    h.sys->l1(0).issueLoad(a, false, [&](std::uint64_t v) {
        got = v;
        done = true;
    });
    h.runUntil([&] { return done; });
    EXPECT_EQ(got, 42u);
    EXPECT_DEATH(h.sys->directory(1).initValue(a, 7), "already active");
}

TEST(Directory, RejectsMisroutedMessages)
{
    DirHarness h;
    CoherenceMsg msg;
    msg.kind = CohMsgKind::GetS;
    msg.addr = h.coh.lineHomedAt(3);
    msg.toDirectory = true;
    PacketPtr pkt = h.sys->network().makePacket(0, 4, VNET_REQUEST, 1, msg);
    EXPECT_DEATH(h.sys->directory(4).receiveMessage(pkt, 0), "homed at");
}

// ---------------------------------------------------------------------
// Declarative-table findings (DESIGN.md Section 8)
// ---------------------------------------------------------------------

TEST(ProtocolTables, DirectorySelfGetSIsLoudlyIllegal)
{
    // Table-lift finding: the imperative directory would answer a GetS
    // from the recorded owner by forwarding the request back to the
    // requester itself -- a silent self-deadlock. The L1 can never
    // produce one (owner loads hit locally in E/M/O), so the table
    // declares (OwnedSelf, GetS) illegal; inject one by hand and
    // expect the precise panic instead of a hang.
    DirHarness h;
    Addr a = h.coh.lineHomedAt(3);
    bool stored = false;
    h.sys->l1(5).issueStore(a, 1, false,
                            [&](std::uint64_t) { stored = true; });
    h.runUntil([&] { return stored; });
    ASSERT_EQ(h.sys->directory(3).entry(a)->owner, 5);

    CoherenceMsg msg;
    msg.kind = CohMsgKind::GetS;
    msg.addr = a;
    msg.requester = 5;
    msg.toDirectory = true;
    PacketPtr pkt = h.sys->network().makePacket(5, 3, VNET_REQUEST, 1, msg);
    EXPECT_DEATH(
        {
            h.sys->directory(3).receiveMessage(pkt, h.sim.now());
            h.sim.run(1000);
        },
        "illegal transition \\(OwnedSelf, GetS\\)");
}

TEST(ProtocolTables, DemotableAcquireOnFreeLockTakesExclusiveBranch)
{
    // (Uncached/Shared, GetXDemotable) maps to DemoteOrGrant: the home
    // only demotes while the lock value reads held; a free lock falls
    // through to the full exclusive grant so the acquire can write.
    DirHarness h;
    Addr a = h.coh.lineHomedAt(2);
    bool done = false;
    bool was_demoted = true;
    std::uint64_t old_val = 99;
    h.sys->l1(6).issueAtomic(
        a, AtomicOp::Swap, 1, 0, true,
        [&](std::uint64_t v, bool demoted) {
            old_val = v;
            was_demoted = demoted;
            done = true;
        },
        /*demotable=*/true);
    h.runUntil([&] { return done; });
    EXPECT_FALSE(was_demoted);
    EXPECT_EQ(old_val, 0u);
    EXPECT_EQ(h.sys->directory(2).entry(a)->owner, 6);
}

// ---------------------------------------------------------------------
// Adversarial interleavings through the L1 deferral machinery
// ---------------------------------------------------------------------

TEST(L1Deferral, OwnershipChainUnderReadersCompletes)
{
    // Writers hammer one line while readers interleave: exercises
    // deferred FwdGetS service at pre- and post-epoch positions.
    DirHarness h;
    Addr a = h.coh.lineHomedAt(6);
    int writes_left = 40;
    int reads_left = 40;
    int active = 8;
    std::function<void(CoreId)> worker = [&](CoreId c) {
        if (c % 2 == 0) {
            if (writes_left-- <= 0) {
                --active;
                return;
            }
            h.sys->l1(c).issueStore(a, static_cast<std::uint64_t>(c),
                                    false,
                                    [&worker, c](std::uint64_t) {
                                        worker(c);
                                    });
        } else {
            if (reads_left-- <= 0) {
                --active;
                return;
            }
            h.sys->l1(c).issueLoad(a, false, [&worker, c](std::uint64_t) {
                worker(c);
            });
        }
    };
    for (CoreId c = 0; c < 8; ++c)
        worker(c);
    h.runUntil([&] { return active == 0; }, 400000);
    EXPECT_EQ(h.sys->checkSwmr(a), "");
}

TEST(L1Deferral, BusyReports)
{
    DirHarness h;
    Addr a = h.coh.lineHomedAt(0);
    EXPECT_FALSE(h.sys->l1(3).busy());
    bool done = false;
    h.sys->l1(3).issueLoad(a, false, [&](std::uint64_t) { done = true; });
    EXPECT_TRUE(h.sys->l1(3).busy());
    h.runUntil([&] { return done; });
    EXPECT_FALSE(h.sys->l1(3).busy());
    EXPECT_NE(h.sys->l1(3).debugState().find("no-pending"),
              std::string::npos);
}

TEST(L1Deferral, OneOutstandingOpEnforced)
{
    DirHarness h;
    Addr a = h.coh.lineHomedAt(0);
    h.sys->l1(2).issueLoad(a, false, [](std::uint64_t) {});
    EXPECT_DEATH(h.sys->l1(2).issueLoad(a, false, [](std::uint64_t) {}),
                 "outstanding");
}

} // namespace
} // namespace inpg
