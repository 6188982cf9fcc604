/**
 * @file
 * iNPG edge cases: barrier-table capacity pass-through, TTL behaviour
 * under live traffic (down to TTLs of 0 and 1 cycle) and while the big
 * router sleeps, ack relaying at the home tile, generator-port
 * injection under pressure, and the packet generator's protocol
 * filters.
 */

#include <gtest/gtest.h>

#include "coh/coherent_system.hh"
#include "coh/golden_memory.hh"
#include "harness/system.hh"
#include "inpg/big_router.hh"
#include "inpg/packet_generator.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

CohMsgPtr
makeLockGetX(Addr addr, CoreId requester)
{
    auto msg = std::make_shared<CoherenceMsg>();
    msg->kind = CohMsgKind::GetX;
    msg->addr = addr;
    msg->requester = requester;
    msg->isLock = true;
    msg->isAtomicOp = true;
    msg->demotable = true;
    msg->toDirectory = true;
    return msg;
}

// ---------------------------------------------------------------------
// PacketGenerator protocol filters (no network needed)
// ---------------------------------------------------------------------

struct GenHarness {
    GenHarness()
    {
        coh.numNodes = 16;
        gen = std::make_unique<PacketGenerator>(5, cfg, coh);
    }

    InpgConfig cfg;
    CohConfig coh;
    std::unique_ptr<PacketGenerator> gen;
};

TEST(PacketGenerator, FirstGetXInstallsLaterGetXStopped)
{
    GenHarness h;
    auto first = makeLockGetX(0x500, 1);
    EXPECT_EQ(h.gen->onGetXArrival(first, 10), nullptr); // no barrier yet
    h.gen->onGetXTransfer(first, 12);                    // installs

    auto second = makeLockGetX(0x500, 2);
    CohMsgPtr inv = h.gen->onGetXArrival(second, 20);
    ASSERT_NE(inv, nullptr);
    EXPECT_EQ(inv->kind, CohMsgKind::Inv);
    EXPECT_EQ(inv->requester, 2);
    EXPECT_EQ(inv->collector, 5); // ack returns to this router
    EXPECT_TRUE(inv->fromBigRouter);
    EXPECT_TRUE(second->earlyInvalidated);
    EXPECT_TRUE(second->fromBigRouter);
}

TEST(PacketGenerator, IgnoresNonLockNonAtomicAndAlreadyStopped)
{
    GenHarness h;
    auto first = makeLockGetX(0x500, 1);
    h.gen->onGetXTransfer(first, 0);

    auto plain = makeLockGetX(0x500, 2);
    plain->isLock = false;
    EXPECT_EQ(h.gen->onGetXArrival(plain, 1), nullptr);

    auto release_store = makeLockGetX(0x500, 3);
    release_store->isAtomicOp = false; // a release store
    EXPECT_EQ(h.gen->onGetXArrival(release_store, 2), nullptr);
    h.gen->onGetXTransfer(release_store, 2); // must not install either
    EXPECT_EQ(h.gen->stats.getxStopped, 0u);

    auto stopped_elsewhere = makeLockGetX(0x500, 4);
    stopped_elsewhere->earlyInvalidated = true;
    EXPECT_EQ(h.gen->onGetXArrival(stopped_elsewhere, 3), nullptr);
}

TEST(PacketGenerator, AckRelayClosesEiAndRedirectsHome)
{
    GenHarness h;
    auto first = makeLockGetX(0x500, 1);
    h.gen->onGetXTransfer(first, 0);
    auto second = makeLockGetX(0x500, 2);
    ASSERT_NE(h.gen->onGetXArrival(second, 1), nullptr);
    EXPECT_EQ(h.gen->barrierTable().numEis(0x500), 1u);

    auto ack = std::make_shared<CoherenceMsg>();
    ack->kind = CohMsgKind::InvAck;
    ack->addr = 0x500;
    ack->requester = 2;
    ack->fromBigRouter = true;
    NodeId home = h.gen->onInvAckArrival(ack, 30);
    EXPECT_EQ(home, h.coh.homeOf(0x500));
    EXPECT_EQ(h.gen->barrierTable().numEis(0x500), 0u);
    EXPECT_EQ(h.gen->stats.acksRelayed, 1u);

    // A duplicate/stale ack still relays but counts as stale.
    EXPECT_EQ(h.gen->onInvAckArrival(ack, 31), home);
    EXPECT_EQ(h.gen->stats.acksRelayedStale, 1u);

    // Non-early acks are not the generator's business.
    auto normal = std::make_shared<CoherenceMsg>();
    normal->kind = CohMsgKind::InvAck;
    normal->addr = 0x500;
    EXPECT_EQ(h.gen->onInvAckArrival(normal, 32), INVALID_NODE);
}

TEST(PacketGenerator, EiCapacityLimitsStops)
{
    InpgConfig small;
    small.barrierEntries = 2;
    small.eiEntries = 2;
    CohConfig coh;
    coh.numNodes = 16;
    PacketGenerator gen(0, small, coh);

    auto first = makeLockGetX(0x100, 0);
    gen.onGetXTransfer(first, 0);
    EXPECT_NE(gen.onGetXArrival(makeLockGetX(0x100, 1), 1), nullptr);
    EXPECT_NE(gen.onGetXArrival(makeLockGetX(0x100, 2), 1), nullptr);
    // EI list full: the third competitor passes through unstopped.
    auto third = makeLockGetX(0x100, 3);
    EXPECT_EQ(gen.onGetXArrival(third, 2), nullptr);
    EXPECT_FALSE(third->earlyInvalidated);
}

// ---------------------------------------------------------------------
// Full-system edge cases
// ---------------------------------------------------------------------

struct EdgeHarness {
    explicit EdgeHarness(InpgConfig icfg)
    {
        noc.meshWidth = 4;
        noc.meshHeight = 4;
        icfg.numBigRouters = 16; // every router big
        sys = std::make_unique<CoherentSystem>(
            noc, coh, sim, makeInpgRouterFactory(icfg, coh));
    }

    void
    storm(Addr lock, int rounds)
    {
        const int n = 16;
        std::vector<int> rem(n, rounds);
        int active = n;
        std::function<void(CoreId)> loop = [&](CoreId c) {
            if (rem[static_cast<std::size_t>(c)]-- <= 0) {
                --active;
                return;
            }
            sys->l1(c).issueAtomic(
                lock, AtomicOp::Swap, 1, 0, true,
                [&, c](std::uint64_t old, bool demoted) {
                    if (!demoted && old == 0) {
                        sys->l1(c).issueStore(lock, 0, true,
                                              [&, c](std::uint64_t) {
                                                  loop(c);
                                              });
                    } else {
                        loop(c);
                    }
                },
                true);
        };
        for (CoreId c = 0; c < n; ++c)
            loop(c);
        while (active > 0) {
            sim.step();
            ASSERT_LT(sim.now(), 3000000u) << "storm hung";
        }
    }

    NocConfig noc;
    CohConfig coh;
    Simulator sim;
    std::unique_ptr<CoherentSystem> sys;
};

TEST(InpgEdge, TinyBarrierTableStillCorrect)
{
    InpgConfig icfg;
    icfg.barrierEntries = 1;
    icfg.eiEntries = 1;
    EdgeHarness h(icfg);
    // Two locks exceed the single barrier: pass-through must engage.
    Addr l0 = h.coh.lineHomedAt(3);
    Addr l1_addr = h.coh.lineHomedAt(12);
    h.storm(l0, 3);
    h.storm(l1_addr, 3);
    std::uint64_t full = 0;
    for (NodeId n = 0; n < 16; ++n) {
        auto *br = dynamic_cast<BigRouter *>(&h.sys->network().router(n));
        ASSERT_NE(br, nullptr);
        full += br->generator().barrierTable().stats.value(
            "barrier_table_full");
    }
    // Some router must have hit the capacity path during the storms.
    EXPECT_GT(full, 0u);
}

TEST(InpgEdge, ShortTtlExpiresBarriersBetweenBursts)
{
    InpgConfig icfg;
    icfg.barrierTtl = 8;
    EdgeHarness h(icfg);
    Addr lock = h.coh.lineHomedAt(5);
    h.storm(lock, 2);
    // Let everything drain well past the TTL.
    h.sim.run(1000);
    for (NodeId n = 0; n < 16; ++n) {
        auto *br = dynamic_cast<BigRouter *>(&h.sys->network().router(n));
        br->generator().maintain(h.sim.now());
        EXPECT_EQ(br->generator().barrierTable().numBarriers(), 0u)
            << "node " << n;
    }
}

TEST(InpgEdge, LockHomedAtBigRouterTile)
{
    // The ack-relay rewrite must also work when the big router IS the
    // home tile (dst == home after rewrite -> local ejection).
    InpgConfig icfg;
    EdgeHarness h(icfg);
    Addr lock = h.coh.lineHomedAt(0);
    h.storm(lock, 4);
    std::uint64_t early = 0;
    for (NodeId n = 0; n < 16; ++n) {
        auto *br = dynamic_cast<BigRouter *>(&h.sys->network().router(n));
        early += br->generator().stats.earlyInvsGenerated;
    }
    EXPECT_GT(early, 0u);
}

TEST(InpgEdge, IdleBarrierSleepsUntilItsExpiry)
{
    // A big router whose only work is one idle barrier leaves the
    // active set after every tick and returns only on its chained
    // timed wakes (the TTL spans several wake calendars); the barrier
    // still expires exactly at idleSince + ttl.
    NocConfig noc;
    noc.meshWidth = 2;
    noc.meshHeight = 1;
    InpgConfig icfg;
    icfg.numBigRouters = 2;
    icfg.barrierTtl = 3 * ActiveSet::WAKE_RING + 3;
    CohConfig coh;
    Simulator sim;
    Network net(noc, sim, makeInpgRouterFactory(icfg, coh));
    auto *br = dynamic_cast<BigRouter *>(&net.router(0));
    ASSERT_NE(br, nullptr);
    const LockBarrierTable &table = br->generator().barrierTable();
    SleepToken &tok = br->sleepToken();

    const Addr lock = 0x500;
    net.inject(net.makePacket(0, 1, vnetForKind(CohMsgKind::GetX), 1,
                              makeLockGetX(lock, 0)),
               sim.now());
    Cycle idleSince = CYCLE_NEVER;
    while (sim.now() < 200) {
        const Cycle c = sim.now();
        sim.step();
        if (idleSince == CYCLE_NEVER && table.contains(lock))
            idleSince = c; // installed as the GetX left on the switch
        if (idleSince == CYCLE_NEVER)
            continue;
        const bool expired = table.stats.barriersExpired == 1;
        EXPECT_EQ(expired, c >= idleSince + icfg.barrierTtl) << c;
        EXPECT_EQ(table.contains(lock), !expired) << c;
        EXPECT_FALSE(tok.active()) << c;
        EXPECT_EQ(tok.wakePending(), !expired) << c;
    }
    ASSERT_NE(idleSince, CYCLE_NEVER);
    EXPECT_EQ(table.stats.barriersExpired, 1u);
}

/**
 * CS entries an 8x8 TAS lock storm completes, with the golden memory
 * model checked over every operation.
 */
std::uint64_t
tasStormCsCompleted(Mechanism mech, Cycle barrier_ttl)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 8;
    cfg.noc.meshHeight = 8;
    cfg.lockKind = LockKind::Tas;
    cfg.mechanism = mech;
    cfg.inpg.barrierTtl = barrier_ttl;
    cfg.finalize();
    System system(cfg);

    GoldenMemory golden;
    system.coherent().setOpLog(
        [&golden](const OpRecord &r) { golden.record(r); });
    Workload::Params wp;
    wp.profile = benchmarkByName("nab");
    wp.threads = cfg.numCores();
    wp.csScale = 0.02;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    for (const auto &kv : system.locks().initialValues())
        golden.setInitial(kv.first, kv.second);
    w.start();
    system.runUntil([&] { return w.done(); }, 30000000);
    EXPECT_TRUE(w.done());
    EXPECT_EQ(golden.verify(), "");
    return w.csCompleted();
}

TEST(InpgEdge, ZeroAndOneCycleTtlStormsMatchOriginal)
{
    // A barrier that expires the cycle after it is installed (or
    // idles) must leave the protocol correct and complete.
    const std::uint64_t original =
        tasStormCsCompleted(Mechanism::Original, 128);
    EXPECT_GT(original, 0u);
    for (Cycle ttl : {Cycle{0}, Cycle{1}})
        EXPECT_EQ(tasStormCsCompleted(Mechanism::Inpg, ttl), original)
            << "barrier_ttl=" << ttl;
}

} // namespace
} // namespace inpg
