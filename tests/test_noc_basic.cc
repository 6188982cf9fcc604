/**
 * @file
 * Basic NoC bring-up tests: delivery, latency, conservation.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "noc/network.hh"
#include "sim/simulator.hh"

namespace inpg {
namespace {

struct NocHarness {
    explicit NocHarness(int w, int h)
    {
        cfg.meshWidth = w;
        cfg.meshHeight = h;
        net = std::make_unique<Network>(cfg, sim);
        for (NodeId id = 0; id < net->numNodes(); ++id) {
            net->niFor(id).setDeliverCallback(
                id, [this, id](const PacketPtr &pkt, Cycle now) {
                    (void)now;
                    ++delivered[pkt->id];
                    lastDst[pkt->id] = id;
                });
        }
    }

    NocConfig cfg;
    Simulator sim;
    std::unique_ptr<Network> net;
    std::map<PacketId, int> delivered;
    std::map<PacketId, NodeId> lastDst;
};

TEST(NocBasic, SinglePacketDelivered)
{
    NocHarness h(4, 4);
    auto pkt = h.net->makePacket(0, 15, 0, 1);
    h.net->inject(pkt, h.sim.now());
    bool done = h.sim.runUntil(
        [&] { return h.delivered.count(pkt->id) > 0; }, 1000);
    ASSERT_TRUE(done);
    EXPECT_EQ(h.delivered[pkt->id], 1);
    EXPECT_EQ(h.lastDst[pkt->id], 15);
}

TEST(NocBasic, SelfDelivery)
{
    NocHarness h(2, 2);
    auto pkt = h.net->makePacket(3, 3, 1, 1);
    h.net->inject(pkt, h.sim.now());
    ASSERT_TRUE(h.sim.runUntil(
        [&] { return h.delivered.count(pkt->id) > 0; }, 200));
}

TEST(NocBasic, MultiFlitPacketDelivered)
{
    NocHarness h(4, 4);
    auto pkt = h.net->makePacket(0, 12, 2, 8);
    h.net->inject(pkt, h.sim.now());
    ASSERT_TRUE(h.sim.runUntil(
        [&] { return h.delivered.count(pkt->id) > 0; }, 1000));
    EXPECT_TRUE(h.net->quiescent());
}

TEST(NocBasic, ZeroLoadLatencyScalesWithHops)
{
    // On an empty 8x1 mesh, latency must grow linearly in hop count.
    NocHarness h(8, 1);
    Cycle lat[3];
    int idx = 0;
    for (NodeId dst : {1, 4, 7}) {
        NocHarness fresh(8, 1);
        auto pkt = fresh.net->makePacket(0, dst, 0, 1);
        Cycle start = fresh.sim.now();
        fresh.net->inject(pkt, start);
        ASSERT_TRUE(fresh.sim.runUntil(
            [&] { return fresh.delivered.count(pkt->id) > 0; }, 1000));
        lat[idx++] = fresh.sim.now() - start;
    }
    // 1 -> 4 is 3 extra hops; 4 -> 7 another 3: equal increments.
    EXPECT_EQ(lat[1] - lat[0], lat[2] - lat[1]);
    EXPECT_GT(lat[1], lat[0]);
}

TEST(NocBasic, AllPairsDelivered)
{
    NocHarness h(4, 4);
    std::map<PacketId, NodeId> expect;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            auto pkt = h.net->makePacket(s, d, 0, 1);
            expect[pkt->id] = d;
            h.net->inject(pkt, h.sim.now());
        }
    }
    ASSERT_TRUE(h.sim.runUntil(
        [&] { return h.delivered.size() == expect.size(); }, 20000));
    for (const auto &kv : expect) {
        EXPECT_EQ(h.delivered[kv.first], 1);
        EXPECT_EQ(h.lastDst[kv.first], kv.second);
    }
    h.sim.run(100);
    EXPECT_TRUE(h.net->quiescent());
}

TEST(NocBasic, RandomTrafficConservation)
{
    NocHarness h(4, 4);
    Rng rng(42);
    std::size_t total = 500;
    std::size_t sent = 0;
    // Inject randomly over time while the sim runs.
    while (sent < total || h.delivered.size() < total) {
        if (sent < total && rng.chance(0.7)) {
            NodeId s = static_cast<NodeId>(rng.nextBounded(16));
            NodeId d = static_cast<NodeId>(rng.nextBounded(16));
            VnetId v = static_cast<VnetId>(rng.nextBounded(4));
            int flits = rng.chance(0.3) ? 8 : 1;
            h.net->inject(h.net->makePacket(s, d, v, flits), h.sim.now());
            ++sent;
        }
        h.sim.step();
        ASSERT_LT(h.sim.now(), 200000u) << "traffic failed to drain";
    }
    EXPECT_EQ(h.delivered.size(), total);
    h.sim.run(200);
    EXPECT_TRUE(h.net->quiescent());
    // Every flit received by routers was eventually sent onward.
    std::uint64_t packets_sent = 0, packets_delivered = 0;
    for (NodeId n = 0; n < h.net->numRouters(); ++n) {
        packets_sent += h.net->ni(n).stats.packetsSent;
        packets_delivered += h.net->ni(n).stats.packetsDelivered;
    }
    EXPECT_EQ(packets_sent, total);
    EXPECT_EQ(packets_delivered, total);
}

} // namespace
} // namespace inpg
