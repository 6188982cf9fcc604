/**
 * @file
 * NoC unit tests: mesh geometry, XY routing properties, arbiters,
 * output-unit credit bookkeeping, vnet mapping, and parameterized
 * conservation sweeps across mesh sizes.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "noc/arbiter.hh"
#include "noc/network.hh"
#include "noc/output_unit.hh"
#include "noc/routing.hh"
#include "sim/simulator.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// MeshShape / XYRouting
// ---------------------------------------------------------------------

TEST(MeshShape, CoordinateRoundTrip)
{
    MeshShape m(8, 8);
    for (NodeId id = 0; id < m.numNodes(); ++id)
        EXPECT_EQ(m.idOf(m.coordOf(id)), id);
    EXPECT_EQ(m.coordOf(53).x, 5);
    EXPECT_EQ(m.coordOf(53).y, 6);
}

TEST(MeshShape, NeighborsRespectEdges)
{
    MeshShape m(4, 4);
    EXPECT_EQ(m.neighbor(0, Direction::North), INVALID_NODE);
    EXPECT_EQ(m.neighbor(0, Direction::West), INVALID_NODE);
    EXPECT_EQ(m.neighbor(0, Direction::East), 1);
    EXPECT_EQ(m.neighbor(0, Direction::South), 4);
    EXPECT_EQ(m.neighbor(15, Direction::East), INVALID_NODE);
    EXPECT_EQ(m.neighbor(5, Direction::Local), 5);
}

TEST(MeshShape, HopDistanceIsManhattan)
{
    MeshShape m(8, 8);
    EXPECT_EQ(m.hopDistance(0, 63), 14);
    EXPECT_EQ(m.hopDistance(9, 9), 0);
    EXPECT_EQ(m.hopDistance(0, 7), 7);
}

TEST(MeshShape, RejectsBadDimensions)
{
    EXPECT_THROW(MeshShape(0, 4), FatalError);
}

TEST(XYRouting, EveryPairMakesMonotoneProgress)
{
    // Property: following routeEntry() from any src reaches dst in exactly
    // hopDistance steps, moving in X before Y.
    MeshShape m(6, 5);
    XYRouting xy(m);
    for (NodeId s = 0; s < m.numNodes(); ++s) {
        for (NodeId d = 0; d < m.numNodes(); ++d) {
            NodeId here = s;
            int hops = 0;
            bool seen_y_move = false;
            while (here != d) {
                Direction dir = xy.routeEntry(here, d).dir;
                ASSERT_NE(dir, Direction::Local);
                if (dir == Direction::North || dir == Direction::South)
                    seen_y_move = true;
                else
                    ASSERT_FALSE(seen_y_move)
                        << "X move after Y move (not XY order)";
                here = m.neighbor(here, dir);
                ASSERT_NE(here, INVALID_NODE);
                ASSERT_LE(++hops, m.hopDistance(s, d));
            }
            EXPECT_EQ(hops, m.hopDistance(s, d));
            EXPECT_EQ(xy.routeEntry(d, d).dir, Direction::Local);
        }
    }
}

TEST(Directions, OppositeIsInvolution)
{
    for (Direction d : {Direction::North, Direction::East,
                        Direction::South, Direction::West}) {
        EXPECT_EQ(opposite(opposite(d)), d);
        EXPECT_NE(opposite(d), d);
    }
    EXPECT_EQ(opposite(Direction::Local), Direction::Local);
}

// ---------------------------------------------------------------------
// Arbiters
// ---------------------------------------------------------------------

TEST(RoundRobinArbiter, RotatesFairly)
{
    RoundRobinArbiter arb(4);
    std::map<int, int> grants;
    for (int i = 0; i < 40; ++i)
        ++grants[arb.grantMask(0b1111)];
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(grants[i], 10);
}

TEST(RoundRobinArbiter, SkipsNonRequesters)
{
    RoundRobinArbiter arb(4);
    const std::uint32_t reqs = 0b1010; // inputs 1 and 3
    for (int i = 0; i < 10; ++i) {
        int g = arb.grantMask(reqs);
        EXPECT_TRUE(g == 1 || g == 3);
    }
    EXPECT_EQ(arb.grantMask(0), -1);
}

TEST(PriorityArbiter, HighestPriorityWins)
{
    PriorityArbiter arb(3, 0);
    const PriorityArbiter::Request reqs[3] = {{2, 0}, {8, 0}, {5, 0}};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(arb.grantMasked(0b111, reqs), 1);
}

TEST(PriorityArbiter, TiesBreakRoundRobin)
{
    PriorityArbiter arb(2, 0);
    const PriorityArbiter::Request reqs[2] = {{3, 0}, {3, 0}};
    int first = arb.grantMasked(0b11, reqs);
    int second = arb.grantMasked(0b11, reqs);
    EXPECT_NE(first, second);
}

TEST(PriorityArbiter, AgingLiftsStarvedRequests)
{
    PriorityArbiter arb(2, 10); // +1 priority per 10 cycles of age
    PriorityArbiter::Request reqs[2] = {
        {5, 0},  // high priority, fresh
        {0, 60}, // low priority, starved 60 cycles -> +6
    };
    EXPECT_EQ(arb.grantMasked(0b11, reqs), 1);
    reqs[1].age = 10; // only +1 now
    EXPECT_EQ(arb.grantMasked(0b11, reqs), 0);
}

// ---------------------------------------------------------------------
// OutputUnit credits
// ---------------------------------------------------------------------

TEST(OutputUnit, CreditLifecycle)
{
    OutputUnit ou(4, 2);
    EXPECT_EQ(ou.credits(1, 0), 2);
    ou.decrementCredit(1, 10);
    ou.decrementCredit(1, 10);
    EXPECT_EQ(ou.credits(1, 10), 0);
    ou.land(1, 10);
    EXPECT_EQ(ou.credits(1, 10), 0);
    EXPECT_EQ(ou.credits(1, 11), 1);
    EXPECT_EQ(ou.credits(0, 11), 2);
}

TEST(OutputUnit, VcAllocationRoundRobinInRange)
{
    OutputUnit ou(8, 4);
    VcId a = ou.findFreeVcInRange(2, 5);
    ASSERT_NE(a, INVALID_VC);
    ou.allocateVc(a);
    VcId b = ou.findFreeVcInRange(2, 5);
    ASSERT_NE(b, INVALID_VC);
    EXPECT_NE(a, b);
    EXPECT_GE(b, 2);
    EXPECT_LE(b, 5);
    ou.freeVc(a);
    EXPECT_TRUE(ou.isVcFree(a));
}

TEST(NocConfig, VnetVcPartition)
{
    NocConfig cfg;
    cfg.numVnets = 4;
    cfg.vcsPerVnet = 2;
    EXPECT_EQ(cfg.totalVcs(), 8);
    EXPECT_EQ(cfg.vnetVcLo(0), 0);
    EXPECT_EQ(cfg.vnetVcHi(0), 1);
    EXPECT_EQ(cfg.vnetVcLo(3), 6);
    EXPECT_EQ(cfg.vnetOfVc(7), 3);
    EXPECT_EQ(cfg.vnetOfVc(2), 1);
}

// ---------------------------------------------------------------------
// Parameterized conservation sweep across mesh sizes
// ---------------------------------------------------------------------

struct MeshCase {
    int w;
    int h;
};

class NocConservation : public ::testing::TestWithParam<MeshCase>
{};

TEST_P(NocConservation, RandomTrafficIsConserved)
{
    const MeshCase mc = GetParam();
    NocConfig cfg;
    cfg.meshWidth = mc.w;
    cfg.meshHeight = mc.h;
    Simulator sim;
    Network net(cfg, sim);
    std::map<PacketId, NodeId> expect;
    std::map<PacketId, int> got;
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        net.niFor(n).setDeliverCallback(
            n, [&got, n, &expect](const PacketPtr &p, Cycle) {
                ++got[p->id];
                EXPECT_EQ(expect[p->id], n);
            });
    }
    Rng rng(static_cast<std::uint64_t>(mc.w * 100 + mc.h));
    const int total = 200;
    int sent = 0;
    while (sent < total ||
           static_cast<int>(got.size()) < total) {
        if (sent < total && rng.chance(0.5)) {
            NodeId s = static_cast<NodeId>(
                rng.nextBounded(static_cast<std::uint64_t>(
                    net.numNodes())));
            NodeId d = static_cast<NodeId>(
                rng.nextBounded(static_cast<std::uint64_t>(
                    net.numNodes())));
            auto pkt = net.makePacket(
                s, d, static_cast<VnetId>(rng.nextBounded(4)),
                rng.chance(0.25) ? 8 : 1);
            expect[pkt->id] = d;
            net.inject(pkt, sim.now());
            ++sent;
        }
        sim.step();
        ASSERT_LT(sim.now(), 100000u);
    }
    for (const auto &kv : got)
        EXPECT_EQ(kv.second, 1) << "packet duplicated";
}

INSTANTIATE_TEST_SUITE_P(Meshes, NocConservation,
                         ::testing::Values(MeshCase{1, 4}, MeshCase{2, 2},
                                           MeshCase{3, 5}, MeshCase{4, 4},
                                           MeshCase{8, 2}),
                         [](const auto &info) {
                             return std::to_string(info.param.w) + "x" +
                                    std::to_string(info.param.h);
                         });

} // namespace
} // namespace inpg
