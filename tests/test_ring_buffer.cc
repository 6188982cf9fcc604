/**
 * @file
 * Unit tests for the pow2 ring buffers behind the NoC hot path:
 * RingBuffer FIFO order across wraps and growth, and VcStateArray's
 * pooled per-VC rings with their occupancy/mask invariants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "noc/flit_pool.hh"
#include "noc/packet.hh"
#include "noc/ring_buffer.hh"
#include "noc/vc_state.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------

TEST(RingBuffer, StartsEmptyAtInitialCapacity)
{
    RingBuffer<int, 4> rb;
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrderSurvivesWraparound)
{
    RingBuffer<int, 4> rb;
    // Offset the head so pushes wrap the physical array, then verify
    // logical FIFO order is untouched.
    for (int i = 0; i < 3; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.pop_front(), 0);
    EXPECT_EQ(rb.pop_front(), 1);
    for (int i = 3; i < 7; ++i)
        rb.push_back(i); // wraps the physical end, then grows on the 5th
    EXPECT_EQ(rb.capacity(), 8u);
    std::vector<int> drained;
    while (!rb.empty())
        drained.push_back(rb.pop_front());
    EXPECT_EQ(drained, (std::vector<int>{2, 3, 4, 5, 6}));
}

TEST(RingBuffer, GrowthPreservesOrderAndDoublesCapacity)
{
    RingBuffer<int, 2> rb;
    for (int i = 0; i < 9; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.capacity(), 16u);
    EXPECT_EQ(rb.size(), 9u);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(rb.pop_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowthFromWrappedStateRelinearizes)
{
    RingBuffer<int, 4> rb;
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    rb.pop_front();
    rb.pop_front();
    rb.push_back(4);
    rb.push_back(5); // buffer full and physically wrapped
    rb.push_back(6); // forces growth mid-wrap
    EXPECT_EQ(rb.capacity(), 8u);
    for (int want = 2; want <= 6; ++want)
        EXPECT_EQ(rb.pop_front(), want);
}

TEST(RingBuffer, WarmBufferNeverReallocates)
{
    RingBuffer<int, 4> rb;
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    const std::size_t warm_cap = rb.capacity();
    // Steady state: occupancy never exceeds the warm capacity again.
    for (int round = 0; round < 1000; ++round) {
        rb.pop_front();
        rb.push_back(round);
        ASSERT_EQ(rb.capacity(), warm_cap);
    }
}

TEST(RingBuffer, ClearResetsAndDropsOwnedElements)
{
    RingBuffer<std::string, 2> rb;
    rb.push_back("a");
    rb.push_back("b");
    rb.push_back("c");
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back("d");
    EXPECT_EQ(rb.front(), "d");
    EXPECT_EQ(rb.pop_front(), "d");
}

// ---------------------------------------------------------------------
// VcStateArray pooled rings
// ---------------------------------------------------------------------

FlitPtr
testFlit(FlitType type, VcId vc)
{
    PacketPtr pkt = std::make_shared<Packet>(/*id=*/0, /*src=*/0,
                                             /*dst=*/1, /*vnet=*/0,
                                             /*num_flits=*/1);
    FlitPtr f = makeFlit(std::move(pkt), type, 0);
    f->vc = vc;
    return f;
}

TEST(VcStateArray, FitsGuardsTheMaskBudget)
{
    // The budget is per port: 32 VCs (one full mask word) on every
    // port of a router, generator port included.
    VcStateArray a(VcStateArray::MAX_PORTS, VcStateArray::MAX_VCS, 1);
    const int last_port = VcStateArray::MAX_PORTS - 1;
    const VcId last_vc = VcStateArray::MAX_VCS - 1;
    a.receiveFlit(last_port, testFlit(FlitType::HeadTail, last_vc), 1);
    EXPECT_EQ(a.vaCandidates(last_port), 1u << 31);
    EXPECT_EQ(a.vaCandidates(0), 0u);
    EXPECT_TRUE(a.anyVaCandidate());
    const std::size_t s = a.slot(last_port, last_vc);
    a.state[s] = VcStateArray::Active;
    a.refreshMask(last_port, last_vc);
    EXPECT_EQ(a.saCandidates(last_port), 1u << 31);
    EXPECT_FALSE(a.anyVaCandidate());
    EXPECT_TRUE(a.anySaCandidate());
    a.popFlit(last_port, last_vc);
    EXPECT_FALSE(a.anySaCandidate());
    EXPECT_EQ(a.totalOccupancy(), 0u);
}

TEST(VcStateArray, ReceiveAndPopKeepOccupancyAndMasksInSync)
{
    VcStateArray a(/*ports=*/2, /*vcs=*/2, /*depth=*/3);
    const std::size_t s = a.slot(1, 1);
    EXPECT_EQ(a.totalOccupancy(), 0u);
    EXPECT_FALSE(a.anyVaCandidate());

    a.receiveFlit(1, testFlit(FlitType::Head, 1), /*now=*/5);
    EXPECT_EQ(a.totalOccupancy(), 1u);
    EXPECT_EQ(a.vcOccupancy(s), 1u);
    EXPECT_EQ(a.portOccupancy(1), 1u);
    EXPECT_EQ(a.portOccupancy(0), 0u);
    // An idle VC holding a head flit is a pending (RC) candidate.
    EXPECT_EQ(a.pendingMask[1], 1u << 1);
    EXPECT_EQ(a.pendingMask[0], 0u);
    EXPECT_EQ(a.frontAt(s), 5u);

    a.receiveFlit(1, testFlit(FlitType::Body, 1), 6);
    a.receiveFlit(1, testFlit(FlitType::Tail, 1), 7);
    EXPECT_EQ(a.vcOccupancy(s), 3u);

    FlitPtr popped = a.popFlit(1, 1);
    EXPECT_EQ(popped->type, FlitType::Head);
    EXPECT_EQ(a.vcOccupancy(s), 2u);
    EXPECT_EQ(a.totalOccupancy(), 2u);
    a.popFlit(1, 1);
    a.popFlit(1, 1);
    EXPECT_EQ(a.totalOccupancy(), 0u);
    EXPECT_EQ(a.pendingMask[1], 0u);
    EXPECT_FALSE(a.hasFlit(s));
}

TEST(VcStateArray, PerVcRingWrapsWithinPooledArena)
{
    // depth 3 rounds up to a 4-slot ring; cycling depth-many flits
    // through repeatedly walks the ring past its physical end.
    VcStateArray a(2, 2, 3);
    const std::size_t s = a.slot(0, 1);
    int seq = 0;
    for (int round = 0; round < 8; ++round) {
        for (int k = 0; k < 3; ++k) {
            FlitPtr f =
                testFlit(k == 0 ? FlitType::Head
                                : (k == 2 ? FlitType::Tail
                                          : FlitType::Body),
                         1);
            f->seq = seq++;
            a.receiveFlit(0, std::move(f), 10 + round);
        }
        int expect = seq - 3;
        while (a.hasFlit(s))
            EXPECT_EQ(a.popFlit(0, 1)->seq, expect++);
        EXPECT_EQ(expect, seq);
    }
    EXPECT_EQ(a.totalOccupancy(), 0u);
}

TEST(VcStateArray, MaskLifecycleFollowsVcStates)
{
    VcStateArray a(2, 2, 3);
    const std::size_t s = a.slot(0, 0);
    a.receiveFlit(0, testFlit(FlitType::HeadTail, 0), 1);
    EXPECT_EQ(a.vaCandidates(0), 1u);
    EXPECT_EQ(a.saCandidates(0), 0u);

    // RC: Idle -> WaitVc moves the VC from pending to wait.
    a.state[s] = VcStateArray::WaitVc;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.pendingMask[0], 0u);
    EXPECT_EQ(a.waitMask[0], 1u);
    EXPECT_EQ(a.vaCandidates(0), 1u);

    // VA: WaitVc -> Active makes it a switch-allocation candidate.
    a.state[s] = VcStateArray::Active;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.waitMask[0], 0u);
    EXPECT_EQ(a.activeMask[0], 1u);
    EXPECT_EQ(a.vaCandidates(0), 0u);
    EXPECT_EQ(a.saCandidates(0), 1u);

    // ST of the tail: an empty Active VC is no candidate at all.
    a.popFlit(0, 0);
    EXPECT_FALSE(a.anySaCandidate());
    a.state[s] = VcStateArray::Idle;
    a.refreshMask(0, 0);
    EXPECT_FALSE(a.anyVaCandidate());
}

} // namespace
} // namespace inpg
