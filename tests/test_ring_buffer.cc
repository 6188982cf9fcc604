/**
 * @file
 * Unit tests for the ring buffers behind the NoC hot path: RingBuffer
 * FIFO order across wraps and growth, and VcStateArray's per-VC rings
 * (one cache-line block per VC) with their occupancy/mask invariants.
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
// VcStateArray per-VC blocks
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
    a.rec(s).state = VcStateArray::Active;
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
    EXPECT_EQ(a.rec(s).count, 1u);
    // An idle VC holding a head flit is a pending (RC) candidate.
    EXPECT_EQ(a.pendingMask[1], 1u << 1);
    EXPECT_EQ(a.pendingMask[0], 0u);
    EXPECT_EQ(a.front(s)->bufferedAt, 5u);

    a.receiveFlit(1, testFlit(FlitType::Body, 1), 6);
    a.receiveFlit(1, testFlit(FlitType::Tail, 1), 7);
    EXPECT_EQ(a.rec(s).count, 3u);

    FlitPtr popped = a.popFlit(1, 1);
    EXPECT_EQ(popped->type, FlitType::Head);
    EXPECT_EQ(a.rec(s).count, 2u);
    EXPECT_EQ(a.totalOccupancy(), 2u);
    a.popFlit(1, 1);
    a.popFlit(1, 1);
    EXPECT_EQ(a.totalOccupancy(), 0u);
    EXPECT_EQ(a.pendingMask[1], 0u);
    EXPECT_EQ(a.rec(s).count, 0u);
}

/**
 * Cycle `rounds` packets of `depth` flits through VC (port, vc), each
 * round filling the ring and draining it; the ring holds exactly
 * `depth` entries, so the cursor walks past the ring's end whenever
 * `rounds * depth` does not divide evenly into whole passes.
 */
void
cyclePackets(VcStateArray &a, int port, VcId vc, int depth, int rounds)
{
    const std::size_t s = a.slot(port, vc);
    int seq = 0;
    for (int round = 0; round < rounds; ++round) {
        for (int k = 0; k < depth; ++k) {
            const FlitType type =
                depth == 1 ? FlitType::HeadTail
                           : (k == 0 ? FlitType::Head
                                     : (k == depth - 1 ? FlitType::Tail
                                                       : FlitType::Body));
            FlitPtr f = testFlit(type, vc);
            f->seq = seq++;
            a.receiveFlit(port, std::move(f), 10 + round);
        }
        EXPECT_EQ(a.rec(s).count, static_cast<std::size_t>(depth));
        EXPECT_EQ(a.front(s)->bufferedAt, static_cast<Cycle>(10 + round));
        int expect = seq - depth;
        while (a.rec(s).count != 0)
            EXPECT_EQ(a.popFlit(port, vc)->seq, expect++);
        EXPECT_EQ(expect, seq);
    }
    EXPECT_EQ(a.totalOccupancy(), 0u);
}

TEST(VcStateArray, PerVcRingWrapsWithinPooledArena)
{
    VcStateArray a(2, 2, 3);
    cyclePackets(a, 0, 1, 3, 8);
}

TEST(VcStateArray, ThirtyTwoVcDepthOneAndDepthSixRingsWrap)
{
    // 32 VCs per port at depth 1: every push lands on ring index 0.
    VcStateArray narrow(VcStateArray::MAX_PORTS, VcStateArray::MAX_VCS, 1);
    for (VcId vc : {0, 17, VcStateArray::MAX_VCS - 1})
        cyclePackets(narrow, VcStateArray::MAX_PORTS - 1, vc, 1, 4);

    // Depth 6 fills its block's line exactly; start each round one
    // flit further along so the cursor crosses the ring's end at
    // every offset.
    VcStateArray deep(2, 8, 6);
    const std::size_t s = deep.slot(1, 5);
    deep.receiveFlit(1, testFlit(FlitType::HeadTail, 5), 1);
    deep.popFlit(1, 5);
    EXPECT_EQ(deep.rec(s).head, 1u);
    cyclePackets(deep, 1, 5, 6, 7);

    // Every VC's block starts on its own cache line.
    for (std::size_t s = 0; s < VcStateArray::MAX_PORTS * 32; ++s) {
        for (const VcRecord *r : {&narrow.rec(s), &deep.rec(s % 16)}) {
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r) %
                          VcStateArray::LINE_BYTES,
                      0u);
        }
    }
}

TEST(VcStateArray, MaskLifecycleFollowsVcStates)
{
    VcStateArray a(2, 2, 3);
    const std::size_t s = a.slot(0, 0);
    a.receiveFlit(0, testFlit(FlitType::HeadTail, 0), 1);
    EXPECT_EQ(a.vaCandidates(0), 1u);
    EXPECT_EQ(a.saCandidates(0), 0u);

    // RC: Idle -> WaitVc moves the VC from pending to wait.
    a.rec(s).state = VcStateArray::WaitVc;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.pendingMask[0], 0u);
    EXPECT_EQ(a.waitMask[0], 1u);
    EXPECT_EQ(a.vaCandidates(0), 1u);

    // VA: WaitVc -> Active makes it a switch-allocation candidate.
    a.rec(s).state = VcStateArray::Active;
    a.refreshMask(0, 0);
    EXPECT_EQ(a.waitMask[0], 0u);
    EXPECT_EQ(a.activeMask[0], 1u);
    EXPECT_EQ(a.vaCandidates(0), 0u);
    EXPECT_EQ(a.saCandidates(0), 1u);

    // ST of the tail: an empty Active VC is no candidate at all.
    a.popFlit(0, 0);
    EXPECT_FALSE(a.anySaCandidate());
    a.rec(s).state = VcStateArray::Idle;
    a.refreshMask(0, 0);
    EXPECT_FALSE(a.anyVaCandidate());
}

} // namespace
} // namespace inpg
