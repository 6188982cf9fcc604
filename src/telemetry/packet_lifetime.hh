/**
 * @file
 * Packet-lifetime tracker: stamps every in-flight packet at hop
 * granularity -- NI inject, per-router head arrival / VC allocation /
 * switch traversal, NI eject -- and rolls the stamps into latency
 * statistics and (optionally) Chrome-trace slices, one track per
 * router and network interface.
 *
 * The stamps live in a PacketLifetime record that rides on the packet
 * (Packet::lifetime): routers write the newest hop directly, on
 * whichever thread ticks them. A packet's head flit sits in one
 * router per cycle and crosses parallel-kernel domains only through
 * the boundary outboxes drained at the quantum merge, so each record
 * has one writer per quantum; the tracker reads it only at ejection
 * and in the hang report, both after a merge.
 *
 * Records live only while their packet is in flight: the eject hook
 * folds the record into running statistics, emits its trace slices,
 * and erases it, so memory stays bounded by the number of packets
 * simultaneously in the network.
 */

#ifndef INPG_TELEMETRY_PACKET_LIFETIME_HH
#define INPG_TELEMETRY_PACKET_LIFETIME_HH

#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "telemetry/json.hh"

namespace inpg {

class TraceEventSink;

/** One router traversal of a packet's head flit. */
struct PacketHop {
    NodeId router;
    Cycle arrive;  ///< buffered at the input unit
    Cycle vaGrant; ///< granted an output virtual channel
    Cycle depart;  ///< traversed the crossbar (ST stage)
};

/** Hop-level stamps of one packet in flight (see file comment). */
struct PacketLifetime {
    NodeId src;
    NodeId dst; ///< destination at injection (big routers may retarget)
    VnetId vnet;
    Cycle queued;
    Cycle entered;
    std::vector<PacketHop> hops;

    /** Head flit buffered at `router`: open a new hop. */
    void
    arrive(NodeId router, Cycle now)
    {
        // Hops per packet are bounded by the path length; the record
        // retires at ejection.
        hops.push_back( // lint:allow(unbounded-recording)
            PacketHop{router, now, now, now});
    }

    /**
     * The hop a VA grant or departure at `router` belongs to: always
     * the newest, since the head flit leaves a router before it can
     * arrive at the next.
     */
    PacketHop &
    currentHop(NodeId router)
    {
        INPG_ASSERT(!hops.empty() && hops.back().router == router,
                    "router %d stamps a packet whose newest hop is "
                    "elsewhere",
                    router);
        return hops.back();
    }
};

/** Packet-lifetime statistics (snapshot group `noc.packets`). */
struct PacketStats : StatGroup {
    Counter packetsCompleted{*this, "packets_completed"};
    Counter packetsTracked{*this, "packets_tracked"};
    Sample hopBufferWait{*this, "hop_buffer_wait"};
    Sample hopSwitchWait{*this, "hop_switch_wait"};
    Sample hops{*this, "hops"};
    Sample netLatency{*this, "net_latency"};
    Sample queueWait{*this, "queue_wait"};
    Sample totalLatency{*this, "total_latency"};
};

/** Opens, rolls up and retires the packets' lifetime records. */
class PacketLifetimeTracker
{
  public:
    /** @param sink Optional Chrome-trace sink for per-hop slices. */
    explicit PacketLifetimeTracker(TraceEventSink *sink = nullptr);

    /**
     * Packet accepted by a source NI (or synthesized by a big router):
     * open its record and point pkt.lifetime at it.
     */
    void onPacketQueued(Packet &pkt, Cycle now);

    /** Tail flit reassembled at the destination NI: retire the record. */
    void onPacketEjected(Packet &pkt, Cycle now);

    /** Aggregated latency statistics over completed packets. */
    PacketStats stats;

    /** Packets currently tracked in flight. */
    std::size_t inFlight() const { return live.size(); }

    /**
     * In-flight transaction waterfall for the hang report: every live
     * packet with its per-router hop stamps, in packet-id order.
     */
    JsonValue inFlightJson(Cycle now) const;

  private:
    TraceEventSink *sink;
    /**
     * Open records by packet id. Ordered for the hang report; map
     * nodes never move, so Packet::lifetime stays valid while other
     * records come and go.
     */
    std::map<PacketId, PacketLifetime> live;
};

} // namespace inpg

#endif // INPG_TELEMETRY_PACKET_LIFETIME_HH
