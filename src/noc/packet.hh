/**
 * @file
 * Network packet: the unit of end-to-end transfer across the NoC.
 *
 * A packet is serialized into flits at the source network interface and
 * reassembled at the destination. The payload is an opaque PacketData
 * subclass (the coherence layer derives CoherenceMsg from it); routers
 * that implement in-network services (iNPG big routers, OCOR arbitration)
 * inspect and may rewrite the on-wire header fields mirrored here.
 */

#ifndef INPG_NOC_PACKET_HH
#define INPG_NOC_PACKET_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace inpg {

/** Base class for packet payloads carried across the network. */
struct PacketData {
    virtual ~PacketData() = default;
};

/** Unique packet identifier (per network). */
using PacketId = std::uint64_t;

struct PacketLifetime;

/**
 * End-to-end network packet.
 *
 * `dst` may be rewritten in flight by big routers (a stopped GetX is
 * retargeted as a FwdGetX); `priority` is read by OCOR switch
 * allocation policies.
 */
class Packet
{
  public:
    Packet(PacketId packet_id, NodeId source, NodeId destination,
           VnetId vnet_id, int num_flits,
           std::shared_ptr<PacketData> payload_data = nullptr)
        : id(packet_id), src(source), dst(destination), vnet(vnet_id),
          numFlits(num_flits), payload(std::move(payload_data))
    {}

    PacketId id;
    NodeId src;
    NodeId dst;
    VnetId vnet;
    int numFlits;

    /**
     * Hop-level lifetime record (telemetry/packet_lifetime.hh), or
     * null unless `telemetry=packets` is on. Opened by the source NI
     * (or by the big router for generated packets), stamped by every
     * router the head flit crosses, retired at ejection.
     */
    PacketLifetime *lifetime = nullptr;

    /** Opaque payload; coherence messages derive from PacketData. */
    std::shared_ptr<PacketData> payload;

    /**
     * OCOR priority carried in the head flit. Higher wins switch
     * allocation under the OCOR policy; 0 is the neutral default.
     */
    int priority = 0;

    /** Cycle the packet entered the source NI (for latency stats). */
    Cycle injectCycle = 0;

    /** Cycle the head flit first left the source NI. */
    Cycle networkEntryCycle = 0;

    /** Human-readable summary for debug traces. */
    std::string toString() const;
};

using PacketPtr = std::shared_ptr<Packet>;

} // namespace inpg

#endif // INPG_NOC_PACKET_HH
