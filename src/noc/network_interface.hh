/**
 * @file
 * Network interface (NI): the tile-side endpoint of the NoC.
 *
 * The NI serializes outbound packets into flits (performing VC selection
 * for the router's local input port), injects at most one flit per cycle
 * (128-bit link), reassembles inbound flits into packets and delivers
 * them to the attached controller via a callback.
 *
 * Concentration (cmesh): one NI serves the `concentration` cores of its
 * router -- nodes [id * concentration, (id + 1) * concentration). The
 * cores' traffic fans into the shared local port through the per-vnet
 * inject queues (the clock-derived vnet rotation plus the inflight
 * round-robin are the fan-in arbitration), and inbound packets demux to
 * a per-node deliver callback. With concentration == 1 this degenerates
 * to the classic one-NI-per-core tile, bit-identically.
 */

#ifndef INPG_NOC_NETWORK_INTERFACE_HH
#define INPG_NOC_NETWORK_INTERFACE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/link.hh"
#include "noc/noc_config.hh"
#include "noc/output_unit.hh"
#include "noc/ring_buffer.hh"
#include "sim/ticking.hh"
#include "telemetry/json.hh"

namespace inpg {

class Simulator;

/** A network interface's statistics (snapshot group `ni.N`). */
struct NiStats : StatGroup {
    Counter flitsSent{*this, "flits_sent"};
    Counter packetsDelivered{*this, "packets_delivered"};
    Counter packetsQueued{*this, "packets_queued"};
    Counter packetsSent{*this, "packets_sent"};
    Sample packetLatency{*this, "packet_latency"};
};

/** Endpoint adapter between tile controllers and the router fabric. */
class NetworkInterface : public Ticking
{
  public:
    using DeliverFn = std::function<void(const PacketPtr &, Cycle)>;

    /** @param sim kernel whose telemetry the NI reports to */
    NetworkInterface(NodeId node_id, const NocConfig &cfg,
                     const Simulator &sim);

    /**
     * Drive `to_router` (the router's local input channel; credits
     * return to the NI on it).
     */
    void connect(Channel &to_router);

    /**
     * The channel feeding the NI from its router, owned by the NI (it
     * returns credits on it).
     */
    Channel &inputChannel() { return rxChannel; }

    /** Register the packet sink for one served node (tile demux). */
    void
    setDeliverCallback(NodeId node, DeliverFn fn)
    {
        INPG_ASSERT(servesNode(node), "NI %d does not serve node %d", id,
                    node);
        deliver[static_cast<std::size_t>(node - baseNode)] =
            std::move(fn);
    }

    /**
     * Queue a packet for injection. Takes effect the cycle after the
     * call (the NI charges one cycle of injection latency).
     */
    void sendPacket(const PacketPtr &pkt, Cycle now);

    void tick(Cycle now) override;

    std::string tickName() const override;

    NodeId nodeId() const { return id; }

    /** True when `node` attaches to this NI's router. */
    bool
    servesNode(NodeId node) const
    {
        return node >= baseNode &&
               node < baseNode + static_cast<NodeId>(deliver.size());
    }

    /** True when no packet is queued, serializing, or reassembling. */
    bool idle() const;

    /** True while a flit waits in the receive channel for delivery. */
    bool flitsDue() const { return anyDue(due); }

    /**
     * Endpoint state for the hang report: per-vnet inject-queue
     * depths, packets mid-serialization, reassembly occupancy.
     */
    JsonValue debugJson() const;

    NiStats stats;

  private:
    void ejectFlits(Cycle now);
    void allocateInjectVcs(Cycle now);
    void injectOneFlit(Cycle now);

    NodeId id;
    NocConfig cfg;
    const Simulator &sim;

    /** First served node (id * concentration). */
    NodeId baseNode;

    /** Per-served-node packet sinks, indexed by node - baseNode. */
    std::vector<DeliverFn> deliver;

    Channel *txChannel = nullptr;
    Channel rxChannel;

    /** Due masks of rxChannel (bit 0), one per delivery slot. */
    DueMasks due{};

    /** Mirror of the router's local input port VC/credit state. */
    OutputUnit routerPort;

    /** Per-vnet queues of packets awaiting a VC. */
    std::vector<RingBuffer<PacketPtr, 8>> injectQueues;

    /** Packets currently being serialized, keyed by allocated VC. */
    struct InFlight {
        PacketPtr pkt;
        int nextSeq = 0;
        VcId vc = INVALID_VC;
    };
    std::vector<InFlight> inflight;

    /** Per-VC reassembly buffers for inbound flits. */
    std::vector<std::vector<FlitPtr>> reassembly;

    std::size_t inflightPointer = 0;

    /**
     * Cached aggregate occupancy (packets across injectQueues, flits
     * across reassembly) so the per-cycle idle/early-out checks are one
     * compare instead of a walk over every queue.
     */
    std::size_t queuedPkts = 0;
    std::size_t reassemblingFlits = 0;
};

} // namespace inpg

#endif // INPG_NOC_NETWORK_INTERFACE_HH
