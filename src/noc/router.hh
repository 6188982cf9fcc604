/**
 * @file
 * Two-stage pipelined speculative VC router (paper Section 4.1 baseline,
 * after Peh & Dally [29]).
 *
 * Stage 1 performs route computation, VC allocation and switch
 * allocation in parallel (speculatively); stage 2 is switch traversal.
 * In this model a flit buffered at cycle t becomes eligible for stage 1
 * at t+1; a switch-allocation winner at cycle g is delivered to the next
 * hop's buffers at g + FLIT_DELAY (1 ST + 1 link, noc/link.hh), giving
 * the paper's 2-cycle router + 1-cycle link hop time.
 *
 * The class exposes protected hooks and an optional internal "generator"
 * input port so that BigRouter (src/inpg) can implement in-network
 * packet generation without duplicating the pipeline.
 */

#ifndef INPG_NOC_ROUTER_HH
#define INPG_NOC_ROUTER_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/link.hh"
#include "noc/noc_config.hh"
#include "noc/output_unit.hh"
#include "noc/ring_buffer.hh"
#include "noc/routing.hh"
#include "noc/vc_state.hh"
#include "sim/ticking.hh"
#include "telemetry/json.hh"

namespace inpg {

/** A router's statistics (snapshot group `router.N`), BigRouter's included. */
struct RouterStats : StatGroup {
    Counter earlyInvsInjected{*this, "early_invs_injected"};
    Counter flitsReceived{*this, "flits_received"};
    Counter flitsSent{*this, "flits_sent"};
    Counter genPacketsInjected{*this, "gen_packets_injected"};
    Counter genPacketsQueued{*this, "gen_packets_queued"};
    Counter invAcksRelayed{*this, "inv_acks_relayed"};
    Counter packetsRouted{*this, "packets_routed"};
    Counter vaGrants{*this, "va_grants"};
};

/** Baseline ("normal") NoC router. */
class Router : public Ticking
{
  public:
    /**
     * @param node_id      mesh node this router serves
     * @param cfg          shared NoC configuration (copied)
     * @param routing      routing algorithm that fills the route table
     * @param num_in_ports NUM_PORTS, or NUM_PORTS + 1 for a router with
     *                     the internal generator input port (BigRouter)
     */
    Router(NodeId node_id, const NocConfig &cfg,
           const RoutingAlgorithm *routing, int num_in_ports = NUM_PORTS);

    ~Router() override = default;

    /**
     * The channel feeding input port `d`, owned by this router (credits
     * for its flits are returned on it).
     */
    Channel &
    inputChannel(Direction d)
    {
        return inputs[static_cast<std::size_t>(d)];
    }

    /** Drive `channel` (owned by the next hop) from output port `d`. */
    void connectOutput(Direction d, Channel &channel);

    void tick(Cycle now) override;

    std::string tickName() const override;

    NodeId nodeId() const { return id; }

    /** True for BigRouter instances (iNPG deployment queries). */
    virtual bool isBigRouter() const { return false; }

    RouterStats stats;

    /** Sum of flits buffered across all input units (invariant checks). */
    std::size_t bufferedFlits() const;

    /** True while a flit waits in an input channel for delivery. */
    bool flitsDue() const { return anyDue(due); }

    /**
     * Structured dump of the router's pipeline state for the hang
     * report: every occupied/claimed input VC (state, occupancy,
     * routed output, head age) and per-output credit levels.
     */
    virtual JsonValue debugJson(Cycle now) const;

  protected:
    /**
     * Called when a head flit is buffered, before route computation.
     * The hook may rewrite the packet's destination (iNPG retargets
     * in-flight messages); routing uses the post-hook destination.
     */
    virtual void
    onHeadFlitArrived(const FlitPtr &flit, int inport, Cycle now)
    {
        (void)flit;
        (void)inport;
        (void)now;
    }

    /**
     * Called when a head flit wins switch allocation (entering ST).
     * iNPG uses this to observe first-GetX traversals and set barriers.
     */
    virtual void
    onHeadFlitGranted(const FlitPtr &flit, int inport, Direction outport,
                      Cycle now)
    {
        (void)flit;
        (void)inport;
        (void)outport;
        (void)now;
    }

    /**
     * Per-cycle hook before allocation phases, run only on routers
     * with a generator port: BigRouter maintains its barriers and
     * drains the generator queue here.
     */
    virtual void
    generatorPhase(Cycle now)
    {
        (void)now;
    }

    /**
     * Earliest cycle generatorPhase() may have time-driven work
     * (CYCLE_NEVER: none). A router with nothing buffered sleeps until
     * then; BigRouter returns its next barrier expiry.
     */
    virtual Cycle nextTimedWork() const { return CYCLE_NEVER; }

    /**
     * Queue a locally generated packet for injection through the
     * generator port; it then competes in VA/SA like any other traffic.
     */
    void injectGenerated(const PacketPtr &pkt, Cycle now);

    /**
     * Move the oldest queued generated packet into an idle
     * generator-port VC (at most one per cycle). Returns the injected
     * packet, or null when none was.
     */
    Packet *drainGeneratorQueue(Cycle now);

    const NocConfig &config() const { return cfg; }

    /** Number of input ports including the generator port if present. */
    int numInPorts() const { return nInPorts; }

  private:
    void drainFlits(Cycle now);
    /**
     * Bitmask-driven allocation stages: VA (with route computation for
     * newly arrived heads) and two-level SA over the per-port candidate
     * masks of `vcs`.
     */
    void allocateVcs(Cycle now);
    void allocateSwitch(Cycle now);
    /** One VA attempt for a VA-candidate VC. */
    void tryAllocateVc(int port, VcId v, Cycle now);

    /** Output-VC search range for a routed VC's vnet + dateline class. */
    std::pair<VcId, VcId>
    outVcRange(VnetId vnet, std::uint8_t out_class) const
    {
        if (out_class == VC_CLASS_ANY)
            return {cfg.vnetVcLo(vnet), cfg.vnetVcHi(vnet)};
        return {cfg.classVcLo(vnet, out_class),
                cfg.classVcHi(vnet, out_class)};
    }

    /** Bitmask of the VC ids belonging to a virtual network. */
    std::uint32_t
    vnetVcMask(VnetId vn) const
    {
        return (~0u >> (32 - static_cast<std::uint32_t>(cfg.vcsPerVnet)))
               << (static_cast<std::uint32_t>(vn) *
                   static_cast<std::uint32_t>(cfg.vcsPerVnet));
    }
    /** Switch traversal of SA winner (inport, vc) -> outport. */
    void switchTraverse(int inport, VcId v, int outport, Cycle now);

    NodeId id;
    NocConfig cfg;

    /**
     * Route decisions (output port + dateline VC class) per destination
     * column and row, filled by the topology's routing algorithm at
     * construction. iNPG destination rewrites happen in
     * onHeadFlitArrived, before route computation, so a static table
     * stays correct.
     */
    RouteTable routes;

    /** Input ports in use, including the generator port if present. */
    int nInPorts;

    /** Generator port index, or -1 when absent. */
    int genPort;

    /** Input-VC state, buffers and candidate masks of every port. */
    VcStateArray vcs;

    std::array<OutputUnit, NUM_PORTS> outputs;

    /**
     * Channels feeding each mesh input port (the generator port has
     * none); a border router leaves 1-2 of them unconnected.
     */
    std::array<Channel, NUM_PORTS> inputs;

    /** Due-port masks of `inputs`, one per delivery slot. */
    DueMasks due{};

    /** Generated packets waiting for a free generator-port VC. */
    RingBuffer<PacketPtr, 8> genQueue;

    /** VA scan pointer (rotates across input ports for fairness). */
    std::size_t vaPointer = 0;

    /** SA stage arbitration state. */
    std::array<PriorityArbiter, VcStateArray::MAX_PORTS> saInportArb;
    std::array<PriorityArbiter, NUM_PORTS> saOutportArb;

    /** Reused per-cycle scratch (avoids per-tick allocation). */
    std::array<PriorityArbiter::Request, VcStateArray::MAX_VCS>
        saVcReqScratch{};
    std::array<PriorityArbiter::Request, VcStateArray::MAX_PORTS>
        saPortReqScratch{};
    std::array<VcId, VcStateArray::MAX_PORTS> inportWinnerScratch{};

    /** Per-inport / per-outport vnet rotation for hierarchical SA:
     *  round-robin across virtual networks, priority within one (so
     *  OCOR reorders competing requests without starving responses). */
    std::array<std::size_t, VcStateArray::MAX_PORTS> saInportVnetPtr{};
    std::array<std::size_t, NUM_PORTS> saOutportVnetPtr{};
};

} // namespace inpg

#endif // INPG_NOC_ROUTER_HH
