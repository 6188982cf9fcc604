/**
 * @file
 * Big router: a baseline router extended with the iNPG packet
 * generator (paper Section 4).
 *
 * In the paper's micro-architecture the packet generator works in the
 * ST pipeline stage: it installs lock barriers when GetX[lock] requests
 * traverse, stops later GetX[lock] requests under a barrier (converting
 * them to early-invalidated requests and emitting an early Inv through
 * a dedicated VC -- here an internal generator input port), and relays
 * returning InvAcks to the home node.
 */

#ifndef INPG_INPG_BIG_ROUTER_HH
#define INPG_INPG_BIG_ROUTER_HH

#include "coh/coh_config.hh"
#include "inpg/inpg_config.hh"
#include "inpg/packet_generator.hh"
#include "noc/network.hh"
#include "noc/router.hh"

namespace inpg {

/** Active router with in-network packet generation. */
class BigRouter : public Router
{
  public:
    /** @param sim kernel whose telemetry the router reports to */
    BigRouter(NodeId node_id, const NocConfig &noc_cfg,
              const RoutingAlgorithm *routing, const Simulator &sim,
              const InpgConfig &inpg_cfg, const CohConfig &coh_cfg);

    bool isBigRouter() const override { return true; }

    PacketGenerator &generator() { return gen; }
    const PacketGenerator &generator() const { return gen; }

    /** Router pipeline dump plus the barrier-table contents. */
    JsonValue debugJson(Cycle now) const override;

  protected:
    void onHeadFlitArrived(const FlitPtr &flit, int inport,
                           Cycle now) override;
    void onHeadFlitGranted(const FlitPtr &flit, int inport,
                           Direction outport, Cycle now) override;
    void generatorPhase(Cycle now) override;

    /**
     * Idle barriers expire by TTL, and the expiry statistics are
     * per-cycle observable: with nothing buffered, sleep until the
     * table's next expiry, which maintain() then runs on time.
     */
    Cycle
    nextTimedWork() const override
    {
        return gen.barrierTable().nextExpiry();
    }

  private:
    /**
     * The router's network address for generated traffic. A
     * concentrated router serves several nodes; packets it emits carry
     * the first local node's id so returning InvAcks (dst = collector)
     * route back to this router. Equals nodeId() when concentration=1.
     */
    NodeId brNode;
    const Simulator &sim;
    PacketGenerator gen;
    CohConfig cohCfg;
    PacketId nextGenPacketId;
};

/**
 * Router factory deploying big routers evenly per `cfg.numBigRouters`
 * (checkerboard at half population, paper Figure 3). Pass to Network /
 * CoherentSystem construction.
 */
RouterFactory makeInpgRouterFactory(const InpgConfig &inpg_cfg,
                                    const CohConfig &coh_cfg);

} // namespace inpg

#endif // INPG_INPG_BIG_ROUTER_HH
