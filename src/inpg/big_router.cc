#include "inpg/big_router.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

BigRouter::BigRouter(NodeId node_id, const NocConfig &noc_cfg,
                     const RoutingAlgorithm *routing,
                     const Simulator &simulator, const InpgConfig &inpg_cfg,
                     const CohConfig &coh_cfg)
    : Router(node_id, noc_cfg, routing, NUM_PORTS + 1),
      brNode(node_id * noc_cfg.concentration), sim(simulator),
      gen(brNode, inpg_cfg, coh_cfg), cohCfg(coh_cfg),
      // Generated packets need ids that cannot collide with the
      // Network's allocator; tag them with the node in the top bits.
      nextGenPacketId((static_cast<PacketId>(node_id) << 40) |
                      (1ULL << 63))
{}

void
BigRouter::onHeadFlitArrived(const FlitPtr &flit, int inport, Cycle now)
{
    (void)inport;
    Packet &pkt = *flit->packet;
    CoherenceMsg &msg = pkt.msg;

    // Relay InvAcks answering our early invalidations toward the home
    // node (header rewrite before route computation).
    if (pkt.dst == brNode && msg.kind == CohMsgKind::InvAck &&
        msg.fromBigRouter) {
        NodeId home = gen.onInvAckArrival(msg, now);
        if (home != INVALID_NODE) {
            pkt.dst = home;
            msg.toDirectory = true;
            ++stats.invAcksRelayed;
            if (Telemetry *t = sim.telemetry(); t && t->recorder) {
                t->recorder->record(FrKind::AckRelay, now, nodeId(),
                                    msg.addr,
                                    static_cast<std::uint64_t>(home));
            }
        }
        return;
    }

    // Stop later GetX[lock] arrivals under an existing barrier.
    if (const CoherenceMsg *inv = gen.onGetXArrival(msg, now)) {
        injectGenerated(
            std::make_shared<Packet>(nextGenPacketId++, brNode,
                                     static_cast<NodeId>(inv->requester),
                                     vnetForKind(inv->kind),
                                     /*num_flits=*/1, *inv),
            now);
        ++stats.earlyInvsInjected;
        if (Telemetry *t = sim.telemetry(); t && t->recorder) {
            t->recorder->record(
                FrKind::BarrierStop, now, nodeId(), msg.addr,
                static_cast<std::uint64_t>(msg.requester));
        }
    }
}

void
BigRouter::onHeadFlitGranted(const FlitPtr &flit, int inport,
                             Direction outport, Cycle now)
{
    (void)inport;
    (void)outport;
    gen.onGetXTransfer(flit->packet->msg, now);
}

void
BigRouter::generatorPhase(Cycle now)
{
    gen.maintain(now);
    Packet *pkt = drainGeneratorQueue(now);
    if (!pkt)
        return;
    // Generated packets bypass the source NI: open their lifetime
    // record here, with this router as the first hop.
    if (Telemetry *t = sim.telemetry(); t && t->packets) {
        t->packets->onPacketQueued(*pkt, now);
        pkt->lifetime->arrive(nodeId(), now);
    }
}

JsonValue
BigRouter::debugJson(Cycle now) const
{
    JsonValue out = Router::debugJson(now);
    out["barriers"] = gen.barrierTable().debugJson(now);
    return out;
}

RouterFactory
makeInpgRouterFactory(const InpgConfig &inpg_cfg, const CohConfig &coh_cfg)
{
    return [inpg_cfg, coh_cfg](NodeId id, const NocConfig &noc_cfg,
                               const RoutingAlgorithm *routing,
                               const Simulator &sim)
               -> std::unique_ptr<Router> {
        CohConfig coh = coh_cfg;
        coh.numNodes = noc_cfg.numNodes();
        if (isBigRouterNode(id, noc_cfg.meshWidth, noc_cfg.meshHeight,
                            inpg_cfg.numBigRouters)) {
            return std::make_unique<BigRouter>(id, noc_cfg, routing, sim,
                                               inpg_cfg, coh);
        }
        return std::make_unique<Router>(id, noc_cfg, routing);
    };
}

} // namespace inpg
