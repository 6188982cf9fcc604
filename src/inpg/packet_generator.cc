#include "inpg/packet_generator.hh"

#include "coh/protocol_tables.hh"
#include "common/logging.hh"
#include "noc/topology.hh"

namespace inpg {

/**
 * Even big-router placement, delegated to the topology layer's
 * evenPlacementSite (count = n/2 yields the interleaved checkerboard
 * of paper Figure 3; other counts spread marks evenly with a
 * Bresenham-style accumulator). `node` is a router-grid site.
 */
bool
isBigRouterNode(NodeId node, int mesh_w, int mesh_h, int count)
{
    return evenPlacementSite(node, mesh_w, mesh_h, count);
}

PacketGenerator::PacketGenerator(NodeId node_id, const InpgConfig &config,
                                 const CohConfig &coh_config)
    : node(node_id), cfg(config), cohCfg(coh_config),
      table(config.barrierEntries, config.eiEntries, config.barrierTtl)
{}

BrState
PacketGenerator::barrierState(Addr addr) const
{
    if (!table.contains(addr))
        return BrState::NoBarrier;
    return table.numEis(addr) == 0 ? BrState::BarrierIdle
                                   : BrState::BarrierArmed;
}

void
PacketGenerator::act(BrEvent ev, CoherenceMsg &msg, Cycle now)
{
    const ProtoTransition &tr = bigRouterProtocolTable().require(
        static_cast<int>(barrierState(msg.addr)), static_cast<int>(ev));
    ProtoOutbox &out = protoOutbox();
    out.clear();
    BarrierRef barrier{table, msg.addr, now};
    brAct(tr, barrier, &msg, node, now, stats, out);
    if (out.fault)
        panic("big router %d: %s for %s", node, out.faultDetail.c_str(),
              msg.toString().c_str());
}

CohMsgPtr
PacketGenerator::onGetXArrival(const CohMsgPtr &msg, Cycle now)
{
    if (msg->kind != CohMsgKind::GetX || !msg->isLock ||
        !msg->isAtomicOp || msg->earlyInvalidated)
        return nullptr;

    // Expire first, so the classification never reports a barrier
    // whose TTL already lapsed.
    table.expire(now);
    act(BrEvent::LockGetXArrival, *msg, now);
    const ProtoOutbox &out = protoOutbox();
    if (out.sends.empty())
        return nullptr;
    return std::make_shared<CoherenceMsg>(out.sends.front().msg);
}

void
PacketGenerator::onGetXTransfer(const CohMsgPtr &msg, Cycle now)
{
    if (msg->kind != CohMsgKind::GetX || !msg->isLock ||
        !msg->isAtomicOp)
        return;

    table.expire(now);
    act(BrEvent::LockGetXTransfer, *msg, now);
}

NodeId
PacketGenerator::onInvAckArrival(const CohMsgPtr &msg, Cycle now)
{
    if (msg->kind != CohMsgKind::InvAck || !msg->fromBigRouter)
        return INVALID_NODE;

    // No expiry here: a barrier whose TTL lapsed this very cycle must
    // still absorb the returning ack exactly as before table dispatch.
    act(BrEvent::EarlyInvAck, *msg, now);

    // The early Inv-Ack round trip closes here, at the generating
    // router; the onward relay to the home only trims the sharer list.
    if (cohStats)
        cohStats->recordInvAckRtt(msg->requester,
                                  now - msg->invGeneratedAt, true);
    return cohCfg.homeOf(msg->addr);
}

} // namespace inpg
