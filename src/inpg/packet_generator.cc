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

CohMsgPtr
PacketGenerator::onGetXArrival(const CohMsgPtr &msg, Cycle now)
{
    if (msg->kind != CohMsgKind::GetX || !msg->isLock ||
        !msg->isAtomicOp || msg->earlyInvalidated)
        return nullptr;

    // Expire first, so the classification never reports a barrier
    // whose TTL already lapsed.
    table.expire(now);
    const ProtoTransition &tr = bigRouterProtocolTable().require(
        static_cast<int>(barrierState(msg->addr)),
        static_cast<int>(BrEvent::LockGetXArrival));

    switch (static_cast<BrAction>(tr.action)) {
      case BrAction::PassThrough:
        return nullptr;
      case BrAction::StopAndInvalidate:
        break;
      default:
        panic("big router %d: table action %d has no dispatch for %s",
              node, tr.action, msg->toString().c_str());
    }

    if (!table.addEi(msg->addr, msg->requester, now))
        return nullptr; // EI list full or duplicate: pass through

    // Stop the request: it continues to the home node as an
    // early-invalidated request (the paper's GetX -> FwdGetX
    // conversion) while we invalidate the failing core right here.
    msg->earlyInvalidated = true;
    msg->fromBigRouter = true;
    ++stats.getxStopped;

    auto inv = std::make_shared<CoherenceMsg>();
    inv->kind = CohMsgKind::Inv;
    inv->addr = msg->addr;
    inv->requester = msg->requester;
    inv->collector = node;
    inv->isLock = true;
    inv->fromBigRouter = true;
    inv->invGeneratedAt = now;
    ++stats.earlyInvsGenerated;
    return inv;
}

void
PacketGenerator::onGetXTransfer(const CohMsgPtr &msg, Cycle now)
{
    if (msg->kind != CohMsgKind::GetX || !msg->isLock ||
        !msg->isAtomicOp)
        return;

    table.expire(now);
    const ProtoTransition &tr = bigRouterProtocolTable().require(
        static_cast<int>(barrierState(msg->addr)),
        static_cast<int>(BrEvent::LockGetXTransfer));

    switch (static_cast<BrAction>(tr.action)) {
      case BrAction::InstallBarrier:
      case BrAction::RefreshBarrier:
        // createBarrier refreshes in place when the barrier already
        // exists; it only fails when the table is full (requests then
        // pass through unshielded).
        if (table.createBarrier(msg->addr, now))
            ++stats.barrierRefreshed;
        return;
      default:
        panic("big router %d: table action %d has no dispatch for %s",
              node, tr.action, msg->toString().c_str());
    }
}

NodeId
PacketGenerator::onInvAckArrival(const CohMsgPtr &msg, Cycle now)
{
    if (msg->kind != CohMsgKind::InvAck || !msg->fromBigRouter)
        return INVALID_NODE;

    // No expiry here: a barrier whose TTL lapsed this very cycle must
    // still absorb the returning ack exactly as before table dispatch.
    const ProtoTransition &tr = bigRouterProtocolTable().require(
        static_cast<int>(barrierState(msg->addr)),
        static_cast<int>(BrEvent::EarlyInvAck));

    switch (static_cast<BrAction>(tr.action)) {
      case BrAction::RelayAndCloseEi:
        // The barrier is armed, but the ack may still be stale when
        // the EI entry belongs to a different core.
        if (table.completeEi(msg->addr, msg->requester, now))
            ++stats.acksRelayed;
        else
            ++stats.acksRelayedStale;
        break;
      case BrAction::RelayStale:
        // Barrier gone (or never armed for this core): relay onward so
        // the home still trims its sharer list, but close nothing.
        ++stats.acksRelayedStale;
        break;
      default:
        panic("big router %d: table action %d has no dispatch for %s",
              node, tr.action, msg->toString().c_str());
    }

    // The early Inv-Ack round trip closes here, at the generating
    // router; the onward relay to the home only trims the sharer list.
    if (cohStats)
        cohStats->recordInvAckRtt(msg->requester,
                                  now - msg->invGeneratedAt, true);
    return cohCfg.homeOf(msg->addr);
}

} // namespace inpg
