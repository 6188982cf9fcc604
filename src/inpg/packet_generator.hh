/**
 * @file
 * The packet generator of a big router: protocol-side decisions of
 * iNPG, separated from the router pipeline for unit testing.
 */

#ifndef INPG_INPG_PACKET_GENERATOR_HH
#define INPG_INPG_PACKET_GENERATOR_HH

#include "coh/coh_config.hh"
#include "coh/coh_stats.hh"
#include "coh/coherence_msg.hh"
#include "coh/protocol_actions.hh"
#include "coh/protocol_tables.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "inpg/inpg_config.hh"
#include "inpg/lock_barrier_table.hh"

namespace inpg {

/**
 * Implements the barrier/EI protocol of paper Section 4.1:
 * - the first transferred GetX[lock] installs a barrier;
 * - later GetX[lock] arrivals under a barrier are stopped: converted to
 *   early-invalidated requests while the generator emits an early Inv
 *   to the failing core;
 * - returning InvAcks are relayed to the home node and close their EI
 *   entry.
 */
class PacketGenerator
{
  public:
    PacketGenerator(NodeId node_id, const InpgConfig &cfg,
                    const CohConfig &coh_cfg);

    /**
     * Evaluate an arriving GetX[lock] head flit. When the request is
     * stopped, `msg` is mutated in place (earlyInvalidated) and the
     * early Inv message to inject is returned; nullptr otherwise.
     */
    CohMsgPtr onGetXArrival(const CohMsgPtr &msg, Cycle now);

    /** Observe a GetX[lock] transfer (ST): installs the barrier. */
    void onGetXTransfer(const CohMsgPtr &msg, Cycle now);

    /**
     * Evaluate an InvAck addressed to this router. Closes the EI entry
     * and redirects the ack to the home node.
     * @return the home node to forward to, or INVALID_NODE to ignore.
     */
    NodeId onInvAckArrival(const CohMsgPtr &msg, Cycle now);

    /** Per-cycle maintenance (TTL expiry). */
    void maintain(Cycle now) { table.expire(now); }

    /** Attach the shared coherence statistics sink (RTT samples). */
    void setCohStats(CohStats *stats_sink) { cohStats = stats_sink; }

    const LockBarrierTable &barrierTable() const { return table; }

    PacketGenStats stats;

  private:
    /** Classify the barrier FSM state for a lock address (no expiry). */
    BrState barrierState(Addr addr) const;

    /** Run `msg`'s barrier row; its sends land in protoOutbox(). */
    void act(BrEvent ev, CoherenceMsg &msg, Cycle now);

    NodeId node;
    InpgConfig cfg;
    CohConfig cohCfg;
    CohStats *cohStats = nullptr;
    LockBarrierTable table;
};

} // namespace inpg

#endif // INPG_INPG_PACKET_GENERATOR_HH
