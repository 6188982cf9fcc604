/**
 * @file
 * The protocol's row actions, written once.
 *
 * Every legal row of the L1, directory and big-router transition
 * tables (coh/protocol_tables.cc) names an action. The body of each
 * action lives here and nowhere else: the simulator's controllers
 * (L1Controller, Directory, PacketGenerator/LockBarrierTable) call
 * these functions on their real line state, and the model checker
 * (src/verify/model_check.cc) calls the same functions on its
 * abstract state. So the code the checker explores is the code the
 * simulator runs.
 *
 * An action is a function of the dispatched row, a small line-state
 * struct and an outbox. It changes the line state, bumps the
 * controller's counters and appends what it sends to the outbox as
 * plain CoherenceMsg values; the caller turns each entry into a packet
 * (controllers) or into an in-flight abstract message (checker). An
 * action never panics: a message it cannot accept sets the outbox's
 * fault, which a controller turns into a panic and the checker into a
 * violation. Timing, telemetry and NoC sends stay with the callers.
 *
 * Where a row declares a single next state, the action takes the
 * line's next state from the row, so a table edit changes what both
 * the simulator and the checker do.
 */

#ifndef INPG_COH_PROTOCOL_ACTIONS_HH
#define INPG_COH_PROTOCOL_ACTIONS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "coh/coherence_msg.hh"
#include "coh/protocol_tables.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace inpg {

// ---------------------------------------------------------------------
// Shared vocabulary
// ---------------------------------------------------------------------

/** Stable MOESI states of an L1 line (the L1 table's state space). */
enum class L1State {
    I,
    S,
    E,
    M,
    O,
};

/** Name of an L1 state ("I", "S", ...). */
const char *l1StateName(L1State s);

/** Atomic read-modify-write operations supported by the core. */
enum class AtomicOp {
    Swap,     ///< old = line; line = a
    Cas,      ///< old = line; if (old == a) line = b
    FetchAdd, ///< old = line; line = old + a
    FetchOr,  ///< old = line; line = old | a
    FetchAnd, ///< old = line; line = old & a
};

/** Completed-operation record for the golden-model verifier. */
struct OpRecord {
    enum class Kind { Load, Store, Atomic } kind = Kind::Load;
    AtomicOp op = AtomicOp::Swap;
    Addr addr = INVALID_ADDR;
    std::uint64_t operandA = 0;
    std::uint64_t operandB = 0;
    std::uint64_t oldValue = 0;
    std::uint64_t newValue = 0;
    CoreId core = INVALID_CORE;
    Cycle executedAt = 0;
    /** Demoted atomic: observed only, wrote nothing. */
    bool demoted = false;
};

/** Destination meaning "the home node of the message's line". */
inline constexpr NodeId PROTO_HOME = -2;

/** One message an action sends. */
struct ProtoSend {
    CoherenceMsg msg;
    /** Destination node, or PROTO_HOME. */
    NodeId dst = INVALID_NODE;
    /** Row the emission is charged to: the dispatched row, or the
     * arrival row of a forward the L1 served from deferral. */
    const ProtoTransition *row = nullptr;
};

// ---------------------------------------------------------------------
// L1 controller
// ---------------------------------------------------------------------

/** An L1 controller's statistics (snapshot group `l1.N`). */
struct L1Stats : StatGroup {
    Counter atomicsDemoted{*this, "atomics_demoted"};
    Counter forwardsChained{*this, "forwards_chained"};
    Counter forwardsDeferred{*this, "forwards_deferred"};
    Counter fwdGetsServed{*this, "fwd_gets_served"};
    Counter fwdGetxServed{*this, "fwd_getx_served"};
    Counter invAcksCollected{*this, "inv_acks_collected"};
    Counter invOnInvalid{*this, "inv_on_invalid"};
    Counter invalidations{*this, "invalidations"};
    Counter loadHits{*this, "load_hits"};
    Counter loadMisses{*this, "load_misses"};
    Counter lockCohCycles{*this, "lock_coh_cycles"};
    Counter msgsSent{*this, "msgs_sent"};
    Counter opsCompleted{*this, "ops_completed"};
    Counter opsIssued{*this, "ops_issued"};
    Counter preEpochForwardsServed{*this, "pre_epoch_forwards_served"};
    Counter preEpochForwardsServedEarly{*this,
                                        "pre_epoch_forwards_served_early"};
    Counter staleInvOnOwner{*this, "stale_inv_on_owner"};
    Counter writeHits{*this, "write_hits"};
    Counter writeMisses{*this, "write_misses"};
    Counter writeUpgrades{*this, "write_upgrades"};
    Sample loadLatency{*this, "load_latency"};
    Sample lockRmwLatency{*this, "lock_rmw_latency"};
    Sample writeLatency{*this, "write_latency"};
};

/** One cached line. */
struct L1Line {
    L1State state = L1State::I;
    std::uint64_t value = 0;
    /** Node this L1 last surrendered the line to (FwdGetX). */
    NodeId forwardedTo = INVALID_NODE;
};

/**
 * The core's one outstanding operation (IS_D / IM_AD in protocol
 * terms). It stays set from issue until completion; the completing
 * action copies it into `done` and clears `active`.
 */
struct L1Txn {
    bool active = false;
    OpRecord::Kind kind = OpRecord::Kind::Load;
    AtomicOp op = AtomicOp::Swap;
    Addr addr = INVALID_ADDR;
    std::uint64_t operandA = 0;
    std::uint64_t operandB = 0;
    bool isLock = false;
    bool demotable = false;
    bool demoted = false;

    bool exclusive = false; ///< GetX (vs GetS) transaction
    bool hasData = false;
    std::uint64_t data = 0;
    bool hasAckInfo = false;
    int ackCount = 0;
    int acksReceived = 0;
    bool invWhileFilling = false;

    /** Directory serialization point of this GetX, once learned. */
    bool epochKnown = false;
    std::uint64_t myEpoch = 0;
};

/** An owner forward held back behind the pending operation. */
struct DeferredFwd {
    CoherenceMsg msg;
    /** Line state the forward arrived in (its row's state). */
    L1State arrival = L1State::I;
};

/**
 * What one action did. Callers reuse one: clear() keeps the vector's
 * capacity, so dispatch allocates nothing per message.
 */
struct ProtoOutbox {
    std::vector<ProtoSend> sends;

    /** L1 only: the pending operation `done` completed after
     * sends[0, completedAt) and before the rest; NONE otherwise. */
    static constexpr std::size_t NONE = ~std::size_t{0};
    std::size_t completedAt = NONE;
    L1Txn done;
    /** The line's state right after `done` completed. */
    L1State doneState = L1State::I;

    /** Invariant id of a message the action could not accept. */
    const char *fault = nullptr;
    std::string faultDetail;

    /** Bumped by clear(), so a caller can tell whether a dispatch
     * started while it was still reading this outbox. */
    std::uint64_t clears = 0;

    void
    clear()
    {
        sends.clear();
        completedAt = NONE;
        fault = nullptr;
        ++clears;
    }
};

/**
 * The calling thread's outbox, shared by every controller dispatch on
 * that thread. One buffer stays warm in cache where a buffer per
 * controller cost memory and misses. A dispatch consumes it before
 * the next one starts; controllers never dispatch from inside another
 * dispatch (completion callbacks only schedule work).
 */
ProtoOutbox &protoOutbox();

/**
 * One L1's protocol state for one line: the line, the core's pending
 * operation (which may be for another line) and the forwards deferred
 * behind it.
 */
struct L1LineState {
    CoreId core;
    L1Line &line;
    L1Txn &txn;
    std::vector<DeferredFwd> &deferred;
};

/**
 * Run an L1 row. `msg` is the delivered message, or nullptr for the
 * core events (CoreLoad/CoreWrite act on the pending operation).
 * `table` resolves deferred forwards' arrival rows.
 */
void l1Act(const ProtoTableBase &table, const ProtoTransition &row,
           const L1LineState &s, const CoherenceMsg *msg, L1Stats &stats,
           ProtoOutbox &out);

/** The value an operation leaves in the line (its old value when it
 * writes nothing). */
std::uint64_t l1ResultValue(const L1Txn &op);

// ---------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------

/** A directory's statistics (snapshot group `dir.N`). */
struct DirStats : StatGroup {
    Counter coldMisses{*this, "cold_misses"};
    Counter earlyAcks{*this, "early_acks"};
    Counter earlyAcksApplied{*this, "early_acks_applied"};
    Counter earlyAcksOvertaken{*this, "early_acks_overtaken"};
    Counter earlyAcksStale{*this, "early_acks_stale"};
    Counter eiGuardAmbiguous{*this, "ei_guard_ambiguous"};
    Counter exclGrants{*this, "excl_grants"};
    Counter fwdGets{*this, "fwd_gets"};
    Counter fwdGetx{*this, "fwd_getx"};
    Counter gets{*this, "gets"};
    Counter getx{*this, "getx"};
    Counter getxDemotedAtHome{*this, "getx_demoted_at_home"};
    Counter getxDemotedViaOwner{*this, "getx_demoted_via_owner"};
    Counter getxEarlyInvalidated{*this, "getx_early_invalidated"};
    Counter invalidationsSent{*this, "invalidations_sent"};
    Counter msgsDroppedTestknob{*this, "msgs_dropped_testknob"};
    Counter msgsReceived{*this, "msgs_received"};
    Counter msgsSent{*this, "msgs_sent"};
    Counter upgrades{*this, "upgrades"};
    Sample queueDepthAtDequeue{*this, "queue_depth_at_dequeue"};
};

/**
 * Directory knowledge about one line. `CoreSet` is any set of core
 * ids with std::set's insert/erase/count/empty/size/clear and
 * ascending iteration: std::set<CoreId> in the simulator, a bitmask
 * in the model checker.
 */
template <class CoreSet>
struct DirLine {
    std::uint64_t value = 0;
    /** Exclusive/owned holder; INVALID_NODE when none. */
    NodeId owner = INVALID_NODE;
    /** Cores holding shared copies. */
    CoreSet sharers;
    /**
     * Early-invalidation trim guard: core c is in the set while
     * exactly one big-router early-InvAck from c is expected and c
     * has not re-registered at the home since its early-invalidated
     * GetX was served. TrimSharer only applies while the guard holds
     * -- an EI ack overtaken by a newer GetS/demote registration of
     * the same core must not erase the fresh sharer entry. The model
     * checker found that reordering as an SWMR violation; see
     * docs/PROTOCOL.md.
     */
    CoreSet eiPending;
};

/** The directory event a message raises, or -1 for a message the
 * home never serializes (a home-epoch InvAck included). */
inline int
dirEventOf(const CoherenceMsg &m)
{
    switch (m.kind) {
      case CohMsgKind::GetS:
        return static_cast<int>(DirEvent::GetS);
      case CohMsgKind::GetX:
        return static_cast<int>(m.demotable ? DirEvent::GetXDemotable
                                            : DirEvent::GetX);
      case CohMsgKind::InvAck:
        return m.fromBigRouter ? static_cast<int>(DirEvent::EarlyInvAck)
                               : -1;
      default:
        return -1;
    }
}

/** Directory state of a line as seen by one requester. */
template <class CoreSet>
DirState
dirStateOf(const DirLine<CoreSet> &e, CoreId requester)
{
    if (e.owner == INVALID_NODE)
        return e.sharers.empty() ? DirState::Uncached : DirState::Shared;
    return e.owner == requester ? DirState::OwnedSelf : DirState::Owned;
}

/**
 * Run a directory row for one serialized message. `epoch` is the
 * directory's transaction counter; `now` stamps generated Invs.
 */
template <class CoreSet>
void
dirAct(const ProtoTransition &row, DirLine<CoreSet> &e,
       std::uint64_t &epoch, const CoherenceMsg &req, Cycle now,
       DirStats &stats, ProtoOutbox &out)
{
    const CoreId r = req.requester;
    // A message about the requester's line; the reference is valid
    // until the next send.
    auto send = [&](CohMsgKind kind, NodeId dst,
                    std::uint64_t ep) -> CoherenceMsg & {
        ProtoSend &s = out.sends.emplace_back();
        s.msg.kind = kind;
        s.msg.addr = req.addr;
        s.msg.requester = r;
        s.msg.isLock = req.isLock;
        s.msg.epoch = ep;
        s.dst = dst;
        s.row = &row;
        return s.msg;
    };
    // A fresh sharer registration invalidates any EI ack in flight.
    auto share = [&] {
        e.sharers.insert(r);
        e.eiPending.erase(r);
    };
    // Ownership moves to the requester; the other copies die, their
    // acks collected by the requester.
    auto invalidate = [&](const CoreSet &targets, std::uint64_t ep) {
        for (CoreId c : targets) {
            CoherenceMsg &inv = send(CohMsgKind::Inv, c, ep);
            inv.requester = c;
            inv.collector = r;
            inv.invGeneratedAt = now;
            ++stats.invalidationsSent;
        }
    };
    auto grant = [&] {
        e.owner = r;
        e.sharers.clear();
    };
    auto othersThan = [&](NodeId spare) {
        CoreSet others = e.sharers;
        others.erase(r);
        others.erase(spare);
        return others;
    };

    switch (static_cast<DirAction>(row.action)) {
      case DirAction::GrantExclusive:
        // Uncached read: grant exclusivity (MOESI E state).
        e.owner = r;
        send(CohMsgKind::DataExcl, r, 0).value = e.value;
        ++stats.exclGrants;
        break;
      case DirAction::AnswerShared:
        share();
        send(CohMsgKind::Data, r, 0).value = e.value;
        break;
      case DirAction::ForwardGetS:
        // Owner supplies the data; it transitions M/E/O -> O.
        share();
        send(CohMsgKind::FwdGetS, e.owner, epoch);
        ++stats.fwdGets;
        break;
      case DirAction::DemoteViaOwner:
        // Demotable lock acquire while another core owns the line: the
        // owner supplies a shared copy; no ownership transfer, no
        // invalidations, no ack storm.
        ++stats.getxDemotedViaOwner;
        share();
        send(CohMsgKind::FwdGetS, e.owner, epoch).demoted = true;
        break;
      case DirAction::DemoteOrGrant:
        // The home holds the line: demote only while the lock reads
        // held; a free lock falls through to the full exclusive grant
        // so the acquire can actually write (paper Fig. 4 Step 4).
        if (e.value != 0) {
            ++stats.getxDemotedAtHome;
            share();
            CoherenceMsg &data = send(CohMsgKind::Data, r, 0);
            data.value = e.value;
            data.demoted = true;
            break;
        }
        [[fallthrough]];
      case DirAction::InvalidateAndGrant: {
        // No owner: the home supplies data; invalidate other sharers.
        const CoreSet others = othersThan(INVALID_NODE);
        const std::uint64_t ep = ++epoch;
        invalidate(others, ep);
        CoherenceMsg &data = send(CohMsgKind::DataExcl, r, ep);
        data.value = e.value;
        data.ackCount = static_cast<int>(others.size());
        grant();
        break;
      }
      case DirAction::ForwardGetX: {
        const CoreSet others = othersThan(e.owner);
        const std::uint64_t ep = ++epoch;
        send(CohMsgKind::FwdGetX, e.owner, ep);
        ++stats.fwdGetx;
        send(CohMsgKind::AckCount, r, ep).ackCount =
            static_cast<int>(others.size());
        invalidate(others, ep);
        grant();
        break;
      }
      case DirAction::OwnerUpgrade: {
        // Upgrade from O: the requester already holds the data.
        const CoreSet others = othersThan(INVALID_NODE);
        const std::uint64_t ep = ++epoch;
        CoherenceMsg &ack = send(CohMsgKind::AckCount, r, ep);
        ack.ackCount = static_cast<int>(others.size());
        ack.ownerUpgrade = true;
        ++stats.upgrades;
        invalidate(others, ep);
        grant();
        break;
      }
      case DirAction::TrimSharer:
        // The acking core's shared copy is gone; if it was still
        // recorded as a sharer, the next GetX no longer needs to
        // invalidate it. Guarded: an ack that was overtaken by a newer
        // registration of the same core (its GetS beat the relayed ack
        // home) must be ignored, or the next Inv storm would skip a
        // live copy.
        if (!e.eiPending.erase(r))
            ++stats.earlyAcksOvertaken;
        else if (e.sharers.erase(r))
            ++stats.earlyAcksApplied;
        else
            ++stats.earlyAcksStale;
        return;
      default:
        out.fault = "bad-action";
        out.faultDetail = "directory row action " +
                          std::to_string(row.action) + " has no body";
        return;
    }

    // Arm the trim guard only after the action ran: the marked GetX's
    // own demote registration belongs to the same transaction, not a
    // newer one. A second early-invalidated GetX from a core whose ack
    // is still in flight is ambiguous -- forgo both trims (the trim is
    // an optimization; skipping it only costs one redundant Inv/Ack
    // round trip later).
    if (req.kind == CohMsgKind::GetX && req.earlyInvalidated) {
        if (e.eiPending.erase(r))
            ++stats.eiGuardAmbiguous;
        else
            e.eiPending.insert(r);
    }
}

// ---------------------------------------------------------------------
// iNPG big router
// ---------------------------------------------------------------------

/** A packet generator's statistics (snapshot group `inpg.gen.N`). */
struct PacketGenStats : StatGroup {
    Counter acksRelayed{*this, "acks_relayed"};
    Counter acksRelayedStale{*this, "acks_relayed_stale"};
    Counter barrierRefreshed{*this, "barrier_refreshed"};
    Counter earlyInvsGenerated{*this, "early_invs_generated"};
    Counter getxStopped{*this, "getx_stopped"};
};

/** Run a TtlExpire row: false when its action reclaims nothing. */
template <class Barrier>
bool
brExpire(const ProtoTransition &row, Barrier &b)
{
    if (static_cast<BrAction>(row.action) != BrAction::ExpireBarrier)
        return false;
    b.dropBarrier();
    return true;
}

/**
 * Run a big-router barrier row for one lock address. `Barrier` is the
 * address's barrier plus EI list: LockBarrierTable behind an adapter
 * in the simulator, a flag and a bitmask in the model checker. It
 * provides
 *   bool addEi(CoreId)      open an EI entry (false: full/duplicate);
 *   bool createBarrier()    install or refresh (false: table full);
 *   bool completeEi(CoreId) close an EI entry (false: none open);
 *   void dropBarrier()      TTL reclaim.
 * `msg` is the GetX[lock] (LockGetXArrival marks it stopped in place)
 * or the early InvAck; nullptr for TtlExpire. `self` is the router's
 * node, the collector of the early Invs it generates.
 */
template <class Barrier>
void
brAct(const ProtoTransition &row, Barrier &b, CoherenceMsg *msg,
      NodeId self, Cycle now, PacketGenStats &stats, ProtoOutbox &out)
{
    switch (static_cast<BrAction>(row.action)) {
      case BrAction::PassThrough:
        return;
      case BrAction::StopAndInvalidate: {
        if (!b.addEi(msg->requester))
            return; // EI list full or duplicate: pass through
        // Stop the request: it continues to the home node as an
        // early-invalidated request (the paper's GetX -> FwdGetX
        // conversion) while the failing core is invalidated here.
        msg->earlyInvalidated = true;
        msg->fromBigRouter = true;
        ++stats.getxStopped;
        ProtoSend &inv = out.sends.emplace_back();
        inv.msg.kind = CohMsgKind::Inv;
        inv.msg.addr = msg->addr;
        inv.msg.requester = msg->requester;
        inv.msg.collector = self;
        inv.msg.isLock = true;
        inv.msg.fromBigRouter = true;
        inv.msg.invGeneratedAt = now;
        inv.dst = msg->requester;
        inv.row = &row;
        ++stats.earlyInvsGenerated;
        return;
      }
      case BrAction::InstallBarrier:
      case BrAction::RefreshBarrier:
        // createBarrier refreshes in place when the barrier already
        // exists; it only fails when the table is full (requests then
        // pass through unshielded).
        if (b.createBarrier())
            ++stats.barrierRefreshed;
        return;
      case BrAction::RelayAndCloseEi:
        // The barrier is armed, but the ack may still be stale when
        // the EI entry belongs to a different core.
        if (b.completeEi(msg->requester))
            ++stats.acksRelayed;
        else
            ++stats.acksRelayedStale;
        out.sends.push_back({*msg, PROTO_HOME, &row});
        return;
      case BrAction::RelayStale:
        // Barrier gone (or never armed for this core): relay onward so
        // the home still trims its sharer list, but close nothing.
        ++stats.acksRelayedStale;
        out.sends.push_back({*msg, PROTO_HOME, &row});
        return;
      case BrAction::ExpireBarrier:
        brExpire(row, b);
        return;
    }
    out.fault = "bad-action";
    out.faultDetail =
        "big-router row action " + std::to_string(row.action) +
        " has no body";
}

} // namespace inpg

#endif // INPG_COH_PROTOCOL_ACTIONS_HH
