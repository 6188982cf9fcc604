#include "coh/protocol_actions.hh"

#include <algorithm>
#include <cstdarg>

#include "common/logging.hh"

namespace inpg {

// The declarative table (coh/protocol_tables.cc) is keyed by the int
// values of L1State; pin the correspondence.
static_assert(static_cast<int>(L1State::I) == 0 &&
                  static_cast<int>(L1State::S) == 1 &&
                  static_cast<int>(L1State::E) == 2 &&
                  static_cast<int>(L1State::M) == 3 &&
                  static_cast<int>(L1State::O) == 4 &&
                  L1_NUM_STATES == 5,
              "L1State layout must match the protocol table");

const char *
l1StateName(L1State s)
{
    return l1TableStateName(static_cast<int>(s));
}

ProtoOutbox &
protoOutbox()
{
    static thread_local ProtoOutbox out;
    return out;
}

std::uint64_t
l1ResultValue(const L1Txn &op)
{
    if (op.demoted)
        return op.data;
    switch (op.kind) {
      case OpRecord::Kind::Load:
        return op.data;
      case OpRecord::Kind::Store:
        return op.operandA;
      case OpRecord::Kind::Atomic:
        break;
    }
    switch (op.op) {
      case AtomicOp::Swap:
        return op.operandA;
      case AtomicOp::Cas:
        return op.data == op.operandA ? op.operandB : op.data;
      case AtomicOp::FetchAdd:
        return op.data + op.operandA;
      case AtomicOp::FetchOr:
        return op.data | op.operandA;
      case AtomicOp::FetchAnd:
        return op.data & op.operandA;
    }
    return op.data;
}

namespace {

bool
ownsLine(L1State s)
{
    return s == L1State::M || s == L1State::E || s == L1State::O;
}

/** One L1 action's context: the methods mirror the protocol steps. */
class L1Run
{
  public:
    L1Run(const ProtoTableBase &l1_table, const L1LineState &state,
          L1Stats &counters, ProtoOutbox &outbox)
        : table(l1_table), s(state), stats(counters), out(outbox)
    {}

    void
    run(const ProtoTransition &row, const CoherenceMsg *msg)
    {
        switch (static_cast<L1Action>(row.action)) {
          case L1Action::LoadHit:
            ++stats.loadHits;
            hit(row);
            return;
          case L1Action::WriteHit:
            ++stats.writeHits;
            hit(row);
            return;
          case L1Action::BeginLoadMiss:
            ++stats.loadMisses;
            s.txn.exclusive = false;
            beginMiss(row);
            return;
          case L1Action::BeginUpgrade:
            // Upgrade attempt. Whether this serializes as an upgrade
            // (we keep the data) or as a chain GetX (an earlier-
            // serialized FwdGetX takes our copy first) is only known
            // when the home answers; capture no data here. The request
            // must NOT be demotable: a demoted transaction never learns
            // its epoch, so an owner with one pending could hold
            // deferred forwards forever and deadlock the chain.
            ++stats.writeUpgrades;
            s.txn.exclusive = true;
            s.txn.demotable = false;
            beginMiss(row);
            return;
          case L1Action::BeginWriteMiss:
            ++stats.writeMisses;
            s.txn.exclusive = true;
            beginMiss(row);
            return;
          case L1Action::AckInvalid:
            // Already invalid: either an early (big-router)
            // invalidation of a copy we no longer hold, or a home
            // invalidation racing an early one. Acking is idempotent
            // and required for accounting.
            ++stats.invOnInvalid;
            invalidate(row, *msg);
            return;
          case L1Action::InvalidateAndAck:
            ++stats.invalidations;
            invalidate(row, *msg);
            return;
          case L1Action::AckStaleInv:
            // A stale invalidation targeting a shared copy we have
            // since upgraded past: the S copy it aimed at is already
            // gone (our own GetX consumed it). Keep the line, ack.
            ++stats.staleInvOnOwner;
            invalidate(row, *msg);
            return;
          case L1Action::ServeFwdGetS:
          case L1Action::ServeFwdGetX:
          case L1Action::ChainForward:
            forward(row, *msg);
            return;
          case L1Action::FillShared:
            fillShared(*msg);
            return;
          case L1Action::FillExclusive:
            fillExclusive(*msg);
            return;
          case L1Action::CollectAckInfo:
            collectAckInfo(*msg);
            return;
          case L1Action::CollectInvAck:
            collectInvAck(*msg);
            return;
        }
        fail("bad-action", "L1 row action %d has no body", row.action);
    }

  private:
    const ProtoTableBase &table;
    const L1LineState &s;
    L1Stats &stats;
    ProtoOutbox &out;

    void
    fail(const char *invariant, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)))
    {
        if (out.fault)
            return;
        va_list ap;
        va_start(ap, fmt);
        out.fault = invariant;
        out.faultDetail = vformat(fmt, ap);
        va_end(ap);
    }

    bool
    pendingOn(Addr addr) const
    {
        return s.txn.active && s.txn.addr == addr;
    }

    /** Table-driven next state: a row with one declared next moves
     * the line there; richer rows leave the choice to the action. */
    void
    takeNext(const ProtoTransition &row)
    {
        if (row.nexts.size() == 1)
            s.line.state = static_cast<L1State>(row.nexts[0]);
    }

    void
    send(const CoherenceMsg &m, NodeId dst, const ProtoTransition *row)
    {
        ProtoSend &e = out.sends.emplace_back();
        e.msg = m;
        e.dst = dst;
        e.row = row;
    }

    void
    hit(const ProtoTransition &row)
    {
        takeNext(row);
        s.txn.hasData = true;
        s.txn.data = s.line.value;
        execute();
    }

    void
    beginMiss(const ProtoTransition &row)
    {
        takeNext(row);
        CoherenceMsg m;
        m.kind = s.txn.exclusive ? CohMsgKind::GetX : CohMsgKind::GetS;
        m.addr = s.txn.addr;
        m.requester = s.core;
        m.isLock = s.txn.isLock;
        m.demotable = s.txn.exclusive && s.txn.demotable;
        m.isAtomicOp = s.txn.kind == OpRecord::Kind::Atomic;
        m.toDirectory = true;
        send(m, PROTO_HOME, &row);
    }

    void
    invalidate(const ProtoTransition &row, const CoherenceMsg &inv)
    {
        takeNext(row);
        // A fill in flight loses its right to keep the incoming shared
        // copy (reads, and demoted atomics racing a late early-Inv).
        if (pendingOn(inv.addr))
            s.txn.invWhileFilling = true;
        CoherenceMsg ack;
        ack.kind = CohMsgKind::InvAck;
        ack.addr = inv.addr;
        ack.requester = s.core;
        ack.collector = inv.collector;
        ack.isLock = inv.isLock;
        ack.fromBigRouter = inv.fromBigRouter;
        ack.invGeneratedAt = inv.invGeneratedAt;
        ack.epoch = inv.epoch;
        // Early acks are consumed by the home after the big-router
        // relay; home-epoch acks go straight to the collecting winner.
        ack.toDirectory = false;
        send(ack, inv.collector, &row);
    }

    void
    forward(const ProtoTransition &row, const CoherenceMsg &fwd)
    {
        // While a transaction on this line is outstanding, forwards are
        // held back and dispatched when ordering is known: pre-epoch
        // ones observe the pre-operation value (served straight away
        // when we still hold that copy in M/E/O -- deferring a
        // pre-epoch FwdGetX there would deadlock the ownership chain),
        // post-epoch ones the result.
        const bool deferNow =
            pendingOn(fwd.addr) &&
            !(s.txn.epochKnown && fwd.epoch < s.txn.myEpoch &&
              ownsLine(s.line.state));
        if (!deferNow) {
            serveForward(fwd, &row);
            return;
        }
        s.deferred.push_back({fwd, s.line.state});
        ++stats.forwardsDeferred;
    }

    /** Serve (or chain-relay) a forward, charged to `row`. */
    void
    serveForward(const CoherenceMsg &fwd, const ProtoTransition *row)
    {
        if (ownsLine(s.line.state)) {
            CoherenceMsg data;
            data.addr = fwd.addr;
            data.requester = fwd.requester;
            data.value = s.line.value;
            data.isLock = fwd.isLock;
            data.epoch = fwd.epoch;
            if (fwd.kind == CohMsgKind::FwdGetS) {
                s.line.state = L1State::O;
                data.kind = CohMsgKind::Data;
                data.demoted = fwd.demoted;
                ++stats.fwdGetsServed;
            } else {
                data.kind = CohMsgKind::DataExcl;
                data.ackCount = -1; // ack info comes from the home
                s.line.state = L1State::I;
                s.line.forwardedTo = fwd.requester;
                ++stats.fwdGetxServed;
            }
            send(data, fwd.requester, row);
            return;
        }
        // The line moved on before this (reordered) forward arrived or
        // was released from deferral; chase the ownership chain.
        if (s.line.forwardedTo == INVALID_NODE) {
            fail("chain-broken", "core %d cannot re-forward %s", s.core,
                 fwd.toString().c_str());
            return;
        }
        send(fwd, s.line.forwardedTo, row);
        ++stats.forwardsChained;
    }

    /** Serve a forward deferred under its arrival row `row`: the line
     * must end in one of that row's declared next states. */
    void
    serveDeferredForward(const CoherenceMsg &fwd, const ProtoTransition *row)
    {
        serveForward(fwd, row);
        if (out.fault || !row)
            return;
        const std::vector<int> &nexts = row->nexts;
        if (std::find(nexts.begin(), nexts.end(),
                      static_cast<int>(s.line.state)) == nexts.end())
            fail("undeclared-next",
                 "core %d ended in %s serving a forward deferred at l1 "
                 "row (%s, %s)",
                 s.core, l1StateName(s.line.state),
                 table.stateName(row->state), table.eventName(row->event));
    }

    /** How many deferred forwards precede `epoch`, after sorting the
     * list into epoch order. */
    std::size_t
    preEpoch(std::uint64_t epoch)
    {
        std::stable_sort(s.deferred.begin(), s.deferred.end(),
                         [](const DeferredFwd &a, const DeferredFwd &b) {
                             return a.msg.epoch < b.msg.epoch;
                         });
        std::size_t n = 0;
        while (n < s.deferred.size() && s.deferred[n].msg.epoch < epoch)
            ++n;
        return n;
    }

    /** Serve the first `n` deferred forwards in order, each charged to
     * its arrival row, and drop them from the list. */
    void
    serveDeferred(std::size_t n)
    {
        for (std::size_t i = 0; i < n && !out.fault; ++i) {
            const DeferredFwd &d = s.deferred[i];
            serveDeferredForward(
                d.msg, table.find(static_cast<int>(d.arrival),
                                  static_cast<int>(
                                      l1EventForMsgKind(d.msg.kind))));
        }
        s.deferred.erase(s.deferred.begin(),
                         s.deferred.begin() + static_cast<long>(n));
    }

    /** A response to the pending operation on this line, when `ok`. */
    bool
    expect(const CoherenceMsg &m, bool ok, const char *invariant)
    {
        if (pendingOn(m.addr) && ok)
            return true;
        fail(invariant, "core %d got unexpected %s", s.core,
             m.toString().c_str());
        return false;
    }

    /** Record the ack total the home announced. */
    bool
    takeAckCount(int count)
    {
        if (s.txn.hasAckInfo) {
            fail("duplicate-ack-info", "core %d got duplicate ack info",
                 s.core);
            return false;
        }
        s.txn.hasAckInfo = true;
        s.txn.ackCount = count;
        return true;
    }

    void
    fillShared(const CoherenceMsg &m)
    {
        if (!expect(m, !s.txn.exclusive || m.demoted, "unexpected-data"))
            return;
        s.txn.hasData = true;
        s.txn.data = m.value;
        s.txn.demoted = m.demoted;
        if (!s.txn.invWhileFilling) {
            // Shared fill; a demoted lock acquire keeps the valid copy
            // so the thread can spin locally (paper Fig. 4 Step 4).
            s.line.value = m.value;
            s.line.state = L1State::S;
        }
        execute();
    }

    void
    fillExclusive(const CoherenceMsg &m)
    {
        if (!expect(m, true, "unexpected-data"))
            return;
        s.txn.hasData = true;
        s.txn.data = m.value;
        if (!s.txn.exclusive) {
            // GetS answered exclusively: no other copy exists.
            if (m.ackCount != 0) {
                fail("read-with-acks",
                     "core %d: DataExcl for a read carries %d acks",
                     s.core, m.ackCount);
                return;
            }
            s.line.value = m.value;
            s.line.state = L1State::E;
            execute();
            return;
        }
        // Data supplied by the home carries the ack count along.
        if (m.ackCount >= 0 && !takeAckCount(m.ackCount))
            return;
        learnEpoch(m.epoch);
        maybeCompleteExclusive();
    }

    void
    collectAckInfo(const CoherenceMsg &m)
    {
        if (!expect(m, s.txn.exclusive, "stray-ackcount") ||
            !takeAckCount(m.ackCount))
            return;
        if (m.ownerUpgrade) {
            // The home serialized us as an O-state upgrade: no data
            // response follows; our resident copy is the value. The
            // line must still be in O -- forwards are deferred while we
            // are pending and only same-epoch-or-later ones can exist.
            if (s.line.state != L1State::O) {
                fail("upgrade-not-owner", "core %d upgrade-acked in state %s",
                     s.core, l1StateName(s.line.state));
                return;
            }
            s.txn.hasData = true;
            s.txn.data = s.line.value;
        }
        learnEpoch(m.epoch);
        maybeCompleteExclusive();
    }

    void
    collectInvAck(const CoherenceMsg &m)
    {
        if (!expect(m, s.txn.exclusive, "stray-invack"))
            return;
        ++s.txn.acksReceived;
        ++stats.invAcksCollected;
        maybeCompleteExclusive();
    }

    void
    learnEpoch(std::uint64_t epoch)
    {
        if (out.fault || !s.txn.exclusive || s.txn.epochKnown)
            return;
        s.txn.epochKnown = true;
        s.txn.myEpoch = epoch;
        // If we still hold the pre-transaction copy (O-state upgrade
        // that serialized behind other writers), serve the pre-epoch
        // forwards from it now: their requesters precede us in the
        // ownership chain and a deferred pre-epoch FwdGetX would
        // deadlock it. In the chain case (no resident copy) pre-epoch
        // FwdGetS entries wait for the provisional fill at completion,
        // and pre-epoch FwdGetX cannot exist.
        if (!ownsLine(s.line.state))
            return;
        const std::size_t n = preEpoch(epoch);
        serveDeferred(n);
        stats.preEpochForwardsServedEarly += n;
    }

    void
    maybeCompleteExclusive()
    {
        if (!out.fault && s.txn.hasAckInfo &&
            s.txn.acksReceived > s.txn.ackCount) {
            fail("over-collected", "core %d over-collected acks (%d of %d)",
                 s.core, s.txn.acksReceived, s.txn.ackCount);
            return;
        }
        if (!out.fault && s.txn.hasData && s.txn.hasAckInfo &&
            s.txn.acksReceived == s.txn.ackCount)
            execute();
    }

    /** Complete the pending operation, then serve what it deferred. */
    void
    execute()
    {
        L1Txn &op = out.done;
        op = s.txn;
        s.txn.active = false;
        ++stats.opsCompleted;

        if (op.exclusive && op.epochKnown && !s.deferred.empty()) {
            // Forwards serialized before our own GetX must observe the
            // pre-operation value: apply the fill provisionally and
            // serve them first (epoch order). Their targets'
            // invalidations are already counted in our ackCount, so no
            // stale copy survives our write. A pre-epoch FwdGetX cannot
            // be deferred here (the previous tenure must have ended for
            // this GetX to exist), so the line stays ours.
            const std::size_t n = preEpoch(op.myEpoch);
            s.line.value = op.data;
            s.line.state = L1State::M;
            for (std::size_t i = 0; i < n; ++i) {
                const CoherenceMsg &fwd = s.deferred[i].msg;
                if (fwd.kind != CohMsgKind::FwdGetS) {
                    fail("pre-epoch-fwdgetx", "core %d: pre-epoch %s deferred",
                         s.core, fwd.toString().c_str());
                    return;
                }
            }
            serveDeferred(n);
            stats.preEpochForwardsServed += n;
        }

        if (op.demoted) {
            // Demoted atomic: the value was observed via a shared copy
            // and nothing was written (the fill installed the S copy).
            ++stats.atomicsDemoted;
        } else if (op.kind != OpRecord::Kind::Load) {
            s.line.value = l1ResultValue(op);
            s.line.state = L1State::M;
        }
        // A load that was invalidated while filling consumes the value
        // without keeping a copy; the fill left the line in I then.
        out.completedAt = out.sends.size();
        out.doneState = s.line.state;

        // Serve the remaining (post-epoch) deferred forwards.
        serveDeferred(s.deferred.size());
    }
};

} // namespace

void
l1Act(const ProtoTableBase &table, const ProtoTransition &row,
      const L1LineState &s, const CoherenceMsg *msg, L1Stats &stats,
      ProtoOutbox &out)
{
    L1Run(table, s, stats, out).run(row, msg);
}

} // namespace inpg
