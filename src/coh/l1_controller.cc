#include "coh/l1_controller.hh"

#include "coh/protocol_tables.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

L1Controller::L1Controller(CoreId core_id, NodeId node_id,
                           const CohConfig &config, Network &network,
                           Simulator &simulator, CohStats *coh_stats)
    : core(core_id), node(node_id), cfg(config), net(network),
      sim(simulator), cohStats(coh_stats)
{}

L1Line &
L1Controller::line(Addr addr)
{
    const Addr base = cfg.lineBase(addr);
    return lines[base];
}

const L1Line *
L1Controller::findLine(Addr addr) const
{
    const Addr base = cfg.lineBase(addr);
    return lines.find(base);
}

L1State
L1Controller::lineState(Addr addr) const
{
    const L1Line *l = findLine(addr);
    return l ? l->state : L1State::I;
}

std::uint64_t
L1Controller::lineValue(Addr addr) const
{
    const L1Line *l = findLine(addr);
    INPG_ASSERT(l && l->state != L1State::I,
                "reading value of invalid line 0x%llx",
                static_cast<unsigned long long>(addr));
    return l->value;
}

void
L1Controller::issueLoad(Addr addr, bool is_lock, Completion done_fn)
{
    L1Txn op;
    op.kind = OpRecord::Kind::Load;
    op.addr = cfg.lineBase(addr);
    op.isLock = is_lock;
    startOperation(op, std::move(done_fn), nullptr);
}

void
L1Controller::issueStore(Addr addr, std::uint64_t value, bool is_lock,
                         Completion done_fn)
{
    L1Txn op;
    op.kind = OpRecord::Kind::Store;
    op.addr = cfg.lineBase(addr);
    op.operandA = value;
    op.isLock = is_lock;
    startOperation(op, std::move(done_fn), nullptr);
}

void
L1Controller::issueAtomic(Addr addr, AtomicOp atomic_op, std::uint64_t a,
                          std::uint64_t b, bool is_lock,
                          AtomicCompletion done_fn, bool demotable)
{
    L1Txn op;
    op.kind = OpRecord::Kind::Atomic;
    op.op = atomic_op;
    op.addr = cfg.lineBase(addr);
    op.operandA = a;
    op.operandB = b;
    op.isLock = is_lock;
    // Only failure-idempotent ops may be demoted.
    op.demotable = demotable &&
        (atomic_op == AtomicOp::Swap || atomic_op == AtomicOp::Cas);
    startOperation(op, nullptr, std::move(done_fn));
}

void
L1Controller::startOperation(const L1Txn &op, Completion done_fn,
                             AtomicCompletion atomic_done)
{
    INPG_ASSERT(!txn.active,
                "core %d issued an op while one is outstanding", core);
    txn = op;
    txn.active = true;
    done = std::move(done_fn);
    atomicDone = std::move(atomic_done);
    issuedAt = sim.now();
    ++stats.opsIssued;
    if (LcoTracker *lco = lcoOf(sim.telemetry()))
        lco->opIssued(core, issuedAt);
    // The L1 array access takes l1Latency cycles; hit/miss is decided
    // when it completes (the line may change state in between).
    sim.scheduleIn(cfg.l1Latency, [this] {
        INPG_ASSERT(txn.active, "L1 latency event with no pending op");
        issueAfterL1Latency();
    });
}

void
L1Controller::issueAfterL1Latency()
{
    // Table dispatch: the declarative MOESI table names the action for
    // this (line state, core event) pair; an undeclared pair panics
    // with the precise coordinates.
    const L1Line &l = line(txn.addr);
    const L1Event ev = txn.kind == OpRecord::Kind::Load
                           ? L1Event::CoreLoad
                           : L1Event::CoreWrite;
    dispatch(l1ProtocolTable().require(static_cast<int>(l.state),
                                       static_cast<int>(ev)),
             nullptr, sim.now());
}

void
L1Controller::receiveMessage(const CoherenceMsg &msg, Cycle now)
{
    // Table dispatch: classify the message onto the L1 event space
    // (GetS/GetX panic there -- they never target an L1) and require a
    // declared-legal transition for the current stable line state. A
    // pair the table marks illegal panics with the declared reason
    // instead of tripping a downstream assertion or hanging.
    const L1Event ev = l1EventForMsgKind(msg.kind);
    const int st = static_cast<int>(lineState(msg.addr));
    const ProtoTransition &tr =
        l1ProtocolTable().require(st, static_cast<int>(ev));

    Telemetry *t = sim.telemetry();
    if (t && t->recorder) {
        // Static table/state/event names; stored by pointer.
        t->recorder->record(FrKind::ProtoDispatch, now, node, msg.addr,
                            static_cast<std::uint64_t>(core), "l1",
                            l1TableStateName(st),
                            l1EventName(static_cast<int>(ev)));
    }
    LcoTracker *lco = lcoOf(t);
    switch (ev) {
      case L1Event::Inv:
        if (lco && msg.fromBigRouter)
            lco->earlyInvSeen(msg.requester);
        break;
      case L1Event::Data:
      case L1Event::DataExcl:
      case L1Event::AckCount:
        if (lco)
            lco->responseArrived(core, now);
        break;
      case L1Event::InvAck:
        if (cohStats)
            cohStats->recordInvAckRtt(msg.requester,
                                      now - msg.invGeneratedAt,
                                      msg.fromBigRouter);
        if (lco)
            lco->invAckArrived(core, now, msg.fromBigRouter);
        break;
      default:
        break;
    }
    dispatch(tr, &msg, now);
}

void
L1Controller::dispatch(const ProtoTransition &row, const CoherenceMsg *msg,
                       Cycle now)
{
    ProtoOutbox &out = protoOutbox();
    out.clear();
    L1Line &l = line(msg ? msg->addr : txn.addr);
    l1Act(l1ProtocolTable(), row, {core, l, txn, deferredForwards}, msg,
          stats, out);
    if (out.fault)
        panic("L1 %d: %s", core, out.faultDetail.c_str());
    // Packets leave in the order the action sent them, with the core's
    // completion between the messages sent before it and the deferred
    // forwards it released. The action has run to its end by then: a
    // completion callback sees the line as those forwards left it,
    // which may differ from out.doneState, and no deferred forwards.
    const std::uint64_t clears = out.clears;
    for (std::size_t i = 0; i <= out.sends.size(); ++i) {
        if (i == out.completedAt) {
            complete(out.done, now);
            INPG_ASSERT(out.clears == clears,
                        "L1 %d: a completion callback dispatched a "
                        "protocol action", core);
        }
        if (i < out.sends.size())
            send(out.sends[i], now);
    }
}

void
L1Controller::complete(const L1Txn &op, Cycle now)
{
    if (LcoTracker *lco = lcoOf(sim.telemetry()))
        lco->opCompleted(core, now);

    OpRecord rec;
    rec.kind = op.kind;
    rec.op = op.op;
    rec.addr = op.addr;
    rec.operandA = op.operandA;
    rec.operandB = op.operandB;
    rec.core = core;
    rec.executedAt = now;
    rec.oldValue = op.data;
    rec.newValue = l1ResultValue(op);
    rec.demoted = op.demoted;

    if (!op.demoted) {
        const double latency = static_cast<double>(now - issuedAt);
        if (op.kind != OpRecord::Kind::Load) {
            stats.writeLatency.add(latency);
            if (op.isLock)
                stats.lockRmwLatency.add(latency);
        } else {
            stats.loadLatency.add(latency);
        }
        // Lock coherence overhead (paper Fig. 2): cycles a lock-variable
        // operation spent in the coherence protocol beyond the plain L1
        // access -- the time invalidations, forwards, data responses
        // and acks kept the thread from progressing.
        if (op.isLock && now - issuedAt > cfg.l1Latency)
            stats.lockCohCycles += now - issuedAt - cfg.l1Latency;
    }

    // The callback may issue the next operation, which overwrites the
    // waiter fields: take them first.
    Completion done_fn = std::move(done);
    AtomicCompletion atomic_fn = std::move(atomicDone);
    if (opLog)
        opLog(rec);
    if (op.kind == OpRecord::Kind::Atomic) {
        if (atomic_fn)
            atomic_fn(rec.oldValue, op.demoted);
    } else if (done_fn) {
        done_fn(rec.oldValue);
    }
}

std::string
L1Controller::debugState() const
{
    std::string out = format("L1 %d:", core);
    if (txn.active) {
        out += format(" pending{%s addr=0x%llx excl=%d hasData=%d "
                      "hasAck=%d acks=%d/%d epochKnown=%d epoch=%llu "
                      "demotable=%d}",
                      txn.kind == OpRecord::Kind::Load    ? "load"
                      : txn.kind == OpRecord::Kind::Store ? "store"
                                                          : "atomic",
                      (unsigned long long)txn.addr, (int)txn.exclusive,
                      (int)txn.hasData, (int)txn.hasAckInfo,
                      txn.acksReceived, txn.ackCount, (int)txn.epochKnown,
                      (unsigned long long)txn.myEpoch, (int)txn.demotable);
        const L1Line *l = findLine(txn.addr);
        out += format(" line=%s", l ? l1StateName(l->state) : "I");
    } else {
        out += " no-pending";
    }
    for (const DeferredFwd &d : deferredForwards)
        out += format(" defer[%s]", d.msg.toString().c_str());
    return out;
}

void
L1Controller::send(const ProtoSend &out, Cycle now)
{
    NodeId dst = out.dst;
    int priority = 0;
    if (dst == PROTO_HOME) {
        // A request: it carries the OCOR priority set for it.
        dst = cfg.homeOf(out.msg.addr);
        priority = nextPriority;
        nextPriority = 0;
        if (LcoTracker *lco = lcoOf(sim.telemetry()))
            lco->requestSent(core, now);
    }
    const CohMsgKind kind = out.msg.kind;
    const int flits = carriesData(kind) ? net.config().dataPacketFlits
                                        : net.config().ctrlPacketFlits;
    PacketPtr pkt =
        net.makePacket(node, dst, vnetForKind(kind), flits, out.msg);
    pkt->priority = priority;
    net.inject(pkt, now);
    ++stats.msgsSent;
}

} // namespace inpg
