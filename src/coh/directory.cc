#include "coh/directory.hh"

#include "coh/protocol_tables.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

Directory::Directory(NodeId node_id, const CohConfig &config,
                     Network &network, Simulator &simulator,
                     MemoryController *memory, CohStats *coh_stats)
    : node(node_id), cfg(config), net(network), sim(simulator),
      mem(memory), cohStats(coh_stats)
{}

std::string
Directory::tickName() const
{
    return format("dir%d", node);
}

Directory::DirEntry &
Directory::entryFor(Addr line)
{
    return entries[line];
}

const Directory::DirEntry *
Directory::findEntry(Addr line) const
{
    return entries.find(line);
}

const Directory::DirEntry *
Directory::entry(Addr addr) const
{
    return findEntry(cfg.lineBase(addr));
}

void
Directory::initValue(Addr addr, std::uint64_t value)
{
    DirEntry &e = entryFor(cfg.lineBase(addr));
    INPG_ASSERT(e.cold, "initValue on an already active line");
    e.value = value;
}

void
Directory::receiveMessage(const PacketPtr &pkt, Cycle now)
{
    const CoherenceMsg &msg = pkt->msg;
    INPG_ASSERT(cfg.homeOf(msg.addr) == node,
                "message homed at %d delivered to directory %d",
                cfg.homeOf(msg.addr), node);
    (void)now;
    queue.push_back(pkt);
    ++stats.msgsReceived;
    if (msg.kind == CohMsgKind::GetS || msg.kind == CohMsgKind::GetX) {
        Telemetry *t = sim.telemetry();
        if (t && t->lco)
            t->lco->dirArrived(msg.requester, now);
    }
    wakeSelf();
}

void
Directory::tick(Cycle now)
{
    if (blockedOnFetch || queue.empty()) {
        // Ticks stay no-ops until receiveMessage() or the DRAM-fetch
        // completion, and both wake us.
        suspendSelf();
        return;
    }
    if (now < busyUntil) {
        // The bank serves its next request at busyUntil; nothing else
        // can happen before then.
        suspendUntil(busyUntil, now);
        return;
    }

    PacketPtr pkt = std::move(queue.front());
    queue.pop_front();
    const CoherenceMsg &msg = pkt->msg;
    stats.queueDepthAtDequeue.add(static_cast<double>(queue.size()));

    const Cycle cost = msg.kind == CohMsgKind::InvAck ? cfg.dirAckLatency
                                                      : cfg.l2Latency;
    busyUntil = now + cost;

    if (Telemetry *t = sim.telemetry(); t && t->trace) {
        t->trace->duration(TrackGroup::Directories,
                           static_cast<std::uint32_t>(node),
                           cohMsgKindName(msg.kind), now, cost,
                           static_cast<std::uint64_t>(msg.requester));
    }

    DirEntry &e = entryFor(cfg.lineBase(msg.addr));
    if (e.cold &&
        (msg.kind == CohMsgKind::GetS || msg.kind == CohMsgKind::GetX)) {
        // First touch: block the bank on the DRAM fetch, then service.
        e.cold = false;
        blockedOnFetch = true;
        ++stats.coldMisses;
        mem->fetch(msg.addr, [this, pkt = std::move(pkt)] {
            blockedOnFetch = false;
            busyUntil = sim.now();
            wakeSelf();
            process(pkt->msg, sim.now());
        });
        return;
    }

    // Responses leave when the L2 access completes.
    sim.events().schedule(busyUntil, [this, pkt = std::move(pkt)] {
        process(pkt->msg, sim.now());
    });
}

void
Directory::process(const CoherenceMsg &msg, Cycle now)
{
    DirEntry &e = entryFor(cfg.lineBase(msg.addr));
    if (msg.kind == CohMsgKind::GetS || msg.kind == CohMsgKind::GetX) {
        // Fires when the bank finishes serving the request, so the
        // closed span covers queue wait + occupancy (+ DRAM).
        Telemetry *t = sim.telemetry();
        if (t && t->lco)
            t->lco->dirServed(msg.requester, now);
    }

    // Table dispatch: classify the entry against the requester and the
    // message onto the declarative directory table; an unhandled or
    // declared-illegal pair (e.g. a GetS from the recorded owner, which
    // the imperative code would have answered with a self-forward)
    // panics with the precise coordinates.
    const int event = dirEventOf(msg);
    if (event < 0)
        panic("directory %d cannot process %s", node,
              msg.toString().c_str());
    const DirEvent ev = static_cast<DirEvent>(event);
    const DirState st = dirStateOf(e, msg.requester);
    const ProtoTransition &tr = directoryProtocolTable().require(
        static_cast<int>(st), static_cast<int>(ev));

    if (Telemetry *t = sim.telemetry(); t && t->recorder) {
        // Table/state/event names are static strings: stored by
        // pointer, no formatting on the hot path.
        t->recorder->record(FrKind::ProtoDispatch, now, node, msg.addr,
                            static_cast<std::uint64_t>(msg.requester),
                            "dir", dirStateName(static_cast<int>(st)),
                            dirEventName(static_cast<int>(ev)));
    }

    switch (ev) {
      case DirEvent::GetS:
        ++stats.gets;
        break;
      case DirEvent::GetX:
      case DirEvent::GetXDemotable:
        ++stats.getx;
        if (msg.earlyInvalidated) {
            ++stats.getxEarlyInvalidated;
            // The big router pre-invalidated on this request's behalf:
            // mark the requester's acquire as big-router-served.
            Telemetry *t = sim.telemetry();
            if (t && t->lco)
                t->lco->earlyInvSeen(msg.requester);
        }
        break;
      case DirEvent::EarlyInvAck:
        ++stats.earlyAcks;
        break;
    }

    ProtoOutbox &out = protoOutbox();
    out.clear();
    dirAct(tr, e, epochCounter, msg, now, stats, out);
    if (out.fault)
        panic("directory %d: %s for %s", node, out.faultDetail.c_str(),
              msg.toString().c_str());
    for (const ProtoSend &sent : out.sends)
        send(sent.msg, sent.dst, now);
}

void
Directory::send(const CoherenceMsg &msg, NodeId dst, Cycle now)
{
    ++sendCounter;
    if (cfg.dropDirResponseNth != 0 &&
        sendCounter == cfg.dropDirResponseNth) {
        // Test-only hang seeder (see CohConfig::dropDirResponseNth):
        // swallow this message deterministically so the watchdog path
        // can be exercised end-to-end.
        ++stats.msgsDroppedTestknob;
        if (Telemetry *t = sim.telemetry(); t && t->recorder) {
            t->recorder->record(FrKind::MsgDrop, now, node, msg.addr,
                                static_cast<std::uint64_t>(dst),
                                cohMsgKindName(msg.kind));
        }
        return;
    }
    if (Telemetry *t = sim.telemetry(); t && t->recorder) {
        t->recorder->record(FrKind::MsgSend, now, node, msg.addr,
                            static_cast<std::uint64_t>(dst),
                            cohMsgKindName(msg.kind));
    }
    const int flits = carriesData(msg.kind) ? net.config().dataPacketFlits
                                            : net.config().ctrlPacketFlits;
    PacketPtr pkt =
        net.makePacket(node, dst, vnetForKind(msg.kind), flits, msg);
    net.inject(pkt, now);
    ++stats.msgsSent;
}

JsonValue
Directory::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(node);
    out["queue_depth"] = static_cast<std::uint64_t>(queue.size());
    out["busy"] = busyUntil > now;
    if (busyUntil > now)
        out["busy_for"] = static_cast<std::uint64_t>(busyUntil - now);
    out["blocked_on_fetch"] = blockedOnFetch;
    JsonValue queued = JsonValue::array();
    std::size_t shown = 0;
    for (const PacketPtr &p : queue) {
        if (++shown > 8)
            break;
        queued.push(p->msg.toString());
    }
    out["queued"] = std::move(queued);
    return out;
}

} // namespace inpg
