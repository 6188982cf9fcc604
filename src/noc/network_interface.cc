#include "noc/network_interface.hh"

#include <utility>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

NetworkInterface::NetworkInterface(NodeId node_id, const NocConfig &config,
                                   const Simulator &simulator)
    : id(node_id), cfg(config), sim(simulator),
      baseNode(node_id * cfg.concentration),
      deliver(static_cast<std::size_t>(cfg.concentration)),
      routerPort(cfg.totalVcs(), cfg.vcDepth)
{
    injectQueues.resize(static_cast<std::size_t>(cfg.numVnets));
    reassembly.resize(static_cast<std::size_t>(cfg.totalVcs()));
    rxChannel.bindConsumer(this, &due, 0);
}

void
NetworkInterface::connect(Channel &to_router)
{
    txChannel = &to_router;
    to_router.connectProducer(this, &routerPort);
}

void
NetworkInterface::sendPacket(const PacketPtr &pkt, Cycle now)
{
    INPG_ASSERT(pkt->vnet >= 0 && pkt->vnet < cfg.numVnets,
                "packet on invalid vnet %d", pkt->vnet);
    INPG_ASSERT(servesNode(pkt->src), "packet src %d injected at NI %d",
                pkt->src, id);
    INPG_ASSERT(pkt->dst >= 0 && pkt->dst < cfg.numNodes(),
                "packet dst %d out of range", pkt->dst);
    pkt->injectCycle = now;
    injectQueues[static_cast<std::size_t>(pkt->vnet)].push_back(pkt);
    ++queuedPkts;
    ++stats.packetsQueued;
    if (Telemetry *t = sim.telemetry()) {
        if (t->packets)
            t->packets->onPacketQueued(*pkt, now);
        // No address at this layer: addr carries the packet id, arg
        // the destination node.
        if (t->recorder)
            t->recorder->record(FrKind::NiInject, now, id, pkt->id,
                                static_cast<std::uint64_t>(pkt->dst));
    }
    wakeSelf();
}

std::string
NetworkInterface::tickName() const
{
    return format("ni%d", id);
}

bool
NetworkInterface::idle() const
{
    return queuedPkts == 0 && inflight.empty() && reassemblingFlits == 0;
}

void
NetworkInterface::tick(Cycle now)
{
    ejectFlits(now);
    allocateInjectVcs(now);
    injectOneFlit(now);
    // Nothing queued, serializing or reassembling: every tick is a
    // no-op until the next sendPacket() or until an inbound flit is
    // deliverable (its push wakes us for that cycle). Returned credits
    // land in routerPort without a tick.
    if (idle())
        suspendSelf();
}

void
NetworkInterface::ejectFlits(Cycle now)
{
    // At most one flit per cycle arrives on the one receive channel.
    if (std::exchange(due[flitSlot(now)], 0) == 0)
        return;
    FlitPtr flit = rxChannel.takeFlit(now);
    INPG_ASSERT(servesNode(flit->packet->dst),
                "NI %d ejected packet destined to %d", id,
                flit->packet->dst);
    const VcId vc = flit->vc;
    const bool tail = isTailFlit(flit->type);
    PacketPtr pkt = tail ? flit->packet : nullptr;
    auto &buf = reassembly[static_cast<std::size_t>(vc)];
    buf.push_back(std::move(flit));
    ++reassemblingFlits;
    // The NI drains its buffers instantly; credit back every flit.
    rxChannel.pushCredit(vc, now);
    if (tail) {
        INPG_ASSERT(static_cast<int>(buf.size()) == pkt->numFlits,
                    "packet %llu reassembled with %zu of %d flits",
                    static_cast<unsigned long long>(pkt->id),
                    buf.size(), pkt->numFlits);
        reassemblingFlits -= buf.size();
        buf.clear();
        ++stats.packetsDelivered;
        stats.packetLatency.add(
            static_cast<double>(now - pkt->injectCycle));
        if (Telemetry *t = sim.telemetry()) {
            if (t->packets)
                t->packets->onPacketEjected(*pkt, now);
            if (t->recorder)
                t->recorder->record(
                    FrKind::NiEject, now, id, pkt->id,
                    static_cast<std::uint64_t>(pkt->src));
        }
        const auto sink =
            static_cast<std::size_t>(pkt->dst - baseNode);
        if (deliver[sink])
            deliver[sink](pkt, now);
    }
}

void
NetworkInterface::allocateInjectVcs(Cycle now)
{
    if (queuedPkts == 0)
        return;
    const std::size_t nvnets = injectQueues.size();
    // Fairness rotation derived from the clock instead of a per-tick
    // counter: equal to the old vnetPointer (incremented once per cycle
    // since cycle 0) at every cycle, but unaffected by skipped idle
    // ticks -- bit-identical with sleep/fast-forward on or off.
    const std::size_t base = static_cast<std::size_t>(now) % nvnets;
    for (std::size_t k = 0; k < nvnets; ++k) {
        // Conditional subtract, not %: nvnets is a runtime value, so
        // the compiler cannot strength-reduce the division away.
        std::size_t v = base + k;
        if (v >= nvnets)
            v -= nvnets;
        auto &q = injectQueues[v];
        // One allocation per vnet per cycle; honour the 1-cycle NI
        // injection latency by skipping packets queued this cycle.
        if (q.empty() || q.front()->injectCycle >= now)
            continue;
        VnetId vnet = static_cast<VnetId>(v);
        VcId vc = routerPort.findFreeVcInRange(cfg.vnetVcLo(vnet),
                                               cfg.vnetVcHi(vnet));
        if (vc == INVALID_VC)
            continue;
        routerPort.allocateVc(vc);
        InFlight fl;
        fl.pkt = q.pop_front();
        fl.vc = vc;
        --queuedPkts;
        inflight.push_back(fl);
    }
}

void
NetworkInterface::injectOneFlit(Cycle now)
{
    if (inflight.empty() || !txChannel)
        return;
    const std::size_t n = inflight.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t i = inflightPointer + k;
        if (i >= n)
            i -= n;
        InFlight &fl = inflight[i];
        if (routerPort.credits(fl.vc, now) <= 0)
            continue;

        PacketPtr pkt = fl.pkt;
        FlitType type;
        if (pkt->numFlits == 1)
            type = FlitType::HeadTail;
        else if (fl.nextSeq == 0)
            type = FlitType::Head;
        else if (fl.nextSeq == pkt->numFlits - 1)
            type = FlitType::Tail;
        else
            type = FlitType::Body;

        FlitPtr flit = makeFlit(pkt, type, fl.nextSeq);
        flit->vc = fl.vc;
        if (fl.nextSeq == 0) {
            pkt->networkEntryCycle = now;
            if (PacketLifetime *life = pkt->lifetime)
                life->entered = now;
        }
        routerPort.decrementCredit(fl.vc, now);
        txChannel->pushFlit(std::move(flit), now);
        ++stats.flitsSent;

        ++fl.nextSeq;
        if (fl.nextSeq == pkt->numFlits) {
            routerPort.freeVc(fl.vc);
            ++stats.packetsSent;
            inflight.erase(inflight.begin() +
                           static_cast<std::ptrdiff_t>(i));
            inflightPointer = n > 1 ? i % (n - 1) : 0;
        } else {
            inflightPointer = (i + 1) % n;
        }
        return; // one flit per cycle
    }
}

JsonValue
NetworkInterface::debugJson() const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(id);
    JsonValue queues = JsonValue::array();
    for (const auto &q : injectQueues)
        queues.push(static_cast<std::uint64_t>(q.size()));
    out["inject_queues"] = std::move(queues);

    JsonValue serializing = JsonValue::array();
    for (const InFlight &fl : inflight) {
        JsonValue fj = JsonValue::object();
        fj["packet"] = static_cast<std::uint64_t>(fl.pkt->id);
        fj["dst"] = static_cast<long long>(fl.pkt->dst);
        fj["next_flit"] = static_cast<long long>(fl.nextSeq);
        fj["of"] = static_cast<long long>(fl.pkt->numFlits);
        fj["vc"] = static_cast<long long>(fl.vc);
        serializing.push(std::move(fj));
    }
    out["serializing"] = std::move(serializing);

    std::uint64_t reassembling = 0;
    for (const auto &r : reassembly)
        reassembling += r.size();
    out["reassembly_flits"] = reassembling;
    return out;
}

} // namespace inpg
