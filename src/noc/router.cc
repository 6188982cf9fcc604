#include "noc/router.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"
#include "telemetry/packet_lifetime.hh"

namespace inpg {

namespace {

/** N copies of T, each built from the same constructor arguments. */
template <typename T, std::size_t N, typename... Args>
std::array<T, N>
filledArray(const Args &...args)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::array<T, N>{((void)I, T(args...))...};
    }(std::make_index_sequence<N>{});
}

} // namespace

Router::Router(NodeId node_id, const NocConfig &config_in,
               const RoutingAlgorithm *routing, int num_in_ports)
    : id(node_id), cfg(config_in), routes(routing->routeTable(node_id)),
      nInPorts(num_in_ports),
      genPort(num_in_ports > NUM_PORTS ? NUM_PORTS : -1),
      vcs(num_in_ports, cfg.totalVcs(), cfg.vcDepth),
      outputs(filledArray<OutputUnit, NUM_PORTS>(cfg.totalVcs(),
                                                 cfg.vcDepth)),
      saInportArb(filledArray<PriorityArbiter, VcStateArray::MAX_PORTS>(
          static_cast<std::size_t>(cfg.totalVcs()), cfg.agingQuantum)),
      saOutportArb(filledArray<PriorityArbiter, NUM_PORTS>(
          std::size_t{VcStateArray::MAX_PORTS}, cfg.agingQuantum))
{
    INPG_ASSERT(num_in_ports == NUM_PORTS || num_in_ports == NUM_PORTS + 1,
                "router %d: %d input ports", node_id, num_in_ports);
    for (int p = 0; p < NUM_PORTS; ++p)
        inputs[static_cast<std::size_t>(p)].bindConsumer(this, &due, p);
}

void
Router::connectOutput(Direction d, Channel &channel)
{
    channel.connectProducer(this, &outputs[static_cast<std::size_t>(d)]);
}

void
Router::injectGenerated(const PacketPtr &pkt, Cycle now)
{
    INPG_ASSERT(genPort >= 0, "no generator port on router %d", id);
    INPG_ASSERT(pkt->numFlits == 1,
                "generated packets must be single-flit control messages");
    (void)now;
    genQueue.push_back(pkt);
    ++stats.genPacketsQueued;
    wakeSelf();
}

std::string
Router::tickName() const
{
    return format("router%d", id);
}

std::size_t
Router::bufferedFlits() const
{
    return vcs.totalOccupancy();
}

JsonValue
Router::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::object();
    out["node"] = static_cast<long long>(id);
    out["buffered_flits"] = static_cast<std::uint64_t>(bufferedFlits());
    out["gen_queue"] = static_cast<std::uint64_t>(genQueue.size());

    JsonValue vc_list = JsonValue::array();
    for (int p = 0; p < numInPorts(); ++p) {
        for (VcId v = 0; v < cfg.totalVcs(); ++v) {
            const VcRecord &r = vcs.rec(vcs.slot(p, v));
            const std::uint8_t state = r.state;
            const std::size_t occupancy = r.count;
            if (state == VcStateArray::Idle && occupancy == 0)
                continue;
            JsonValue vj = JsonValue::object();
            vj["inport"] =
                p == genPort ? std::string("gen")
                             : directionName(static_cast<Direction>(p));
            vj["vc"] = static_cast<long long>(v);
            vj["state"] = state == VcStateArray::Idle
                              ? "idle"
                              : (state == VcStateArray::WaitVc ? "wait-vc"
                                                               : "active");
            vj["occupancy"] = static_cast<std::uint64_t>(occupancy);
            if (state != VcStateArray::Idle) {
                vj["out_port"] = directionName(r.outPort);
                // Emitted only when a dateline class restricts the
                // route, so mesh hang reports keep their exact bytes.
                if (r.outClass != VC_CLASS_ANY)
                    vj["vc_class"] = static_cast<long long>(r.outClass);
                if (r.outVc != INVALID_VC)
                    vj["out_vc"] = static_cast<long long>(r.outVc);
                vj["head_age"] = static_cast<std::uint64_t>(now - r.headAt);
            }
            vc_list.push(std::move(vj));
        }
    }
    out["vcs"] = std::move(vc_list);

    JsonValue creds = JsonValue::object();
    for (int p = 0; p < NUM_PORTS; ++p) {
        const OutputUnit &ou = outputs[static_cast<std::size_t>(p)];
        if (!ou.outChannel())
            continue;
        JsonValue per_vc = JsonValue::array();
        for (VcId v = 0; v < ou.numVcs(); ++v) {
            JsonValue cv = JsonValue::object();
            cv["credits"] = static_cast<long long>(ou.credits(v, now));
            cv["busy"] = !ou.isVcFree(v);
            per_vc.push(std::move(cv));
        }
        creds[directionName(static_cast<Direction>(p))] =
            std::move(per_vc);
    }
    out["credits"] = std::move(creds);
    return out;
}

void
Router::tick(Cycle now)
{
    drainFlits(now);
    // Generator machinery exists only on routers with a generator port
    // (BigRouter); skip the virtual hook on plain routers.
    if (genPort >= 0)
        generatorPhase(now);
    // With no buffered flit anywhere the allocation stages have no work
    // (and leave their rotation/aging state alone); the whole-router
    // occupancy counter makes the check one load.
    if (vcs.totalOccupancy() != 0) {
        allocateVcs(now);
        allocateSwitch(now);
    }
    // Checked after allocation so the router leaves the active set in
    // the cycle its last flit departs. Until the next flit is
    // deliverable (its push wakes us for that cycle) or the generator's
    // next timed work comes, every tick is a no-op: credits land in the
    // output units without a tick.
    if (vcs.totalOccupancy() == 0 && genQueue.empty())
        suspendUntil(genPort < 0 ? CYCLE_NEVER : nextTimedWork(), now);
}

void
Router::drainFlits(Cycle now)
{
    // Only the ports due this cycle, in ascending port order, so
    // telemetry record order and buffer contents match a full scan. A
    // push during the loop targets a later slot.
    for (std::uint32_t m = std::exchange(due[flitSlot(now)], 0); m;
         m &= m - 1) {
        const int p = std::countr_zero(m);
        FlitPtr flit = inputs[static_cast<std::size_t>(p)].takeFlit(now);
        if (isHeadFlit(flit->type)) {
            onHeadFlitArrived(flit, p, now);
            if (PacketLifetime *life = flit->packet->lifetime)
                life->arrive(id, now);
        }
        vcs.receiveFlit(p, std::move(flit), now);
        ++stats.flitsReceived;
    }
}

Packet *
Router::drainGeneratorQueue(Cycle now)
{
    if (genPort < 0 || genQueue.empty())
        return nullptr;
    // One injection per cycle: find an idle, empty VC in the packet's
    // vnet range and materialize the packet as a single HeadTail flit.
    const PacketPtr &pkt = genQueue.front();
    for (VcId vc = cfg.vnetVcLo(pkt->vnet); vc <= cfg.vnetVcHi(pkt->vnet);
         ++vc) {
        const VcRecord &r = vcs.rec(vcs.slot(genPort, vc));
        if (r.state == VcStateArray::Idle && r.count == 0) {
            FlitPtr flit = makeFlit(pkt, FlitType::HeadTail, 0);
            flit->vc = vc;
            pkt->networkEntryCycle = now;
            Packet *injected = pkt.get();
            vcs.receiveFlit(genPort, std::move(flit), now);
            ++stats.genPacketsInjected;
            genQueue.pop_front();
            return injected;
        }
    }
    return nullptr;
}

void
Router::tryAllocateVc(int port, VcId v, Cycle now)
{
    const std::size_t s = vcs.slot(port, v);
    VcRecord &r = vcs.rec(s);
    // A VC whose front flit is the head of a new packet (re)enters
    // route computation; this covers back-to-back packets sharing
    // a VC buffer.
    if (r.state == VcStateArray::Idle && r.count != 0) {
        const FlitPtr &front = vcs.front(s);
        INPG_ASSERT(isHeadFlit(front->type),
                    "non-head flit at front of idle VC %d", v);
        const RouteEntry entry = routes.lookup(front->packet->dst);
        r.outPort = entry.dir;
        r.outClass = entry.vcClass;
        r.outVc = INVALID_VC;
        r.state = VcStateArray::WaitVc;
        r.headAt = front->bufferedAt;
        vcs.refreshMask(port, v);
    }
    if (r.state != VcStateArray::WaitVc)
        return;
    if (now <= r.headAt)
        return; // stage-1 charge: eligible the cycle after buffering
    OutputUnit &ou = outputs[static_cast<std::size_t>(r.outPort)];
    const auto [vc_lo, vc_hi] = outVcRange(cfg.vnetOfVc(v), r.outClass);
    VcId out_vc = ou.findFreeVcInRange(vc_lo, vc_hi);
    if (out_vc == INVALID_VC)
        return;
    ou.allocateVc(out_vc);
    r.outVc = static_cast<std::int8_t>(out_vc);
    r.state = VcStateArray::Active;
    vcs.refreshMask(port, v);
    ++stats.vaGrants;
    if (PacketLifetime *life = vcs.front(s)->packet->lifetime)
        life->currentHop(id).vaGrant = now;
}

void
Router::allocateVcs(Cycle now)
{
    const std::size_t nports = static_cast<std::size_t>(numInPorts());
    // An OR over the port words covers the whole router. The port loop
    // rotates from vaPointer, and the pointer advances exactly once per
    // call whether or not candidates exist.
    if (vcs.anyVaCandidate()) {
        std::size_t p = vaPointer;
        for (std::size_t k = 0; k < nports; ++k) {
            // Snapshot is safe: handling one VC never adds another VC
            // of this port to the candidate set.
            for (std::uint32_t m = vcs.vaCandidates(static_cast<int>(p)); m;
                 m &= m - 1) {
                tryAllocateVc(static_cast<int>(p),
                              static_cast<VcId>(std::countr_zero(m)), now);
            }
            p = p + 1 == nports ? 0 : p + 1;
        }
    }
    vaPointer = vaPointer + 1 == nports ? 0 : vaPointer + 1;
}

void
Router::switchTraverse(int inport, VcId v, int outport, Cycle now)
{
    VcRecord &r = vcs.rec(vcs.slot(inport, v));
    OutputUnit &ou = outputs[static_cast<std::size_t>(outport)];
    INPG_ASSERT(ou.outChannel() != nullptr,
                "router %d: traversal into unconnected port %d", id,
                outport);

    FlitPtr flit = vcs.popFlit(inport, v);
    const bool tail = isTailFlit(flit->type);

    if (isHeadFlit(flit->type)) {
        onHeadFlitGranted(flit, inport, static_cast<Direction>(outport),
                          now);
        ++stats.packetsRouted;
        if (PacketLifetime *life = flit->packet->lifetime)
            life->currentHop(id).depart = now;
    }

    // Return a buffer credit upstream (none for the generator port).
    if (inport != genPort)
        inputs[static_cast<std::size_t>(inport)].pushCredit(v, now);

    const VcId out_vc = r.outVc;
    flit->vc = out_vc;
    ou.decrementCredit(out_vc, now);
    if (tail) {
        ou.freeVc(out_vc);
        r.state = VcStateArray::Idle;
        r.outVc = INVALID_VC;
        vcs.refreshMask(inport, v);
    }
    ou.outChannel()->pushFlit(std::move(flit), now);
    ++stats.flitsSent;
}

void
Router::allocateSwitch(Cycle now)
{
    // No Active VC holds a flit anywhere in the router: SA is a no-op,
    // and since all-invalid arbiter calls are skipped, returning here
    // leaves the arbiter state untouched.
    if (!vcs.anySaCandidate())
        return;
    const int nports = numInPorts();
    const bool prio = cfg.switchPolicy == SwitchPolicy::Priority;
    auto &inportWinner = inportWinnerScratch;

    // SA-I over each port's Active mask. Request priorities/ages are
    // written into the scratch slots only for candidate bits; the mask
    // handed to the arbiter governs which slots are read, so the
    // remaining stale entries are never consulted.
    std::array<std::uint32_t, NUM_PORTS> outportCand{};
    bool anyWinner = false;
    for (int p = 0; p < nports; ++p) {
        inportWinner[static_cast<std::size_t>(p)] = INVALID_VC;
        const std::size_t base = vcs.slot(p, 0);
        std::uint32_t valid = 0;
        for (std::uint32_t m = vcs.saCandidates(p); m; m &= m - 1) {
            const VcId v = static_cast<VcId>(std::countr_zero(m));
            const std::size_t s = base + static_cast<std::size_t>(v);
            const VcRecord &r = vcs.rec(s);
            const Flit &front = *vcs.front(s);
            if (now <= front.bufferedAt)
                continue;
            const OutputUnit &ou =
                outputs[static_cast<std::size_t>(r.outPort)];
            if (ou.credits(r.outVc, now) <= 0)
                continue;
            valid |= 1u << static_cast<std::uint32_t>(v);
            if (prio) {
                auto &req = saVcReqScratch[static_cast<std::size_t>(v)];
                req.priority = front.packet->priority;
                req.age = now - r.headAt;
            }
        }
        if (!valid)
            continue;
        if (prio) {
            // Vnet rotation: keep only the first vnet (from the
            // pointer) that has a candidate.
            std::size_t &ptr = saInportVnetPtr[static_cast<std::size_t>(p)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = ptr + k >= nv ? ptr + k - nv : ptr + k;
                const std::uint32_t vm =
                    vnetVcMask(static_cast<VnetId>(vn));
                if (valid & vm) {
                    valid &= vm;
                    ptr = vn + 1 == nv ? 0 : vn + 1;
                    break;
                }
            }
        }
        const int w = saInportArb[static_cast<std::size_t>(p)].grantMasked(
            valid, prio ? saVcReqScratch.data() : nullptr);
        INPG_ASSERT(w != INVALID_VC, "no grant from nonzero request mask");
        inportWinner[static_cast<std::size_t>(p)] = w;
        anyWinner = true;
        const auto op = static_cast<std::size_t>(
            vcs.rec(base + static_cast<std::size_t>(w)).outPort);
        outportCand[op] |= 1u << static_cast<std::uint32_t>(p);
    }
    // An all-invalid grant() touches no arbiter state, so outports
    // without candidates need no SA-II visit.
    if (!anyWinner)
        return;

    // SA-II over the per-outport winner masks (bit = input port).
    for (int op = 0; op < NUM_PORTS; ++op) {
        std::uint32_t valid = outportCand[static_cast<std::size_t>(op)];
        if (!valid)
            continue;
        if (prio) {
            for (std::uint32_t m = valid; m; m &= m - 1) {
                const auto p =
                    static_cast<std::size_t>(std::countr_zero(m));
                const std::size_t s =
                    vcs.slot(static_cast<int>(p), inportWinner[p]);
                auto &req = saPortReqScratch[p];
                req.priority = vcs.front(s)->packet->priority;
                req.age = now - vcs.rec(s).headAt;
            }
            std::size_t &ptr = saOutportVnetPtr[static_cast<std::size_t>(op)];
            const std::size_t nv = static_cast<std::size_t>(cfg.numVnets);
            for (std::size_t k = 0; k < nv; ++k) {
                std::size_t vn = ptr + k >= nv ? ptr + k - nv : ptr + k;
                std::uint32_t in_vnet = 0;
                for (std::uint32_t m = valid; m; m &= m - 1) {
                    const auto p =
                        static_cast<std::size_t>(std::countr_zero(m));
                    if (cfg.vnetOfVc(inportWinner[p]) ==
                        static_cast<VnetId>(vn))
                        in_vnet |= 1u << p;
                }
                if (in_vnet) {
                    valid = in_vnet;
                    ptr = vn + 1 == nv ? 0 : vn + 1;
                    break;
                }
            }
        }
        const int winner =
            saOutportArb[static_cast<std::size_t>(op)].grantMasked(
                valid, prio ? saPortReqScratch.data() : nullptr);
        INPG_ASSERT(winner >= 0, "no grant from nonzero request mask");
        switchTraverse(winner,
                       inportWinner[static_cast<std::size_t>(winner)], op,
                       now);
    }
}

} // namespace inpg
