#include "noc/network.hh"

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

Network::Network(const NocConfig &config, Simulator &sim,
                 RouterFactory factory)
    : cfg(config), topo(makeTopology(config))
{
    routingAlgo = topo->makeRouting();
    const int n = topo->numRouters();
    routers.reserve(static_cast<std::size_t>(n));
    nis.reserve(static_cast<std::size_t>(n));

    for (NodeId id = 0; id < n; ++id) {
        if (factory)
            routers.push_back(factory(id, cfg, routingAlgo.get(), sim));
        else
            routers.push_back(
                std::make_unique<Router>(id, cfg, routingAlgo.get()));
        nis.push_back(std::make_unique<NetworkInterface>(id, cfg, sim));
    }

    // Every channel belongs to its flit consumer; the network lists
    // them in wiring order. Local port wiring: NI <-> router.
    for (NodeId id = 0; id < n; ++id) {
        Router &r = *routers[static_cast<std::size_t>(id)];
        NetworkInterface &ni_ref = *nis[static_cast<std::size_t>(id)];
        Channel &to_router = r.inputChannel(Direction::Local);
        Channel &from_router = ni_ref.inputChannel();
        ni_ref.connect(to_router);
        r.connectOutput(Direction::Local, from_router);
        channels.push_back(&to_router);
        channels.push_back(&from_router);
    }

    // Inter-router wiring from the topology's canonical link list (the
    // mesh subset enumerates in the same order the old builder did, so
    // allChannels() is unchanged on meshes).
    for (const TopoLink &link : topo->links()) {
        Router &from = *routers[static_cast<std::size_t>(link.from)];
        Router &to = *routers[static_cast<std::size_t>(link.to)];
        Channel &fwd = to.inputChannel(opposite(link.dir));
        Channel &rev = from.inputChannel(link.dir);
        from.connectOutput(link.dir, fwd);
        to.connectOutput(opposite(link.dir), rev);
        channels.push_back(&fwd);
        channels.push_back(&rev);
    }

    // Deterministic tick order: all routers, then all NIs.
    for (auto &r : routers)
        sim.addTicking(r.get());
    for (auto &ni_ptr : nis)
        sim.addTicking(ni_ptr.get());
}

Router &
Network::router(NodeId id)
{
    INPG_ASSERT(id >= 0 && id < numRouters(), "router id %d out of range",
                id);
    return *routers[static_cast<std::size_t>(id)];
}

NetworkInterface &
Network::ni(NodeId id)
{
    INPG_ASSERT(id >= 0 && id < numRouters(), "NI id %d out of range", id);
    return *nis[static_cast<std::size_t>(id)];
}

PacketPtr
Network::makePacket(NodeId src, NodeId dst, VnetId vnet, int num_flits,
                    std::shared_ptr<PacketData> payload)
{
    INPG_ASSERT(num_flits >= 1, "packet needs at least one flit");
    return std::make_shared<Packet>(nextPacketId++, src, dst, vnet,
                                    num_flits, std::move(payload));
}

void
Network::inject(const PacketPtr &pkt, Cycle now)
{
    niFor(pkt->src).sendPacket(pkt, now);
}

bool
Network::quiescent() const
{
    for (const auto &r : routers)
        if (r->bufferedFlits() != 0 || r->flitsDue())
            return false;
    for (const auto &ni_ptr : nis)
        if (!ni_ptr->idle() || ni_ptr->flitsDue())
            return false;
    return true;
}

void
Network::setTelemetry(Telemetry *t)
{
    if (!t || !t->trace)
        return;
    for (const auto &r : routers) {
        t->trace->nameTrack(
            TrackGroup::Routers, static_cast<std::uint32_t>(r->nodeId()),
            format("%srouter %d", r->isBigRouter() ? "big " : "",
                   r->nodeId()));
    }
    for (const auto &ni_ptr : nis) {
        t->trace->nameTrack(TrackGroup::NetworkInterfaces,
                            static_cast<std::uint32_t>(ni_ptr->nodeId()),
                            format("ni %d", ni_ptr->nodeId()));
    }
}

} // namespace inpg
