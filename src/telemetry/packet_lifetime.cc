#include "telemetry/packet_lifetime.hh"

#include "coh/coherence_msg.hh"
#include "telemetry/trace_event.hh"

namespace inpg {

namespace {

/** Slice label for a packet: coherence kind if the payload is one. */
const char *
packetLabel(const Packet &pkt)
{
    if (const auto *msg =
            dynamic_cast<const CoherenceMsg *>(pkt.payload.get()))
        return cohMsgKindName(msg->kind);
    return "pkt";
}

} // namespace

PacketLifetimeTracker::PacketLifetimeTracker(TraceEventSink *trace_sink)
    : sink(trace_sink)
{}

void
PacketLifetimeTracker::onPacketQueued(Packet &pkt, Cycle now)
{
    ++stats.packetsTracked;
    PacketLifetime &rec = live[pkt.id];
    rec = PacketLifetime{pkt.src, pkt.dst, pkt.vnet, now, now, {}};
    pkt.lifetime = &rec;
}

void
PacketLifetimeTracker::onPacketEjected(Packet &pkt, Cycle now)
{
    if (!pkt.lifetime)
        return;
    const PacketLifetime &rec = *pkt.lifetime;

    ++stats.packetsCompleted;
    stats.queueWait
        .add(static_cast<double>(rec.entered - rec.queued));
    stats.netLatency
        .add(static_cast<double>(now - rec.entered));
    stats.totalLatency
        .add(static_cast<double>(now - rec.queued));
    stats.hops.add(static_cast<double>(rec.hops.size()));

    SampleStat &bufWait = stats.hopBufferWait;
    SampleStat &stWait = stats.hopSwitchWait;
    const char *label = sink ? packetLabel(pkt) : nullptr;
    for (const PacketHop &h : rec.hops) {
        bufWait.add(static_cast<double>(h.vaGrant - h.arrive));
        stWait.add(static_cast<double>(h.depart - h.vaGrant));
        if (sink && h.depart > h.arrive) {
            sink->duration(TrackGroup::Routers,
                           static_cast<std::uint32_t>(h.router), label,
                           h.arrive, h.depart - h.arrive, pkt.id);
        }
    }
    if (sink) {
        if (rec.entered > rec.queued) {
            sink->duration(TrackGroup::NetworkInterfaces,
                           static_cast<std::uint32_t>(rec.src), label,
                           rec.queued, rec.entered - rec.queued, pkt.id);
        }
        sink->instant(TrackGroup::NetworkInterfaces,
                      static_cast<std::uint32_t>(rec.dst), label, now,
                      pkt.id);
    }

    pkt.lifetime = nullptr;
    live.erase(pkt.id);
}

JsonValue
PacketLifetimeTracker::inFlightJson(Cycle now) const
{
    JsonValue out = JsonValue::array();
    for (const auto &[id, rec] : live) {
        JsonValue p = JsonValue::object();
        p["id"] = static_cast<std::uint64_t>(id);
        p["src"] = static_cast<long long>(rec.src);
        p["dst"] = static_cast<long long>(rec.dst);
        p["vnet"] = static_cast<long long>(rec.vnet);
        p["queued"] = static_cast<std::uint64_t>(rec.queued);
        p["entered"] = static_cast<std::uint64_t>(rec.entered);
        p["age"] = static_cast<std::uint64_t>(now - rec.queued);
        JsonValue hops = JsonValue::array();
        for (const PacketHop &h : rec.hops) {
            JsonValue hj = JsonValue::object();
            hj["router"] = static_cast<long long>(h.router);
            hj["arrive"] = static_cast<std::uint64_t>(h.arrive);
            hj["va_grant"] = static_cast<std::uint64_t>(h.vaGrant);
            hj["depart"] = static_cast<std::uint64_t>(h.depart);
            hops.push(std::move(hj));
        }
        p["hops"] = std::move(hops);
        out.push(std::move(p));
    }
    return out;
}

} // namespace inpg
