#include "telemetry/flight_recorder.hh"

#include <algorithm>
#include <mutex> // lint:allow(threading-outside-parallel)

#include "common/logging.hh"

namespace inpg {

namespace {

/**
 * Live-recorder registry for the panic hook. panic() can fire on any
 * thread (the sweep runner runs systems concurrently), so the registry
 * is mutex-guarded; recorders register at construction and leave at
 * destruction.
 */
std::mutex & // lint:allow(threading-outside-parallel)
registryMutex()
{
    static std::mutex m; // lint:allow(threading-outside-parallel)
    return m;
}

std::vector<FlightRecorder *> &
registry()
{
    static std::vector<FlightRecorder *> r;
    return r;
}

void
panicDumpAll()
{
    std::lock_guard<std::mutex> g(registryMutex()); // lint:allow(threading-outside-parallel)
    for (FlightRecorder *fr : registry()) {
        std::fprintf(stderr,
                     "--- flight recorder (%zu retained, %llu lost to "
                     "wrap) ---\n",
                     fr->retained(),
                     static_cast<unsigned long long>(fr->wrapped()));
        fr->dumpText(stderr);
    }
}

} // namespace

const char *
frKindName(FrKind k)
{
    switch (k) {
      case FrKind::ProtoDispatch:
        return "proto";
      case FrKind::MsgSend:
        return "send";
      case FrKind::MsgDrop:
        return "drop";
      case FrKind::NiInject:
        return "inject";
      case FrKind::NiEject:
        return "eject";
      case FrKind::BarrierStop:
        return "barrier-stop";
      case FrKind::AckRelay:
        return "ack-relay";
    }
    return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    std::size_t cap = 1;
    while (cap < capacity)
        cap <<= 1;
    ring.resize(cap);
    mask = cap - 1;

    std::lock_guard<std::mutex> g(registryMutex()); // lint:allow(threading-outside-parallel)
    registry().push_back(this);
    setPanicHook(&panicDumpAll);
}

FlightRecorder::~FlightRecorder()
{
    std::lock_guard<std::mutex> g(registryMutex()); // lint:allow(threading-outside-parallel)
    auto &r = registry();
    r.erase(std::remove(r.begin(), r.end(), this), r.end());
}

JsonValue
FlightRecorder::countsJson() const
{
    JsonValue out = JsonValue::object();
    out["recorded_total"] = recordedTotal();
    out["lost_to_wrap"] = wrapped();
    return out;
}

JsonValue
FlightRecorder::toJson() const
{
    JsonValue out = JsonValue::array();
    const std::uint64_t n = retained();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Event &e = ring[(head - n + i) & mask];
        JsonValue ev = JsonValue::object();
        ev["cycle"] = static_cast<std::uint64_t>(e.cycle);
        ev["kind"] = frKindName(e.kind);
        ev["node"] = static_cast<long long>(e.node);
        ev["addr"] = static_cast<std::uint64_t>(e.addr);
        ev["arg"] = e.arg;
        if (e.tag0)
            ev["tag"] = e.tag0;
        if (e.tag1)
            ev["state"] = e.tag1;
        if (e.tag2)
            ev["event"] = e.tag2;
        out.push(std::move(ev));
    }
    return out;
}

void
FlightRecorder::dumpText(std::FILE *out, std::size_t max_events) const
{
    const std::uint64_t n =
        std::min<std::uint64_t>(retained(), max_events);
    for (std::uint64_t i = 0; i < n; ++i) {
        const Event &e = ring[(head - n + i) & mask];
        std::fprintf(out,
                     "  @%llu %-12s node=%-3d addr=0x%llx arg=%llu",
                     static_cast<unsigned long long>(e.cycle),
                     frKindName(e.kind), e.node,
                     static_cast<unsigned long long>(e.addr),
                     static_cast<unsigned long long>(e.arg));
        if (e.tag0)
            std::fprintf(out, " %s", e.tag0);
        if (e.tag1)
            std::fprintf(out, " %s", e.tag1);
        if (e.tag2)
            std::fprintf(out, " %s", e.tag2);
        std::fputc('\n', out);
    }
}

} // namespace inpg
