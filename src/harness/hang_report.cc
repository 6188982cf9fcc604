#include "harness/hang_report.hh"

#include "coh/coherent_system.hh"
#include "harness/system.hh"
#include "inpg/big_router.hh"
#include "noc/network.hh"
#include "telemetry/run_record.hh"

namespace inpg {

JsonValue
buildHangReport(System &sys, Cycle now, const char *reason)
{
    Simulator &sim = sys.sim();
    CoherentSystem &mem = sys.coherent();
    Network &net = mem.network();
    Telemetry *telem = sys.telemetry();

    JsonValue doc = JsonValue::object();
    doc["report"] = "inpg-hang-report";
    doc["schema_version"] = HANG_REPORT_SCHEMA_VERSION;
    doc["reason"] = reason;
    doc["cycle"] = static_cast<std::uint64_t>(now);
    doc["mechanism"] = mechanismName(sys.config().mechanism);
    doc["lock"] = lockKindName(sys.config().lockKind);

    if (telem && telem->watchdog) {
        JsonValue wd = JsonValue::object();
        wd["window"] =
            static_cast<std::uint64_t>(telem->watchdog->window());
        wd["last_progress_at"] = static_cast<std::uint64_t>(
            telem->watchdog->lastProgressAt());
        wd["polls"] = telem->watchdog->polls();
        doc["watchdog"] = std::move(wd);
    }

    JsonValue kernel = JsonValue::object();
    kernel["active_components"] =
        static_cast<std::uint64_t>(sim.activeComponents());
    kernel["components"] =
        static_cast<std::uint64_t>(sim.numComponents());
    kernel["ff_jumps"] = sim.fastForwardJumps();
    kernel["ff_cycles"] = sim.cyclesFastForwarded();
    doc["kernel"] = std::move(kernel);
    doc["event_queue"] = sim.events().debugJson();

    // In-flight transaction waterfall (needs the packet tracker; the
    // watchdog can run without it, so record its absence explicitly).
    if (telem && telem->packets) {
        doc["packets_in_flight"] = telem->packets->inFlightJson(now);
    } else {
        doc["packets_in_flight"] =
            "unavailable (enable telemetry=packets)";
    }

    // Only wedged components are itemized: on a hung 8x8 mesh the
    // idle majority is noise. Summary counts cover the rest.
    JsonValue routers = JsonValue::array();
    JsonValue nis = JsonValue::array();
    JsonValue dirs = JsonValue::array();
    JsonValue barriers = JsonValue::array();
    std::uint64_t idle_routers = 0, idle_nis = 0, idle_dirs = 0;
    // Routers/NIs/barrier tables live on the router grid; directories
    // are per node. With concentration=1 the nested walk reproduces
    // the historical flat loop, so hang reports stay byte-identical.
    const int conc = net.topology().concentration();
    for (NodeId rt = 0; rt < net.numRouters(); ++rt) {
        Router &r = net.router(rt);
        if (r.bufferedFlits() > 0)
            routers.push(r.debugJson(now));
        else
            ++idle_routers;
        NetworkInterface &ni = net.ni(rt);
        if (!ni.idle())
            nis.push(ni.debugJson());
        else
            ++idle_nis;
        for (int k = 0; k < conc; ++k) {
            Directory &dir = mem.directory(rt * conc + k);
            if (!dir.idle())
                dirs.push(dir.debugJson(now));
            else
                ++idle_dirs;
        }
        if (auto *br = dynamic_cast<BigRouter *>(&r)) {
            if (br->generator().barrierTable().numBarriers() > 0) {
                JsonValue bj = JsonValue::object();
                bj["node"] = static_cast<long long>(
                    net.topology().firstNodeOf(rt));
                bj["table"] =
                    br->generator().barrierTable().debugJson(now);
                barriers.push(std::move(bj));
            }
        }
    }
    doc["routers"] = std::move(routers);
    doc["idle_routers"] = idle_routers;
    doc["nis"] = std::move(nis);
    doc["idle_nis"] = idle_nis;
    doc["directories"] = std::move(dirs);
    doc["idle_directories"] = idle_dirs;
    doc["barrier_tables"] = std::move(barriers);

    JsonValue l1s = JsonValue::array();
    std::uint64_t idle_l1s = 0;
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        L1Controller &l1 = mem.l1(n);
        if (l1.busy() || l1.deferredForwardCount() > 0) {
            JsonValue lj = JsonValue::object();
            lj["core"] = static_cast<long long>(n);
            lj["state"] = l1.debugState();
            l1s.push(std::move(lj));
        } else {
            ++idle_l1s;
        }
    }
    doc["l1s"] = std::move(l1s);
    doc["idle_l1s"] = idle_l1s;

    if (telem && telem->recorder) {
        JsonValue fr = telem->recorder->countsJson();
        fr["events"] = telem->recorder->toJson();
        doc["flight_recorder"] = std::move(fr);
    }
    return doc;
}

} // namespace inpg
