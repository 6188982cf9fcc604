#include "harness/system.hh"

#include "coh/protocol_verify.hh"
#include "common/logging.hh"
#include "harness/hang_report.hh"
#include "inpg/big_router.hh"
#include "noc/topology.hh"
#include "sim/parallel/parallel_kernel.hh"

namespace inpg {

System::System(SystemConfig config) : cfg(std::move(config))
{
    cfg.finalize();
    // Wraparound fabrics are only admitted with a proof: the routing
    // function's channel-dependency graph must be acyclic, or the
    // fabric can deadlock no matter what the protocol tables say. A
    // torus without escape VCs fails here with the ring cycle as the
    // witness. Meshes (incl. cmesh) are minimal dimension-order
    // fabrics -- acyclic by construction -- so the check is skipped.
    if (cfg.noc.topology == TopologyKind::Torus) {
        const auto diags = verifyChannelDeps(*makeTopology(cfg.noc));
        if (!diags.empty())
            fatal("topology rejected: %s",
                  diags.front().toString().c_str());
    }
    if (cfg.telemetry.any()) {
        telem = std::make_unique<Telemetry>(cfg.telemetry,
                                            cfg.numCores());
        kernel.setTelemetry(telem.get());
    }
    RouterFactory factory = nullptr;
    if (usesInpg(cfg.mechanism) && cfg.inpg.numBigRouters > 0)
        factory = makeInpgRouterFactory(cfg.inpg, cfg.coh);
    memSys = std::make_unique<CoherentSystem>(cfg.noc, cfg.coh, kernel,
                                              std::move(factory));
    if (telem)
        memSys->setTelemetry(telem.get());
    lockMgr = std::make_unique<LockManager>(*memSys, kernel, cfg.sync);
    if (telem && (telem->timeseries || telem->watchdog))
        wireDiagnosis();
    // Last: every Ticking must already be registered (the kernel
    // steals router slots; Simulator::addTicking refuses afterwards).
    if (cfg.threads > 1)
        parKernel = std::make_unique<ParallelKernel>(
            kernel, memSys->network(), cfg.threads);
}

System::~System() = default;

void
System::wireDiagnosis()
{
    Network &net = memSys->network();
    if (TimeseriesSampler *ts = telem->timeseries) {
        const Simulator *k = &kernel;
        ts->addGauge("events.pending", [k] {
            return static_cast<std::uint64_t>(k->events().size());
        });
        ts->addGauge("events.executed_total",
                     [k] { return k->events().executedTotal(); });
        // Routers and NIs are router-grid resources; directories are
        // per-node. The nested walk keeps the concentration=1
        // registration order identical to the historical flat loop.
        const int conc = net.topology().concentration();
        for (NodeId rt = 0; rt < net.numRouters(); ++rt) {
            const Router *r = &net.router(rt);
            ts->addGauge(format("router.%d.occ", rt), [r] {
                return static_cast<std::uint64_t>(r->bufferedFlits());
            });
            ts->addCounter(format("router.%d.flits_sent", rt),
                           net.router(rt).stats.flitsSent.address());
            for (int k = 0; k < conc; ++k) {
                const NodeId n = rt * conc + k;
                const Directory *d = &memSys->directory(n);
                ts->addGauge(format("dir.%d.qdepth", n), [d] {
                    return static_cast<std::uint64_t>(d->queueDepth());
                });
            }
            ts->addCounter(
                format("ni.%d.delivered", rt),
                net.ni(rt).stats.packetsDelivered.address());
        }
    }
    if (ProgressWatchdog *wd = telem->watchdog) {
        // Progress = packet deliveries + retired memory ops. Event
        // executions deliberately do NOT count: spinning cores fire
        // events throughout a genuine protocol deadlock.
        const int conc = net.topology().concentration();
        for (NodeId rt = 0; rt < net.numRouters(); ++rt) {
            wd->watchCounter(
                net.ni(rt).stats.packetsDelivered.address());
            for (int k = 0; k < conc; ++k)
                wd->watchCounter(
                    memSys->l1(rt * conc + k).stats.opsCompleted.address());
        }
        wd->setOnTrip([this](Cycle at, const char *reason) {
            JsonValue report = buildHangReport(*this, at, reason);
            throw SimHangError(
                format("watchdog tripped (%s) at cycle %llu: no "
                       "simulation progress for %llu executed cycles",
                       reason, static_cast<unsigned long long>(at),
                       static_cast<unsigned long long>(
                           telem->watchdog->window())),
                report.dump(2));
        });
    }
}

void
System::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    // Harness predicates are pure state functions (workload/protocol
    // completion), so idle spans may be skipped in one jump.
    if (!kernel.runUntil(done, max_cycles)) {
        fatal("simulation did not converge within %llu cycles "
              "(mechanism %s, lock %s)",
              static_cast<unsigned long long>(max_cycles),
              mechanismName(cfg.mechanism),
              lockKindName(cfg.lockKind));
    }
}

int
System::deployedBigRouters() const
{
    int n = 0;
    for (NodeId id = 0; id < memSys->network().numRouters(); ++id)
        n += memSys->network().router(id).isBigRouter() ? 1 : 0;
    return n;
}

std::uint64_t
System::totalEarlyInvs() const
{
    std::uint64_t total = 0;
    for (NodeId id = 0; id < memSys->network().numRouters(); ++id) {
        auto *br = dynamic_cast<BigRouter *>(&memSys->network().router(id));
        if (br)
            total += br->generator().stats.earlyInvsGenerated;
    }
    return total;
}

StatsRegistry
System::buildStatsRegistry() const
{
    StatsRegistry reg;
    for (const auto &lock : lockMgr->locks())
        reg.addGroup(format("lock.%s", lock->name().c_str()),
                     &lock->stats);
    Network &net = memSys->network();
    // Per-node (l1/dir) and per-router (router/ni/inpg) groups, nested
    // so the concentration=1 group order matches the historical flat
    // loop byte-for-byte in stats snapshots.
    const int conc = net.topology().concentration();
    for (NodeId rt = 0; rt < net.numRouters(); ++rt) {
        for (int k = 0; k < conc; ++k) {
            const NodeId n = rt * conc + k;
            reg.addGroup(format("l1.%d", n), &memSys->l1(n).stats);
            reg.addGroup(format("dir.%d", n),
                         &memSys->directory(n).stats);
        }
        reg.addGroup(format("router.%d", rt), &net.router(rt).stats);
        reg.addGroup(format("ni.%d", rt), &net.ni(rt).stats);
        if (auto *br = dynamic_cast<BigRouter *>(&net.router(rt))) {
            reg.addGroup(format("inpg.gen.%d", rt),
                         &br->generator().stats);
            reg.addGroup(format("inpg.table.%d", rt),
                         &br->generator().barrierTable().stats);
        }
    }
    for (int i = 0; i < memSys->numMemoryControllers(); ++i)
        reg.addGroup(format("mc.%d", i),
                     &memSys->memoryController(i).stats);
    if (telem && telem->packets)
        reg.addGroup("noc.packets", &telem->packets->stats);
    if (telem && telem->kernel) {
        reg.addHistogram("kernel.events_per_cycle",
                         &telem->kernel->eventsPerCycleHist());
        reg.addHistogram("kernel.wheel_occupancy",
                         &telem->kernel->wheelOccupancyHist());
        reg.addHistogram("kernel.ff_skip",
                         &telem->kernel->ffSkipHist());
    }
    const Simulator *k = &kernel;
    reg.addScalar("sim.cycles",
                  [k] { return static_cast<double>(k->now()); });
    reg.addScalar("sim.events_executed", [k] {
        return static_cast<double>(k->events().executedTotal());
    });
    return reg;
}

JsonValue
System::statsSnapshot(bool include_parallel_profile) const
{
    JsonValue doc = buildStatsRegistry().snapshot();
    if (telem && telem->lco)
        doc["lco"] = telem->lco->summary().toJson();
    if (telem && telem->trace) {
        JsonValue tr = JsonValue::object();
        tr["events"] =
            static_cast<std::uint64_t>(telem->trace->eventCount());
        tr["dropped"] =
            static_cast<std::uint64_t>(telem->trace->droppedCount());
        doc["trace"] = tr;
    }
    if (telem && telem->timeseries) {
        JsonValue ts = JsonValue::object();
        ts["epoch"] = static_cast<std::uint64_t>(
            telem->timeseries->epochLength());
        ts["rows"] =
            static_cast<std::uint64_t>(telem->timeseries->rows());
        ts["dropped_rows"] = telem->timeseries->droppedRows();
        doc["timeseries"] = ts;
    }
    if (telem && telem->recorder)
        doc["recorder"] = telem->recorder->countsJson();
    // Absent at threads == 1, so serial snapshots are byte-identical
    // to pre-profiler ones; the flag lets the parallel-equivalence
    // tests compare thread counts on the simulated sections alone.
    if (include_parallel_profile && parKernel)
        doc["parallel_profile"] = parKernel->profile().toJson();
    return doc;
}

} // namespace inpg
