#include "harness/system_config.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/presets.hh"
#include "noc/topology.hh"
#include "noc/vc_state.hh"

namespace inpg {

Mechanism
parseMechanism(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "original" || n == "base" || n == "baseline")
        return Mechanism::Original;
    if (n == "ocor")
        return Mechanism::Ocor;
    if (n == "inpg")
        return Mechanism::Inpg;
    if (n == "inpg+ocor" || n == "inpg_ocor" || n == "both")
        return Mechanism::InpgOcor;
    fatal("unknown mechanism '%s'", name.c_str());
}

LockKind
parseLockKind(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "tas")
        return LockKind::Tas;
    if (n == "ttl" || n == "ticket")
        return LockKind::Ticket;
    if (n == "abql")
        return LockKind::Abql;
    if (n == "mcs")
        return LockKind::Mcs;
    if (n == "qsl")
        return LockKind::Qsl;
    fatal("unknown lock kind '%s'", name.c_str());
}

void
SystemConfig::finalize()
{
    coh.numNodes = noc.numNodes();
    noc.switchPolicy = usesOcor(mechanism) ? SwitchPolicy::Priority
                                           : SwitchPolicy::RoundRobin;
    noc.agingQuantum = sync.ocor.agingQuantum;
    sync.ocorEnabled = usesOcor(mechanism);
    if (noc.topology != TopologyKind::CMesh && noc.concentration != 1)
        fatal("concentration %d requires topology=cmesh",
              noc.concentration);
    // The router tracks a port's VCs in one candidate-mask word.
    if (noc.vcsPerVnet < 1)
        fatal("vcs_per_vnet must be >= 1 (got %d)", noc.vcsPerVnet);
    if (noc.vcDepth < 1)
        fatal("vc_depth must be >= 1 (got %d)", noc.vcDepth);
    if (noc.vcDepth > VcStateArray::MAX_DEPTH) {
        fatal("vc_depth %d exceeds the router's %d-flit VC buffer limit",
              noc.vcDepth, VcStateArray::MAX_DEPTH);
    }
    if (noc.totalVcs() > VcStateArray::MAX_VCS) {
        fatal("%d vnets x %d vcs_per_vnet = %d VCs per port exceeds the "
              "router's %d-VC limit",
              noc.numVnets, noc.vcsPerVnet, noc.totalVcs(),
              VcStateArray::MAX_VCS);
    }
    if (noc.topology == TopologyKind::Torus && noc.escapeVcs &&
        (noc.vcsPerVnet < 2 || noc.vcsPerVnet % 2 != 0)) {
        fatal("torus escape VCs need an even vcs_per_vnet >= 2 (got %d) "
              "to split each vnet into two dateline classes",
              noc.vcsPerVnet);
    }
    // NB: inpg.numBigRouters is NOT zeroed for non-iNPG mechanisms --
    // the same config is reused across mechanism sweeps; System gates
    // deployment on usesInpg(mechanism) instead. Big routers are
    // router-grid sites, so the clamp is against numRouters.
    if (inpg.numBigRouters > noc.numRouters())
        inpg.numBigRouters = noc.numRouters();
    if (const char *env = std::getenv("INPG_TELEMETRY"))
        telemetry.applySpec(env);
    if (threads < 1)
        threads = 1;
    if (threads > 64)
        threads = 64;
}

const std::vector<std::string> &
SystemConfig::overrideKeys()
{
    static const std::vector<std::string> keys = {
        "topology", "escape_vcs", "threads",
        "vcs_per_vnet", "vc_depth", "l1_latency", "l2_latency",
        "mem_latency", "big_routers", "barrier_entries", "ei_entries",
        "barrier_ttl", "spin_interval", "qsl_retry_limit",
        "context_switch_cost", "wakeup_cost", "seed", "mechanism", "lock",
        "telemetry", "watchdog_window", "timeseries_epoch",
        "recorder_capacity", "drop_dir_response"};
    return keys;
}

void
SystemConfig::applyOverrides(const Config &cfg)
{
    // "topology=kind:WxH[xC]" is the one fabric knob: mesh:16x16,
    // torus:8x8, cmesh:8x8x4, a bare WxH (mesh), or a named preset
    // ("32x32", "1024c"). Strict parse -- unknown kinds and malformed
    // geometry are fatal.
    if (cfg.has("topology")) {
        std::string t = toLower(cfg.getString("topology"));
        if (const char *spec = lookupTopologyPreset(t))
            t = spec;
        TopologySpec::parse(t).applyTo(noc);
    }
    noc.escapeVcs = cfg.getBool("escape_vcs", noc.escapeVcs);
    threads = static_cast<int>(cfg.getInt("threads", threads));
    noc.vcsPerVnet = static_cast<int>(
        cfg.getInt("vcs_per_vnet", noc.vcsPerVnet));
    noc.vcDepth = static_cast<int>(cfg.getInt("vc_depth", noc.vcDepth));
    coh.l1Latency = static_cast<Cycle>(
        cfg.getInt("l1_latency", static_cast<long long>(coh.l1Latency)));
    coh.l2Latency = static_cast<Cycle>(
        cfg.getInt("l2_latency", static_cast<long long>(coh.l2Latency)));
    coh.memLatency = static_cast<Cycle>(
        cfg.getInt("mem_latency",
                   static_cast<long long>(coh.memLatency)));
    inpg.numBigRouters = static_cast<int>(
        cfg.getInt("big_routers", inpg.numBigRouters));
    inpg.barrierEntries = static_cast<std::size_t>(
        cfg.getInt("barrier_entries",
                   static_cast<long long>(inpg.barrierEntries)));
    inpg.eiEntries = static_cast<std::size_t>(cfg.getInt(
        "ei_entries", static_cast<long long>(inpg.eiEntries)));
    inpg.barrierTtl = static_cast<Cycle>(cfg.getInt(
        "barrier_ttl", static_cast<long long>(inpg.barrierTtl)));
    sync.spinInterval = static_cast<Cycle>(cfg.getInt(
        "spin_interval", static_cast<long long>(sync.spinInterval)));
    sync.qslRetryLimit = static_cast<int>(
        cfg.getInt("qsl_retry_limit", sync.qslRetryLimit));
    sync.contextSwitchCost = static_cast<Cycle>(
        cfg.getInt("context_switch_cost",
                   static_cast<long long>(sync.contextSwitchCost)));
    sync.wakeupCost = static_cast<Cycle>(cfg.getInt(
        "wakeup_cost", static_cast<long long>(sync.wakeupCost)));
    seed = static_cast<std::uint64_t>(cfg.getInt(
        "seed", static_cast<long long>(seed)));
    if (cfg.has("mechanism"))
        mechanism = parseMechanism(cfg.getString("mechanism"));
    if (cfg.has("lock"))
        lockKind = parseLockKind(cfg.getString("lock"));
    if (cfg.has("telemetry"))
        telemetry.applySpec(cfg.getString("telemetry"));
    // Diagnosis-layer knobs. A non-zero window/epoch enables the
    // watchdog/sampler directly (no separate telemetry token needed).
    telemetry.watchdogWindow = static_cast<Cycle>(
        cfg.getInt("watchdog_window",
                   static_cast<long long>(telemetry.watchdogWindow)));
    telemetry.timeseriesEpoch = static_cast<Cycle>(
        cfg.getInt("timeseries_epoch",
                   static_cast<long long>(telemetry.timeseriesEpoch)));
    telemetry.recorderCapacity = static_cast<std::size_t>(
        cfg.getInt("recorder_capacity",
                   static_cast<long long>(telemetry.recorderCapacity)));
    coh.dropDirResponseNth = static_cast<std::uint64_t>(
        cfg.getInt("drop_dir_response",
                   static_cast<long long>(coh.dropDirResponseNth)));
    finalize();
}

std::string
SystemConfig::describe() const
{
    TopologySpec spec;
    spec.kind = noc.topology;
    spec.width = noc.meshWidth;
    spec.height = noc.meshHeight;
    spec.concentration = noc.concentration;
    std::ostringstream os;
    os << "Cores      : " << numCores() << " (" << spec.canonical()
       << ", XY routing, 2-stage router, " << noc.vcsPerVnet
       << " VCs/vnet x " << noc.numVnets << " vnets, " << noc.vcDepth
       << "-flit VCs)\n";
    os << "L1 cache   : private, " << coh.l1Latency
       << "-cycle latency, " << coh.lineSize << " B blocks\n";
    os << "L2 cache   : shared, 1 bank/tile, " << coh.l2Latency
       << "-cycle latency, directory MOESI\n";
    os << "Memory     : " << coh.memLatency
       << "-cycle DRAM, 8 controllers\n";
    os << "Mechanism  : " << mechanismName(mechanism) << "\n";
    os << "Lock       : " << lockKindName(lockKind) << " (spin interval "
       << sync.spinInterval << ", QSL retry limit "
       << sync.qslRetryLimit << ", ctx-switch "
       << sync.contextSwitchCost << " + wakeup " << sync.wakeupCost
       << " cycles)\n";
    if (usesInpg(mechanism)) {
        os << "iNPG       : " << inpg.numBigRouters << " big routers, "
           << inpg.barrierEntries << "-entry barrier table, "
           << inpg.eiEntries << " EI entries, TTL " << inpg.barrierTtl
           << "\n";
    }
    if (usesOcor(mechanism)) {
        os << "OCOR       : " << sync.ocor.priorityLevels << " levels, "
           << sync.ocor.retriesPerLevel
           << " retries/level, aging quantum " << sync.ocor.agingQuantum
           << "\n";
    }
    return os.str();
}

} // namespace inpg
