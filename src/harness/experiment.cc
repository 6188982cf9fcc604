#include "harness/experiment.hh"

#include <cstdlib>
#include <iterator>

#include "common/logging.hh"
#include "harness/sweep_runner.hh"
#include "noc/topology.hh"
#include "telemetry/trace_event.hh"
#include "workload/phase_recorder.hh"

namespace inpg {

namespace {

/**
 * Emit each worker's phase timeline as one Chrome-trace track: a
 * duration slice per Parallel/Coh/Sleep/Cse interval. Done at export
 * time from the PhaseRecorder history, so the hot path records
 * nothing extra.
 */
void
exportThreadTimelines(const Workload &workload, Cycle end,
                      TraceEventSink &sink)
{
    for (const auto &tc : workload.threads()) {
        const auto tid =
            static_cast<std::uint32_t>(tc->threadId());
        sink.nameTrack(TrackGroup::Threads, tid,
                       format("thread %d", tc->threadId()));
        const auto &events = tc->recorder().timeline();
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].phase == ThreadPhase::Done) {
                sink.instant(TrackGroup::Threads, tid, "done",
                             events[i].at);
                continue;
            }
            const Cycle stop = i + 1 < events.size()
                                   ? events[i + 1].at
                                   : end;
            if (stop > events[i].at) {
                sink.duration(TrackGroup::Threads, tid,
                              threadPhaseName(events[i].phase),
                              events[i].at, stop - events[i].at);
            }
        }
    }
}

} // namespace

std::string
traceOutPathFor(const std::string &base, Mechanism m)
{
    std::string tag = mechanismName(m);
    for (char &c : tag)
        if (c == '+')
            c = '_';
    const auto dot = base.rfind('.');
    const auto slash = base.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + "." + tag;
    return base.substr(0, dot) + "." + tag + base.substr(dot);
}

RunResult
runBenchmark(const RunConfig &run_cfg)
{
    SystemConfig sys_cfg = run_cfg.system;
    if (!run_cfg.traceOutPath.empty()) {
        sys_cfg.telemetry.traceEvents = true;
        sys_cfg.telemetry.packets = true;
    }
    if (!run_cfg.timeseriesOutPath.empty() &&
        sys_cfg.telemetry.timeseriesEpoch == 0)
        sys_cfg.telemetry.timeseriesEpoch = DEFAULT_TIMESERIES_EPOCH;
    sys_cfg.finalize();
    System system(sys_cfg);

    Workload::Params wp;
    wp.profile = run_cfg.profile;
    wp.threads = sys_cfg.numCores();
    wp.csScale = run_cfg.csScale;
    wp.lockHome = run_cfg.lockHome;
    wp.lockKind = sys_cfg.lockKind;
    wp.seed = sys_cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());

    workload.start();
    system.runUntil([&] { return workload.done(); }, run_cfg.maxCycles);

    RunResult r;
    r.benchmark = run_cfg.profile.name;
    r.mechanism = sys_cfg.mechanism;
    r.lockKind = sys_cfg.lockKind;
    r.roiCycles = workload.roiFinish();
    r.csCompleted = workload.csCompleted();
    r.parallelCycles = workload.totalCycles(ThreadPhase::Parallel);
    r.cohCycles = workload.totalCycles(ThreadPhase::Coh) +
                  workload.totalCycles(ThreadPhase::Sleep);
    r.sleepCycles = workload.totalCycles(ThreadPhase::Sleep);
    r.cseCycles = workload.totalCycles(ThreadPhase::Cse);

    const CohStats &cs = system.coherent().cohStats();
    r.rttMean = cs.rttHistogram.mean();
    r.rttMax = cs.rttHistogram.max();
    r.rttCount = cs.rttHistogram.count();
    r.rttHistogram = cs.rttHistogram;
    r.rttPerCoreMean.reserve(cs.rttPerCore.size());
    for (const auto &s : cs.rttPerCore)
        r.rttPerCoreMean.push_back(s.mean());

    for (int c = 0; c < sys_cfg.numCores(); ++c)
        r.lockCohCycles +=
            system.coherent().l1(c).stats.value("lock_coh_cycles");

    r.earlyInvs = system.totalEarlyInvs();
    for (const auto &lock : system.locks().locks()) {
        r.sleeps += lock->stats.value("sleeps");
        r.wakeups += lock->stats.value("wakeups");
    }

    Telemetry *telem = system.telemetry();
    if (telem && telem->lco)
        r.lco = telem->lco->summary();
    if (telem && telem->trace && !run_cfg.traceOutPath.empty()) {
        exportThreadTimelines(workload, system.sim().now(),
                              *telem->trace);
        telem->trace->writeJsonFile(run_cfg.traceOutPath);
    }
    if (telem && telem->timeseries &&
        !run_cfg.timeseriesOutPath.empty())
        telem->timeseries->writeFile(run_cfg.timeseriesOutPath);
    r.stats = system.statsSnapshot();
    return r;
}

RunRecord
makeRunRecord(const RunConfig &cfg, const RunResult &r)
{
    // Re-finalize a copy so derived fields (core count, big-router
    // count when iNPG is off, thread clamp) match
    // what runBenchmark() actually simulated.
    SystemConfig sys = cfg.system;
    sys.mechanism = r.mechanism; // runAllMechanisms varies it per run
    sys.lockKind = r.lockKind;
    sys.finalize();

    RunRecord rec;
    if (const char *sha = std::getenv("INPG_GIT_SHA"))
        rec.gitSha = sha;
    if (const char *dirty = std::getenv("INPG_GIT_DIRTY"))
        rec.gitDirty = std::string(dirty) == "1";
    rec.compiler = runRecordCompiler();

    rec.benchmark = r.benchmark;
    rec.mechanism = mechanismName(r.mechanism);
    rec.lock = lockKindName(r.lockKind);
    TopologySpec spec;
    spec.kind = sys.noc.topology;
    spec.width = sys.noc.meshWidth;
    spec.height = sys.noc.meshHeight;
    spec.concentration = sys.noc.concentration;
    rec.topology = spec.canonical();
    rec.cores = sys.numCores();
    rec.bigRouters = sys.inpg.numBigRouters;
    rec.threads = sys.threads;
    rec.seed = sys.seed;
    rec.csScale = cfg.csScale;
    rec.barrierEntries = sys.inpg.barrierEntries;
    rec.eiEntries = sys.inpg.eiEntries;
    rec.barrierTtl = sys.inpg.barrierTtl;
    rec.spinInterval = sys.sync.spinInterval;
    rec.contextSwitchCost = sys.sync.contextSwitchCost;
    rec.wakeupCost = sys.sync.wakeupCost;
    rec.numLocks = cfg.profile.numLocks;

    rec.roiCycles = r.roiCycles;
    rec.csCompleted = r.csCompleted;
    rec.parallelCycles = r.parallelCycles;
    rec.cohCycles = r.cohCycles;
    rec.sleepCycles = r.sleepCycles;
    rec.cseCycles = r.cseCycles;
    rec.lockCohCycles = r.lockCohCycles;
    rec.rttMean = r.rttMean;
    rec.rttMax = r.rttMax;
    rec.rttCount = r.rttCount;
    rec.earlyInvs = r.earlyInvs;
    rec.sleeps = r.sleeps;
    rec.wakeups = r.wakeups;

    if (const JsonValue *lco = r.stats.find("lco"))
        rec.lco = *lco;
    if (const JsonValue *ts = r.stats.find("timeseries"))
        rec.timeseries = *ts;
    rec.stats = r.stats;
    return rec;
}

std::vector<RunResult>
runAllMechanisms(RunConfig cfg)
{
    // The four mechanism runs are independent; fan them across the
    // sweep pool (results come back in ALL_MECHANISMS order). A shared
    // trace path would be written by four workers at once, so each run
    // gets "<stem>.<mechanism><ext>" instead.
    std::vector<RunConfig> configs;
    configs.reserve(std::size(ALL_MECHANISMS));
    for (Mechanism m : ALL_MECHANISMS) {
        cfg.system.mechanism = m;
        configs.push_back(cfg);
        if (!cfg.traceOutPath.empty())
            configs.back().traceOutPath =
                traceOutPathFor(cfg.traceOutPath, m);
        if (!cfg.timeseriesOutPath.empty())
            configs.back().timeseriesOutPath =
                traceOutPathFor(cfg.timeseriesOutPath, m);
    }
    return runSweep(configs);
}

} // namespace inpg
