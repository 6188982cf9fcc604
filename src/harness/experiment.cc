#include "harness/experiment.hh"

#include <algorithm>
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

RunRecord
runIdentity(const RunConfig &run_cfg)
{
    SystemConfig sys_cfg = run_cfg.system;
    sys_cfg.finalize();
    RunRecord r;
    if (const char *sha = std::getenv("INPG_GIT_SHA"))
        r.gitSha = sha;
    if (const char *dirty = std::getenv("INPG_GIT_DIRTY"))
        r.gitDirty = std::string(dirty) == "1";
    r.compiler = runRecordCompiler();

    r.benchmark = run_cfg.profile.name;
    r.mechanism = mechanismName(sys_cfg.mechanism);
    r.lock = lockKindName(sys_cfg.lockKind);
    r.topology = TopologySpec{sys_cfg.noc.topology, sys_cfg.noc.meshWidth,
                              sys_cfg.noc.meshHeight,
                              sys_cfg.noc.concentration}
                     .canonical();
    r.cores = sys_cfg.numCores();
    r.bigRouters = sys_cfg.inpg.numBigRouters;
    r.threads = sys_cfg.threads;
    r.seed = sys_cfg.seed;
    r.csScale = run_cfg.csScale;
    r.barrierEntries = sys_cfg.inpg.barrierEntries;
    r.eiEntries = sys_cfg.inpg.eiEntries;
    r.barrierTtl = sys_cfg.inpg.barrierTtl;
    r.spinInterval = sys_cfg.sync.spinInterval;
    r.contextSwitchCost = sys_cfg.sync.contextSwitchCost;
    r.wakeupCost = sys_cfg.sync.wakeupCost;
    r.numLocks = run_cfg.profile.numLocks;
    if (run_cfg.lockHome != INVALID_NODE)
        r.lockHome = std::to_string(run_cfg.lockHome);
    return r;
}

RunRecord
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

    RunRecord r = runIdentity(run_cfg);
    r.roiCycles = workload.roiFinish();
    r.csCompleted = workload.csCompleted();
    r.parallelCycles = workload.totalCycles(ThreadPhase::Parallel);
    r.cohCycles = workload.totalCycles(ThreadPhase::Coh) +
                  workload.totalCycles(ThreadPhase::Sleep);
    r.sleepCycles = workload.totalCycles(ThreadPhase::Sleep);
    r.cseCycles = workload.totalCycles(ThreadPhase::Cse);
    for (int c = 0; c < sys_cfg.numCores(); ++c)
        r.lockCohCycles +=
            system.coherent().l1(c).stats.lockCohCycles;

    const CohStats &cs = system.coherent().cohStats();
    r.rttMean = cs.rttHistogram.mean();
    r.rttMax = cs.rttHistogram.max();
    r.rttCount = cs.rttHistogram.count();
    RunRtt &rtt = r.rtt.emplace(RunRtt{{},
                                       cs.rttEarly.count(),
                                       cs.rttHome.count(),
                                       cs.rttHistogram});
    for (const SampleStat &s : cs.rttPerCore)
        rtt.perCoreMean.push_back(s.mean());

    r.earlyInvs = system.totalEarlyInvs();
    for (const auto &lock : system.locks().locks()) {
        r.sleeps += lock->stats.sleeps;
        r.wakeups += lock->stats.wakeups;
    }

    const std::size_t shown = std::min<std::size_t>(
        workload.threads().size(), RUN_RECORD_PHASE_THREADS);
    for (std::size_t t = 0; t < shown; ++t) {
        std::vector<PhaseMark> &marks = r.phases.emplace_back();
        for (const auto &ev : workload.threads()[t]->recorder().timeline())
            marks.push_back({ev.at, static_cast<int>(ev.phase)});
    }

    Telemetry *telem = system.telemetry();
    if (telem && telem->trace && !run_cfg.traceOutPath.empty()) {
        exportThreadTimelines(workload, system.sim().now(),
                              *telem->trace);
        telem->trace->writeJsonFile(run_cfg.traceOutPath);
    }
    if (telem && telem->timeseries &&
        !run_cfg.timeseriesOutPath.empty())
        telem->timeseries->writeFile(run_cfg.timeseriesOutPath);
    r.stats = system.statsSnapshot();
    if (const JsonValue *lco = r.stats.find("lco"))
        r.lco = *lco;
    if (const JsonValue *ts = r.stats.find("timeseries"))
        r.timeseries = *ts;
    return r;
}

std::vector<RunRecord>
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
