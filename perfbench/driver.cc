/**
 * @file
 * perfbench_driver: runs one benchmark workload as a closed-loop batch
 * job and streams one JSON object per line on stdout. perfbench/run.py
 * turns the lines into the benchmark's metrics.
 *
 * A job simulates a batch of `batch` workloads whose seeds derive from
 * `seed` (sub-seed j is seed * batch + j), so one run pools enough CS
 * entries that its simulated statistics settle. It is one untimed
 * warm-up simulation of sub-seed 0, then passes over the whole batch
 * back to back (each simulation builds a fresh System + Workload, runs
 * it to completion and tears it down) while the next pass still ends
 * within `seconds` (at least one pass), then set-up-only builds until
 * SETUP_SAMPLES set-up times exist. With trace=1 the job then adds, on
 * sub-seed 0:
 *
 *  - one traced simulation: a span around each public call, the host
 *    phase profile attached and GoldenMemory fed from every L1. The
 *    profile needs the serial kernel, so a threads>1 workload runs its
 *    traced simulation at threads=1 (bit-identical results), after one
 *    untraced threads=1 simulation that is its overhead baseline and
 *    its serial reference for the parallel speed-up;
 *  - one telemetry=lco simulation (LCO leg attribution);
 *  - with model_check_states > 0, two identical runModelCheck calls.
 *
 * Usage (any other key is rejected):
 *   perfbench_driver benchmark=nab lock=tas mechanism=inpg \
 *       topology=mesh:8x8 threads=1 cs_scale=0.1 seed=1 batch=4 \
 *       seconds=10 [workload_threads=N] [trace=1] \
 *       [model_check_states=200000] [spans_out=FILE]
 *
 * Output lines carry "kind": "sim" (one simulation; "role" is warmup,
 * measured, serial, traced or lco), "pass" (pooled metrics of one pass
 * over the batch), "setup" (a set-up-only build), "verify" (model
 * checker), "layers" (per-layer numbers of the traced part) and
 * finally "end" (peak RSS). A failed simulation -- a FatalError such as
 * a SimHangError or a stop at MAX_CYCLES, or a failed correctness check --
 * is a "sim" line with ok=false, and its pass has ok=false; the job
 * goes on.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coh/golden_memory.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "harness/system.hh"
#include "inpg/big_router.hh"
#include "sim/parallel/parallel_kernel.hh"
#include "sim/parallel/parallel_profile.hh"
#include "telemetry/json.hh"
#include "verify/model_check.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

using namespace inpg;

namespace {

using Clock = std::chrono::steady_clock;

/** A simulation still running after this many cycles has hung. */
constexpr Cycle MAX_CYCLES = 50'000'000;

/** Set-up times a job collects at least, for a steady median. */
constexpr int SETUP_SAMPLES = 15;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Spans kept in memory and written out once, as a Chrome trace. */
class SpanLog
{
  public:
    SpanLog() : origin(Clock::now()) {}

    void
    open(std::string name)
    {
        const int parent = stack.empty() ? -1 : static_cast<int>(stack.back());
        spans.push_back(Span{std::move(name), since(origin), 0, parent});
        stack.push_back(spans.size() - 1);
    }

    void
    close()
    {
        spans[stack.back()].end = since(origin);
        stack.pop_back();
    }

    JsonValue
    toJson() const
    {
        JsonValue events = JsonValue::array();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            JsonValue e = JsonValue::object();
            e["name"] = s.name;
            e["ph"] = "X";
            e["pid"] = 1;
            e["tid"] = 1;
            e["ts"] = s.start * 1e6;
            e["dur"] = (s.end - s.start) * 1e6;
            e["args"]["id"] = static_cast<std::uint64_t>(i);
            e["args"]["parent"] = static_cast<long long>(s.parent);
            events.push(std::move(e));
        }
        JsonValue doc = JsonValue::object();
        doc["traceEvents"] = std::move(events);
        return doc;
    }

  private:
    struct Span {
        std::string name;
        double start;
        double end;
        int parent;
    };

    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<std::size_t> stack;
};

/** RAII span; a null log records nothing. */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name) : spanLog(log)
    {
        if (spanLog)
            spanLog->open(name);
    }
    ~Scope()
    {
        if (spanLog)
            spanLog->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *spanLog;
};

/** FNV-1a over a string: the stats-snapshot fingerprint. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Nearest-rank percentile of a sorted, non-empty sample. */
std::uint64_t
percentile(const std::vector<std::uint64_t> &sorted, double q)
{
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/**
 * Competition-start-to-CS-entry latency of every CS entry, from each
 * thread's PhaseRecorder timeline: a competition starts at the first
 * Coh/Sleep transition after a Parallel phase and ends at Cse.
 */
std::vector<std::uint64_t>
csAccessLatencies(const Workload &w)
{
    std::vector<std::uint64_t> out;
    for (const auto &tc : w.threads()) {
        bool competing = false;
        Cycle start = 0;
        for (const auto &e : tc->recorder().timeline()) {
            if ((e.phase == ThreadPhase::Coh ||
                 e.phase == ThreadPhase::Sleep) &&
                !competing) {
                competing = true;
                start = e.at;
            } else if (e.phase == ThreadPhase::Cse && competing) {
                competing = false;
                out.push_back(e.at - start);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Counter and sample totals across every instance of one module. */
struct Totals {
    std::uint64_t counter = 0;
    double sampleSum = 0;
    std::uint64_t sampleCount = 0;

    double mean() const { return ratio(sampleSum, double(sampleCount)); }
};

template <typename Each>
Totals
total(const std::string &counter, const std::string &sample, Each &&each)
{
    Totals t;
    each([&](const StatGroup &g) {
        if (!counter.empty())
            t.counter += g.value(counter);
        if (!sample.empty()) {
            const SampleStat &s = g.sampleValue(sample);
            t.sampleSum += s.sum();
            t.sampleCount += s.count();
        }
    });
    return t;
}

struct Job {
    SystemConfig sys;
    BenchmarkProfile profile;
    double csScale = 0.1;
    std::uint64_t seed = 1;
    int batch = 1;
    int threads = 0; ///< workload threads on cores 0..threads-1; 0 = all

    /** Sub-seed `j` of the batch; batches of distinct seeds are disjoint. */
    SystemConfig
    configFor(int j) const
    {
        SystemConfig c = sys;
        c.seed = seed * static_cast<std::uint64_t>(batch) +
                 static_cast<std::uint64_t>(j);
        return c;
    }

    Workload::Params
    workloadParams(const SystemConfig &c) const
    {
        Workload::Params wp;
        wp.profile = profile;
        wp.threads = threads > 0 ? threads : c.numCores();
        wp.csScale = csScale;
        wp.lockKind = c.lockKind;
        wp.seed = c.seed;
        return wp;
    }
};

/** What one simulation produced. */
struct Sim {
    double systemBuildS = 0;
    double workloadBuildS = 0;
    double wallS = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t routers = 0;
    std::uint64_t roiCycles = 0;
    std::uint64_t threads = 0;
    std::uint64_t events = 0;
    std::uint64_t lockCohCycles = 0;
    double rttSum = 0;
    std::uint64_t rttCount = 0;
    std::vector<std::uint64_t> csAccess; ///< sorted
    std::uint64_t snapshotHash = 0;
};

/** Extra instrumentation for one simulation; all off by default. */
struct Probe {
    SpanLog *spans = nullptr;
    Simulator::HostPhaseProfile *hostProfile = nullptr;
    GoldenMemory *golden = nullptr;
    JsonValue *layers = nullptr;   ///< filled with per-layer counts
    JsonValue *parallel = nullptr; ///< filled from the parallel profile
    LcoSummary *lco = nullptr;     ///< filled when telemetry.lco is on
};

void
collectLayers(System &system, const Workload &w, JsonValue &m)
{
    CoherentSystem &coh = system.coherent();
    Network &net = coh.network();
    const Simulator &sim = system.sim();
    const int cores = coh.numCores();
    const auto l1s = [&](auto &&f) {
        for (int c = 0; c < cores; ++c)
            f(coh.l1(c).stats);
    };
    const auto dirs = [&](auto &&f) {
        for (int c = 0; c < cores; ++c)
            f(coh.directory(c).stats);
    };
    const auto routers = [&](auto &&f) {
        for (NodeId r = 0; r < net.numRouters(); ++r)
            f(net.router(r).stats);
    };
    const auto nis = [&](auto &&f) {
        for (NodeId r = 0; r < net.numRouters(); ++r)
            f(net.ni(r).stats);
    };
    const auto gens = [&](auto &&f) {
        for (NodeId r = 0; r < net.numRouters(); ++r)
            if (auto *br = dynamic_cast<BigRouter *>(&net.router(r)))
                f(br->generator().stats);
    };
    const auto locks = [&](auto &&f) {
        for (const auto &l : system.locks().locks())
            f(l->stats);
    };

    const auto events = sim.events().executedTotal();
    m["sim.events_executed"] = events;
    m["sim.cycles_stepped"] =
        static_cast<std::uint64_t>(sim.now() - sim.cyclesFastForwarded());
    m["sim.ff_cycles"] = sim.cyclesFastForwarded();
    m["sim.ff_jumps"] = sim.fastForwardJumps();

    const auto flits = total("flits_sent", "", routers).counter;
    m["noc.flits_routed"] = flits;
    const Totals pkts = total("packets_delivered", "packet_latency", nis);
    m["noc.packets_delivered"] = pkts.counter;
    m["noc.packet_latency_mean_cycles"] = pkts.mean();

    m["coh.dir_requests"] = total("gets", "", dirs).counter +
                            total("getx", "", dirs).counter;
    m["coh.dir_queue_depth_mean"] =
        total("", "queue_depth_at_dequeue", dirs).mean();
    m["coh.l1_misses"] = total("load_misses", "", l1s).counter +
                         total("write_misses", "", l1s).counter +
                         total("write_upgrades", "", l1s).counter;
    m["coh.invalidations"] = total("invalidations", "", l1s).counter;
    m["coh.lock_rmw_latency_mean_cycles"] =
        total("", "lock_rmw_latency", l1s).mean();

    const auto early = total("early_invs_generated", "", gens).counter;
    const auto relayed = total("acks_relayed", "", gens).counter;
    m["inpg.getx_stopped"] = total("getx_stopped", "", gens).counter;
    m["inpg.early_invs"] = early;
    m["inpg.acks_relayed"] = relayed;
    m["inpg.barrier_refreshed"] =
        total("barrier_refreshed", "", gens).counter;
    m["inpg.relay_ratio"] = ratio(double(relayed), double(early));

    const auto acq = total("acquisitions", "", locks).counter;
    const auto fails = total("swap_failures", "", locks).counter;
    m["sync.acquisitions"] = acq;
    m["sync.swap_failures"] = fails;
    m["sync.acquire_success_ratio"] =
        ratio(double(acq), double(acq + fails));
    m["sync.retries_per_acquire"] =
        total("", "retries_per_acquire", locks).mean();
    m["sync.sleeps"] = total("sleeps", "", locks).counter;
    m["sync.wakeups"] = total("wakeups", "", locks).counter;

    const double thread_cycles =
        double(w.roiFinish()) * double(w.threads().size());
    m["workload.cs_completed"] = w.csCompleted();
    m["workload.parallel_share"] =
        ratio(double(w.totalCycles(ThreadPhase::Parallel)), thread_cycles);
    m["workload.coh_share"] =
        ratio(double(w.totalCycles(ThreadPhase::Coh) +
                     w.totalCycles(ThreadPhase::Sleep)),
              thread_cycles);
    m["workload.cse_share"] =
        ratio(double(w.totalCycles(ThreadPhase::Cse)), thread_cycles);
}

void
collectHostProfile(const Simulator::HostPhaseProfile &p, double wall,
                   const JsonValue &layers, JsonValue &m)
{
    const double events = layers.at("sim.events_executed").asDouble();
    const double flits = layers.at("noc.flits_routed").asDouble();
    m["sim.events_host_s"] = p.eventsSec;
    m["sim.host_ns_per_event"] = ratio(p.eventsSec * 1e9, events);
    m["sim.unattributed_host_s"] =
        wall - (p.eventsSec + p.routersSec + p.nisSec + p.dirsSec +
                p.otherSec);
    m["noc.routers_host_s"] = p.routersSec;
    m["noc.nis_host_s"] = p.nisSec;
    m["noc.router_host_ns_per_flit"] = ratio(p.routersSec * 1e9, flits);
    m["coh.dirs_host_s"] = p.dirsSec;
}

void
collectParallel(const ParallelProfile &prof, JsonValue &m)
{
    const JsonValue doc = prof.toJson();
    const JsonValue &host = doc.at("host");
    double busy = 0, wait = 0;
    for (const JsonValue &wk : host.at("workers").items()) {
        busy += wk.at("busy_ns").asDouble() * 1e-9;
        wait += wk.at("wait_ns").asDouble() * 1e-9;
    }
    m["parallel.barriers"] = prof.barrierCount();
    m["parallel.barriers_elided"] = prof.barriersElidedCount();
    m["parallel.barrier_wait_s"] =
        host.at("coordinator_barrier_wait_ns").asDouble() * 1e-9;
    m["parallel.merge_s"] =
        host.at("coordinator_merge_ns").asDouble() * 1e-9;
    m["parallel.worker_busy_s"] = busy;
    m["parallel.worker_wait_s"] = wait;
    m["parallel.load_imbalance"] = prof.loadImbalance();
}

/**
 * Build, run to completion and check one simulation. Throws FatalError
 * (a SimHangError, a max-cycle stop, or a failed check).
 */
Sim
simulate(const Job &job, const SystemConfig &cfg, const Probe &probe)
{
    Scope sim_span(probe.spans, "simulation");
    Sim out;
    auto t0 = Clock::now();
    std::unique_ptr<System> system;
    {
        Scope s(probe.spans, "System::System");
        system = std::make_unique<System>(cfg);
    }
    out.systemBuildS = since(t0);

    t0 = Clock::now();
    std::unique_ptr<Workload> w;
    {
        Scope s(probe.spans, "Workload::Workload");
        w = std::make_unique<Workload>(job.workloadParams(system->config()),
                                       system->coherent(),
                                       system->locks(), system->sim());
    }
    out.workloadBuildS = since(t0);

    CoherentSystem &coh = system->coherent();
    if (probe.golden) {
        Scope s(probe.spans, "L1Controller::setOpLog");
        GoldenMemory *g = probe.golden;
        for (int c = 0; c < coh.numCores(); ++c)
            coh.l1(c).setOpLog([g](const OpRecord &r) { g->record(r); });
    }
    if (probe.hostProfile)
        system->sim().setHostProfile(probe.hostProfile);
    w->start();
    t0 = Clock::now();
    {
        Scope s(probe.spans, "System::runUntil");
        system->runUntil([&] { return w->done(); }, MAX_CYCLES);
    }
    out.wallS = since(t0);
    system->sim().setHostProfile(nullptr);

    const std::uint64_t requested =
        std::uint64_t(w->csTargetPerThread()) * w->threads().size();
    if (w->csCompleted() != requested)
        fatal("cs_completed %llu != requested %llu",
              static_cast<unsigned long long>(w->csCompleted()),
              static_cast<unsigned long long>(requested));
    if (probe.golden) {
        Scope s(probe.spans, "GoldenMemory::verify");
        const std::string err = probe.golden->verify();
        if (!err.empty())
            fatal("golden memory: %s", err.c_str());
    }
    out.csAccess = csAccessLatencies(*w);
    if (out.csAccess.size() != w->csCompleted())
        fatal("%zu CS access samples for %llu CS entries",
              out.csAccess.size(),
              static_cast<unsigned long long>(w->csCompleted()));
    {
        Scope s(probe.spans, "System::statsSnapshot");
        out.snapshotHash = fnv1a(system->statsSnapshot(false).dump());
    }

    const Simulator &sim = system->sim();
    out.simCycles = sim.now();
    out.routers = static_cast<std::uint64_t>(coh.network().numRouters());
    out.roiCycles = w->roiFinish();
    out.threads = w->threads().size();
    out.events = sim.events().executedTotal();
    for (int c = 0; c < coh.numCores(); ++c)
        out.lockCohCycles += coh.l1(c).stats.value("lock_coh_cycles");
    const auto &rtt = coh.cohStats().rttHistogram;
    out.rttCount = rtt.count();
    out.rttSum = rtt.mean() * double(rtt.count());

    if (probe.layers)
        collectLayers(*system, *w, *probe.layers);
    if (probe.lco && system->telemetry() && system->telemetry()->lco)
        *probe.lco = system->telemetry()->lco->summary();
    if (probe.parallel && system->parallelKernel())
        collectParallel(system->parallelKernel()->profile(),
                        *probe.parallel);
    {
        Scope s(probe.spans, "System::~System");
        w.reset();
        system.reset();
    }
    return out;
}

void
emit(const JsonValue &line)
{
    std::fputs(line.dump().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Run and report one simulation of sub-seed `j`; null on failure (the
 * failure is reported as an ok=false line).
 */
std::optional<Sim>
simulateAndEmit(const Job &job, const SystemConfig &cfg, int j,
                const char *role, const Probe &probe = {})
{
    JsonValue line = JsonValue::object();
    line["kind"] = "sim";
    line["role"] = role;
    line["sub"] = static_cast<long long>(j);
    line["telemetry_lco"] = cfg.telemetry.lco;
    std::optional<Sim> sim;
    try {
        sim = simulate(job, cfg, probe);
        line["ok"] = true;
        line["wall_s"] = sim->wallS;
        line["ns_per_router_cycle"] =
            sim->wallS * 1e9 / (double(sim->simCycles) * double(sim->routers));
        line["setup_s"] = sim->systemBuildS + sim->workloadBuildS;
        line["system_build_s"] = sim->systemBuildS;
        line["workload_build_s"] = sim->workloadBuildS;
        line["roi_cycles"] = sim->roiCycles;
        line["events_executed"] = sim->events;
        line["snapshot_hash"] = hex(sim->snapshotHash);
    } catch (const FatalError &e) {
        line["ok"] = false;
        line["error"] = e.what();
    }
    emit(line);
    return sim;
}

/** Pooled results of one pass over the whole batch. */
struct Pass {
    double roiCycles = 0;
    double lockCohCycles = 0;
    double threadCycles = 0;
    double rttSum = 0;
    std::uint64_t rttCount = 0;
    std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
    std::vector<std::uint64_t> csAccess;
    int sims = 0;

    void
    add(const Sim &s)
    {
        roiCycles += double(s.roiCycles);
        lockCohCycles += double(s.lockCohCycles);
        threadCycles += double(s.roiCycles) * double(s.threads);
        rttSum += s.rttSum;
        rttCount += s.rttCount;
        for (std::uint64_t v : {s.roiCycles, s.events, s.snapshotHash})
            fingerprint = (fingerprint ^ v) * 0x100000001b3ULL;
        csAccess.insert(csAccess.end(), s.csAccess.begin(),
                        s.csAccess.end());
        ++sims;
    }

    JsonValue
    toJson()
    {
        std::sort(csAccess.begin(), csAccess.end());
        JsonValue l = JsonValue::object();
        l["kind"] = "pass";
        l["ok"] = true;
        l["roi_cycles"] = roiCycles / sims;
        l["lco_share"] = lockCohCycles / threadCycles;
        l["rtt_mean_cycles"] = ratio(rttSum, double(rttCount));
        l["cs_access_p50_cycles"] = percentile(csAccess, 0.50);
        l["cs_access_p99_cycles"] = percentile(csAccess, 0.99);
        l["cs_entries"] = static_cast<std::uint64_t>(csAccess.size());
        l["fingerprint"] = hex(fingerprint);
        return l;
    }
};

/** One set-up-only build; returns its seconds. */
double
setupOnly(const Job &job)
{
    const auto t0 = Clock::now();
    System system(job.configFor(0));
    Workload w(job.workloadParams(system.config()), system.coherent(),
               system.locks(), system.sim());
    return since(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void
modelCheck(std::uint64_t max_states, SpanLog &spans, JsonValue &layers)
{
    McConfig mc;
    mc.numCores = 3;
    mc.bigRouter = true;
    mc.scenario = McScenario::Tas;
    mc.maxStates = max_states;
    JsonValue line = JsonValue::object();
    line["kind"] = "verify";
    line["ok"] = true;
    std::vector<double> secs;
    std::vector<McResult> results;
    for (int i = 0; i < 2; ++i) {
        const auto t0 = Clock::now();
        {
            Scope s(&spans, "runModelCheck");
            results.push_back(runModelCheck(mc));
        }
        secs.push_back(since(t0));
        const McResult &r = results.back();
        if (!r.ok()) {
            line["ok"] = false;
            line["error"] =
                r.violation->invariant + ": " + r.violation->detail;
        }
    }
    const McResult &r = results.front();
    if (results.back().statesVisited != r.statesVisited ||
        results.back().transitions != r.transitions) {
        line["ok"] = false;
        line["error"] = "state and transition counts did not repeat";
    }
    emit(line);
    const double s = median(secs);
    layers["verify.states"] = r.statesVisited;
    layers["verify.transitions"] = r.transitions;
    layers["verify.max_depth"] = static_cast<long long>(r.maxDepth);
    layers["verify.states_per_s"] = ratio(double(r.statesVisited), s);
}

void
collectLegs(const LcoSummary &lco, JsonValue &m)
{
    const double n = double(lco.acquires);
    const LcoLegs &g = lco.legs;
    m["lco.leg.l1_access"] = ratio(double(g.l1Access), n);
    m["lco.leg.req_network"] = ratio(double(g.reqNetwork), n);
    m["lco.leg.dir_service"] = ratio(double(g.dirService), n);
    m["lco.leg.resp_network"] = ratio(double(g.respNetwork), n);
    m["lco.leg.inv_ack_wait"] = ratio(double(g.invAckWait), n);
    m["lco.leg.spin_wait"] = ratio(double(g.spinWait), n);
    m["lco.leg.sleep_wait"] = ratio(double(g.sleepWait), n);
    m["lco.leg.other"] = ratio(double(g.other), n);
}

/**
 * The traced part of a job, on sub-seed 0: per-layer numbers, spans,
 * GoldenMemory, the LCO legs and (optionally) the model checker.
 * `base_wall` is the untraced wall time of sub-seed 0.
 */
JsonValue
traced(const Job &job, double base_wall, JsonValue layers,
       std::uint64_t mc_states, SpanLog &spans)
{
    SystemConfig serial = job.configFor(0);
    serial.threads = 1;
    double base = base_wall;
    if (job.sys.threads > 1) {
        if (auto s = simulateAndEmit(job, serial, 0, "serial")) {
            layers["parallel.speedup_vs_serial"] = ratio(s->wallS, base_wall);
            base = s->wallS;
        }
    }

    Simulator::HostPhaseProfile prof;
    GoldenMemory golden;
    Probe probe;
    probe.spans = &spans;
    probe.hostProfile = &prof;
    probe.golden = &golden;
    probe.layers = &layers;
    {
        Scope s(&spans, "traced");
        if (auto sim = simulateAndEmit(job, serial, 0, "traced", probe)) {
            collectHostProfile(prof, sim->wallS, layers, layers);
            layers["trace.overhead"] = ratio(sim->wallS, base);
        }
    }

    SystemConfig lco_cfg = job.configFor(0);
    lco_cfg.telemetry.lco = true;
    LcoSummary lco;
    Probe lco_probe;
    lco_probe.lco = &lco;
    {
        Scope s(&spans, "telemetry=lco");
        if (auto sim = simulateAndEmit(job, lco_cfg, 0, "lco", lco_probe)) {
            collectLegs(lco, layers);
            layers["telemetry.lco_overhead"] = ratio(sim->wallS, base_wall);
        }
    }

    if (mc_states > 0)
        modelCheck(mc_states, spans, layers);
    return layers;
}

} // namespace

int
main(int argc, char **argv)
{
    Config args;
    try {
        args.loadArgs(argc, argv,
                      {"benchmark", "topology", "lock", "mechanism",
                       "threads", "seed", "batch", "cs_scale", "seconds",
                       "workload_threads", "trace", "model_check_states",
                       "spans_out"});
    } catch (const FatalError &) {
        return 2;
    }

    Job job;
    try {
        job.sys.applyOverrides(args);
        job.sys.finalize();
        job.profile = benchmarkByName(args.getString("benchmark", "nab"));
    } catch (const FatalError &) {
        return 2;
    }
    job.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    job.batch = static_cast<int>(std::max(1LL, args.getInt("batch", 1)));
    job.csScale = args.getDouble("cs_scale", 0.1);
    job.threads = static_cast<int>(args.getInt("workload_threads", 0));
    const double seconds = args.getDouble("seconds", 10);
    const bool trace = args.getBool("trace", false);

    simulateAndEmit(job, job.configFor(0), 0, "warmup");

    // Closed loop: whole passes over the batch, back to back, while the
    // next pass (assumed as long as the last) still ends within
    // `seconds`.
    std::vector<double> sub0_walls;
    JsonValue parallel = JsonValue::object();
    Probe measured;
    if (trace)
        measured.parallel = &parallel;
    long long setups = 0;
    const auto t_start = Clock::now();
    double pass_s = 0;
    for (long long p = 0;
         p == 0 || since(t_start) + pass_s <= seconds; ++p) {
        const auto t_pass = Clock::now();
        Pass pass;
        bool ok = true;
        for (int j = 0; j < job.batch; ++j) {
            auto sim = simulateAndEmit(job, job.configFor(j), j, "measured",
                                       j == 0 ? measured : Probe{});
            ++setups;
            if (!sim) {
                ok = false;
                continue;
            }
            if (j == 0)
                sub0_walls.push_back(sim->wallS);
            pass.add(*sim);
        }
        if (ok) {
            emit(pass.toJson());
        } else {
            JsonValue l = JsonValue::object();
            l["kind"] = "pass";
            l["ok"] = false;
            emit(l);
        }
        pass_s = since(t_pass);
    }
    for (; setups < SETUP_SAMPLES; ++setups) {
        JsonValue line = JsonValue::object();
        line["kind"] = "setup";
        try {
            line["setup_s"] = setupOnly(job);
        } catch (const FatalError &e) {
            line["error"] = e.what();
        }
        emit(line);
    }

    if (trace) {
        SpanLog spans;
        const auto mc_states =
            static_cast<std::uint64_t>(args.getInt("model_check_states", 0));
        JsonValue layers = traced(job, median(sub0_walls),
                                  std::move(parallel), mc_states, spans);
        const std::string spans_out = args.getString("spans_out", "");
        if (!spans_out.empty()) {
            std::FILE *f = std::fopen(spans_out.c_str(), "w");
            if (!f)
                return 3;
            const std::string text = spans.toJson().dump(1);
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
        }
        JsonValue line = JsonValue::object();
        line["kind"] = "layers";
        line["metrics"] = std::move(layers);
        emit(line);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonValue end = JsonValue::object();
    end["kind"] = "end";
    end["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;
    end["compiler"] = __VERSION__;
    end["build_type"] = PERFBENCH_BUILD_TYPE;
    emit(end);
    return 0;
}
