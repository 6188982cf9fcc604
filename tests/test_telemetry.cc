/**
 * @file
 * Telemetry subsystem tests: the LCO attribution tiling invariant
 * (leg sum == end-to-end acquire latency, exactly), the TAS-vs-MCS
 * attribution ordering of Figure 2, packet-lifetime accounting,
 * trace-sink capping, the stats snapshot document, and that enabling
 * telemetry never changes simulated results.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "inpg/packet_generator.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

/** One instrumented run; keeps the tracker state alive for asserts. */
struct LcoRun {
    std::vector<LcoAcquireRecord> records;
    LcoSummary summary;
    Cycle roi = 0;
    std::uint64_t lockCohCycles = 0;
    std::uint64_t csCompleted = 0;
};

LcoRun
runWithLco(LockKind kind, Mechanism mech = Mechanism::Original,
           const char *bench = "face", double cs_scale = 0.01,
           int num_locks = 0)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = kind;
    cfg.mechanism = mech;
    cfg.telemetry.lco = true;
    cfg.finalize();
    System system(cfg);

    Workload::Params wp;
    wp.profile = benchmarkByName(bench);
    if (num_locks > 0)
        wp.profile.numLocks = num_locks;
    wp.threads = cfg.numCores();
    wp.csScale = cs_scale;
    wp.lockKind = kind;
    wp.seed = 1;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });

    LcoRun out;
    LcoTracker *lco = system.telemetry()->lco;
    out.records = lco->records();
    out.summary = lco->summary();
    out.roi = w.roiFinish();
    out.csCompleted = w.csCompleted();
    for (int c = 0; c < cfg.numCores(); ++c)
        out.lockCohCycles +=
            system.coherent().l1(c).stats.lockCohCycles;
    return out;
}

/** Coherence-protocol share of the attributed acquire time. */
double
cohShare(const LcoSummary &s)
{
    const Cycle coh = s.legs.l1Access + s.legs.reqNetwork +
                      s.legs.dirService + s.legs.respNetwork +
                      s.legs.invAckWait;
    return s.totalLatency
               ? static_cast<double>(coh) /
                     static_cast<double>(s.totalLatency)
               : 0;
}

TEST(LcoAttribution, LegsTileEveryAcquireExactly_Tas)
{
    LcoRun r = runWithLco(LockKind::Tas);
    ASSERT_GT(r.records.size(), 0u);
    for (const auto &rec : r.records)
        ASSERT_EQ(rec.legs.sum(), rec.latency())
            << "thread " << rec.thread << " acquire at " << rec.start;
    EXPECT_EQ(r.summary.legs.sum(), r.summary.totalLatency);
    EXPECT_EQ(r.summary.acquires, r.csCompleted);
}

TEST(LcoAttribution, LegsTileEveryAcquireExactly_Mcs)
{
    LcoRun r = runWithLco(LockKind::Mcs);
    ASSERT_GT(r.records.size(), 0u);
    for (const auto &rec : r.records)
        ASSERT_EQ(rec.legs.sum(), rec.latency())
            << "thread " << rec.thread << " acquire at " << rec.start;
    EXPECT_EQ(r.summary.legs.sum(), r.summary.totalLatency);
}

TEST(LcoAttribution, LegsTileEveryAcquireExactly_QslWithSleeps)
{
    // QSL exercises the sleep legs; the tiling must still be exact.
    LcoRun r = runWithLco(LockKind::Qsl);
    ASSERT_GT(r.records.size(), 0u);
    for (const auto &rec : r.records)
        ASSERT_EQ(rec.legs.sum(), rec.latency());
    EXPECT_EQ(r.summary.legs.sum(), r.summary.totalLatency);
}

TEST(LcoAttribution, TasVsMcsOrderingMatchesFig02)
{
    // Figure 2: TAS has the highest lock-coherence share, MCS among
    // the lowest. The attribution must reproduce that ordering, and
    // agree with the independent L1-side lock_coh_cycles accounting.
    // Like bench_figures' Fig. 2, concentrate all threads on a single
    // lock so contention (which is what separates the two) dominates.
    LcoRun tas = runWithLco(LockKind::Tas, Mechanism::Original, "face",
                            0.01, 1);
    LcoRun mcs = runWithLco(LockKind::Mcs, Mechanism::Original, "face",
                            0.01, 1);
    ASSERT_GT(tas.summary.acquires, 0u);
    ASSERT_GT(mcs.summary.acquires, 0u);

    const double tas_attr =
        static_cast<double>(tas.summary.totalLatency) * cohShare(
            tas.summary);
    const double mcs_attr =
        static_cast<double>(mcs.summary.totalLatency) * cohShare(
            mcs.summary);
    EXPECT_GT(tas_attr, mcs_attr);
    EXPECT_GT(tas.lockCohCycles, mcs.lockCohCycles);
}

TEST(LcoAttribution, InpgMarksEarlyInvalidatedAcquires)
{
    LcoRun r = runWithLco(LockKind::Tas, Mechanism::Inpg);
    EXPECT_GT(r.summary.acquiresWithEarlyInv, 0u);
    EXPECT_GT(r.summary.earlyInvAcks + r.summary.homeInvAcks, 0u);
}

TEST(Telemetry, EnablingItNeverChangesSimulatedResults)
{
    auto fingerprint = [](bool telemetry_on) {
        SystemConfig cfg;
        cfg.noc.meshWidth = 4;
        cfg.noc.meshHeight = 4;
        cfg.lockKind = LockKind::Tas;
        cfg.mechanism = Mechanism::Inpg;
        if (telemetry_on)
            cfg.telemetry.applySpec("all");
        cfg.finalize();
        System system(cfg);
        Workload::Params wp;
        wp.profile = benchmarkByName("face");
        wp.threads = cfg.numCores();
        wp.csScale = 0.01;
        wp.lockKind = cfg.lockKind;
        wp.seed = 3;
        Workload w(wp, system.coherent(), system.locks(),
                   system.sim());
        w.start();
        system.runUntil([&] { return w.done(); });
        std::uint64_t l1_sum = 0;
        for (int c = 0; c < cfg.numCores(); ++c)
            for (const auto &e : system.coherent().l1(c).stats.entries())
                if (e.counter)
                    l1_sum += *e.counter;
        return std::make_tuple(w.roiFinish(), w.csCompleted(), l1_sum,
                               system.totalEarlyInvs());
    };
    EXPECT_EQ(fingerprint(false), fingerprint(true));
}

TEST(Telemetry, ConfigSpecParsing)
{
    TelemetryConfig tc;
    EXPECT_FALSE(tc.any());
    tc.applySpec("lco,trace");
    EXPECT_TRUE(tc.lco);
    EXPECT_TRUE(tc.traceEvents);
    EXPECT_FALSE(tc.packets);
    tc.applySpec("all");
    EXPECT_TRUE(tc.packets && tc.kernel);
    tc.applySpec("off");
    EXPECT_FALSE(tc.any());
    // A misspelt token is a config error, not a silent no-op; empty
    // segments stay allowed.
    EXPECT_THROW(tc.applySpec("kernel,unknown-token"), FatalError);
    EXPECT_THROW(tc.applySpec("packet"), FatalError);
    tc = TelemetryConfig{};
    tc.applySpec(",kernel,,");
    EXPECT_TRUE(tc.kernel);
    EXPECT_FALSE(tc.lco);
}

TEST(PacketLifetime, QueueAndNetworkLegsSumToTotalLatency)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.telemetry.packets = true;
    cfg.finalize();
    System system(cfg);
    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.005;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });

    const PacketStats &ps = system.telemetry()->packets->stats;
    ASSERT_GT(ps.packetsCompleted, 0u);
    EXPECT_EQ(ps.packetsTracked,
              ps.packetsCompleted + system.telemetry()->packets->inFlight());
    EXPECT_DOUBLE_EQ(ps.queueWait.sum() + ps.netLatency.sum(),
                     ps.totalLatency.sum());
    EXPECT_GE(ps.hops.min(), 1.0);
}

TEST(TraceEvents, SinkCapsAndCounts)
{
    TraceEventSink sink(/*max_events=*/3);
    sink.duration(TrackGroup::Routers, 0, "a", 10, 5);
    sink.instant(TrackGroup::Routers, 0, "b", 12);
    sink.duration(TrackGroup::Threads, 1, "c", 14, 2);
    sink.instant(TrackGroup::Threads, 1, "d", 20); // over the cap
    EXPECT_EQ(sink.eventCount(), 3u);
    EXPECT_EQ(sink.droppedCount(), 1u);
    const std::string json = sink.writeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"d\""), std::string::npos);
}

TEST(StatsSnapshot, DocumentHasAllSections)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 2;
    cfg.noc.meshHeight = 2;
    cfg.telemetry.applySpec("all");
    cfg.finalize();
    System system(cfg);
    system.locks().createLock(LockKind::Tas, cfg.numCores());
    system.sim().run(50);

    StatsRegistry reg = system.buildStatsRegistry();
    EXPECT_GT(reg.groupCount(), 0u);
    JsonValue snap = system.statsSnapshot();
    const std::string text = snap.dump();
    EXPECT_NE(text.find("\"groups\""), std::string::npos);
    EXPECT_NE(text.find("\"scalars\""), std::string::npos);
    EXPECT_NE(text.find("\"histograms\""), std::string::npos);
    EXPECT_NE(text.find("\"lco\""), std::string::npos);
    EXPECT_NE(text.find("\"sim.cycles\""), std::string::npos);
    EXPECT_NE(text.find("\"l1.0\""), std::string::npos);
    EXPECT_NE(text.find("lock.") , std::string::npos);
}

/** True when `g` declares a counter or sample called `name`. */
bool
declares(const StatGroup &g, const std::string &name)
{
    for (const auto &e : g.entries())
        if (name == e.name)
            return true;
    return false;
}

TEST(StatsSnapshot, NamesReadByNameStayDeclared)
{
    // Stats read by name, where a rename would silently read 0:
    // perfbench's collectLayers and lock_coh_cycles, runBenchmark's
    // lock_coh_cycles/sleeps/wakeups, System::totalEarlyInvs and
    // inpg_sim dump_stats=1's early_invs_generated.
    const L1Stats l1;
    const DirStats dir;
    const RouterStats router;
    const NiStats ni;
    const PacketGenStats gen;
    const LockStats lock;
    const std::vector<std::pair<const StatGroup *, std::vector<std::string>>>
        contract = {
            {&l1,
             {"load_misses", "write_misses", "write_upgrades",
              "invalidations", "lock_rmw_latency", "lock_coh_cycles"}},
            {&dir, {"gets", "getx", "queue_depth_at_dequeue"}},
            {&router, {"flits_sent"}},
            {&ni, {"packets_delivered", "packet_latency"}},
            {&gen,
             {"early_invs_generated", "acks_relayed", "getx_stopped",
              "barrier_refreshed"}},
            {&lock,
             {"acquisitions", "swap_failures", "retries_per_acquire",
              "sleeps", "wakeups"}},
        };
    for (const auto &[group, names] : contract)
        for (const std::string &name : names)
            EXPECT_TRUE(declares(*group, name)) << name;
}

TEST(Json, BuilderEmitsValidDocuments)
{
    JsonValue doc = JsonValue::object();
    doc["int"] = -3;
    doc["uint"] = static_cast<std::uint64_t>(1) << 40;
    doc["str"] = "a\"b\\c\n\t";
    doc["bool"] = true;
    doc["null"];
    doc["arr"].push(1); // push makes a Null member an array
    doc["arr"].push("two");
    doc["nested"]["x"] = 0.5; // [] makes a Null member an object
    doc["empty_arr"] = JsonValue::array();
    doc["empty_obj"] = JsonValue::object();
    EXPECT_EQ(doc.dump(),
              "{\"int\":-3,\"uint\":1099511627776,"
              "\"str\":\"a\\\"b\\\\c\\n\\t\",\"bool\":true,"
              "\"null\":null,\"arr\":[1,\"two\"],"
              "\"nested\":{\"x\":0.5},\"empty_arr\":[],"
              "\"empty_obj\":{}}");
}

TEST(KernelProfile, RecordsCyclesAndFastForwardSkips)
{
    TelemetryConfig tc;
    tc.kernel = true;
    Telemetry telem(tc, 1);
    Simulator sim;
    sim.setTelemetry(&telem);
    bool fired = false;
    sim.scheduleIn(500, [&] { fired = true; });
    sim.run(600); // idle span fast-forwards to the event
    EXPECT_TRUE(fired);
    EXPECT_GT(telem.kernel->eventsPerCycleHist().count(), 0u);
    EXPECT_GT(telem.kernel->ffSkipHist().count(), 0u);
    EXPECT_GE(telem.kernel->ffSkipHist().max(), 400u);
}

} // namespace
} // namespace inpg
