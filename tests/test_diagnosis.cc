/**
 * @file
 * Live-diagnosis layer tests: flight-recorder ring semantics, the
 * bounded timeseries sampler, watchdog progress/trip logic, the
 * seeded-hang structured report, fingerprint neutrality of the
 * observers, and the zero-cost off mode.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>

#include "common/config.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/watchdog.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingRetainsNewestAndCountsWrap)
{
    FlightRecorder rec(/*capacity=*/6); // rounds up to 8
    EXPECT_EQ(rec.capacity(), 8u);
    for (std::uint64_t i = 0; i < 20; ++i)
        rec.record(FrKind::NiInject, /*now=*/i, /*node=*/1, /*addr=*/i);
    EXPECT_EQ(rec.recordedTotal(), 20u);
    EXPECT_EQ(rec.retained(), 8u);
    EXPECT_EQ(rec.wrapped(), 12u);

    const std::string text = rec.toJson().dump();
    // Newest 8 events (cycles 12..19) retained, oldest first; cycle 11
    // was overwritten by the wrap.
    EXPECT_EQ(text.find("\"cycle\":11,"), std::string::npos);
    const auto oldest = text.find("\"cycle\":12,");
    const auto newest = text.find("\"cycle\":19,");
    ASSERT_NE(oldest, std::string::npos);
    ASSERT_NE(newest, std::string::npos);
    EXPECT_LT(oldest, newest);
}

TEST(FlightRecorder, KindNamesAreStable)
{
    EXPECT_STREQ(frKindName(FrKind::ProtoDispatch), "proto");
    EXPECT_STREQ(frKindName(FrKind::MsgDrop), "drop");
    EXPECT_STREQ(frKindName(FrKind::AckRelay), "ack-relay");
}

// ---------------------------------------------------------------------
// Timeseries sampler
// ---------------------------------------------------------------------

TEST(Timeseries, CounterDeltasGaugeLevelsAndBoundedRows)
{
    std::uint64_t ctr = 0;
    std::uint64_t level = 0;
    TimeseriesSampler ts(/*epoch_len=*/10, /*max_rows=*/4);
    ts.addCounter("flits", &ctr);
    ts.addGauge("occ", [&] { return level; });
    EXPECT_EQ(ts.numColumns(), 2u);

    // 10 epoch boundaries crossed; only 4 rows may be stored.
    for (Cycle c = 0; c < 100; ++c) {
        ctr += 2;
        level = c;
        ts.onCycle(c);
    }
    EXPECT_EQ(ts.rows(), 4u);
    EXPECT_EQ(ts.droppedRows(), 6u);

    const std::string json = ts.toJson().dump();
    EXPECT_NE(json.find("\"epoch\":10"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_rows\":6"), std::string::npos);
    EXPECT_NE(json.find("\"flits\""), std::string::npos);

    const std::string csv = ts.toCsv();
    EXPECT_EQ(csv.rfind("cycle,flits,occ\n", 0), 0u);
    // A full inter-row epoch advances the counter by 2 per cycle.
    EXPECT_NE(csv.find(",20,"), std::string::npos);
}

TEST(Timeseries, FastForwardSkipsContentlessEpochs)
{
    std::uint64_t ctr = 0;
    TimeseriesSampler ts(/*epoch_len=*/10);
    ts.addCounter("c", &ctr);
    ts.onCycle(0);          // first row; next boundary at 10
    ts.onFastForward(1000); // idle jump over 99 boundaries
    ts.onCycle(1000);       // landing cycle samples immediately
    EXPECT_EQ(ts.rows(), 2u);
    EXPECT_EQ(ts.droppedRows(), 0u);
}

TEST(Timeseries, WriteFilePicksFormatByExtension)
{
    std::uint64_t ctr = 0;
    TimeseriesSampler ts(/*epoch_len=*/5);
    ts.addCounter("c", &ctr);
    ts.onCycle(0);
    const std::string path =
        ::testing::TempDir() + "inpg_test_timeseries.csv";
    ASSERT_TRUE(ts.writeFile(path));
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    in.close();
    std::remove(path.c_str());
    EXPECT_EQ(first, "cycle,c");
}

// ---------------------------------------------------------------------
// Progress watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, TripsAfterWindowWithoutProgressOnly)
{
    std::uint64_t progress = 0;
    ProgressWatchdog wd(/*no_progress_window=*/80); // checks every 10
    wd.watchCounter(&progress);
    Cycle tripped_at = 0;
    std::string reason;
    wd.setOnTrip([&](Cycle at, const char *r) {
        tripped_at = at;
        reason = r;
        throw SimHangError("trip", "{}");
    });

    // Progress every 40 executed cycles: stays well inside the window.
    Cycle now = 0;
    for (; now < 400; ++now) {
        if (now % 40 == 0)
            ++progress;
        wd.onCycle(now);
    }
    EXPECT_EQ(wd.trips(), 0u);
    EXPECT_GT(wd.polls(), 0u);

    // Stall: the trip must land within window + one check period.
    EXPECT_THROW(
        {
            for (; now < 600; ++now)
                wd.onCycle(now);
        },
        SimHangError);
    EXPECT_EQ(wd.trips(), 1u);
    EXPECT_EQ(reason, "no-progress");
    EXPECT_GE(tripped_at, 400u);
    EXPECT_LE(tripped_at, 400u + 80u + 10u);
}

TEST(Watchdog, StructuralDeadlockTripsImmediately)
{
    std::uint64_t progress = 0;
    ProgressWatchdog wd(/*no_progress_window=*/1000000);
    wd.watchCounter(&progress);
    std::string reason;
    wd.setOnTrip([&](Cycle, const char *r) {
        reason = r;
        throw SimHangError("trip", "{}");
    });
    EXPECT_THROW(wd.tripDeadlock(42), SimHangError);
    EXPECT_EQ(reason, "deadlock");
}

// ---------------------------------------------------------------------
// Seeded hang: drop_dir_response deadlocks the protocol; the watchdog
// must turn it into a structured report instead of a silent timeout.
// ---------------------------------------------------------------------

TEST(Watchdog, SeededHangProducesStructuredReport)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = LockKind::Tas;
    cfg.coh.dropDirResponseNth = 1; // first directory send vanishes
    cfg.telemetry.watchdogWindow = 50000;
    cfg.telemetry.recorder = true;
    cfg.telemetry.packets = true;
    cfg.finalize();
    System system(cfg);

    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.01;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    try {
        system.runUntil([&] { return w.done(); }, 5000000);
        FAIL() << "seeded hang did not trip the watchdog";
    } catch (const SimHangError &e) {
        EXPECT_NE(std::string(e.what()).find("watchdog tripped"),
                  std::string::npos);
        const std::string &rep = e.reportJson();
        for (const char *key :
             {"\"inpg-hang-report\"", "\"reason\"", "\"event_queue\"",
              "\"directories\"", "\"l1s\"", "\"flight_recorder\"",
              "\"packets_in_flight\"", "\"watchdog\""})
            EXPECT_NE(rep.find(key), std::string::npos)
                << "hang report missing " << key;
    }
}

// ---------------------------------------------------------------------
// Observer neutrality and off-mode cost
// ---------------------------------------------------------------------

TEST(Diagnosis, EnablingObserversNeverChangesSimulatedResults)
{
    auto fingerprint = [](bool diag_on) {
        SystemConfig cfg;
        cfg.noc.meshWidth = 4;
        cfg.noc.meshHeight = 4;
        cfg.lockKind = LockKind::Tas;
        cfg.mechanism = Mechanism::Inpg;
        if (diag_on) {
            cfg.telemetry.recorder = true;
            cfg.telemetry.timeseriesEpoch = 256;
            // Armed but far from tripping: the hooks still run.
            cfg.telemetry.watchdogWindow = 1000000000;
            cfg.telemetry.packets = true;
        }
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

TEST(Diagnosis, ObserversAreWiredWhenEnabled)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.telemetry.recorder = true;
    cfg.telemetry.timeseriesEpoch = 64;
    cfg.finalize();
    System system(cfg);
    ASSERT_NE(system.telemetry(), nullptr);
    ASSERT_NE(system.telemetry()->recorder, nullptr);
    ASSERT_NE(system.telemetry()->timeseries, nullptr);
    // Columns were auto-registered for every router/NI/directory.
    EXPECT_GE(system.telemetry()->timeseries->numColumns(),
              4u * static_cast<std::size_t>(cfg.numCores()));

    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.005;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });
    EXPECT_GT(system.telemetry()->recorder->recordedTotal(), 0u);
    EXPECT_GT(system.telemetry()->timeseries->rows(), 0u);

    // The stats snapshot reports both observers.
    const std::string snap = system.statsSnapshot().dump();
    EXPECT_NE(snap.find("\"timeseries\""), std::string::npos);
    EXPECT_NE(snap.find("\"recorder\""), std::string::npos);
}

TEST(Diagnosis, OffModeIsZeroCost)
{
    SystemConfig cfg; // all telemetry off by default
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.finalize();
    ASSERT_FALSE(cfg.telemetry.any());
    System system(cfg);
    EXPECT_EQ(system.telemetry(), nullptr);

    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.005;
    wp.lockKind = cfg.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });
    // The diagnosis hooks are null-observer branches: the optimized
    // schedule path must stay allocation-free with them compiled in.
    EXPECT_EQ(system.sim().events().scheduleHeapAllocs(), 0u);
}

// ---------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------

TEST(Diagnosis, ConfigKeysReachSystemConfig)
{
    const char *argv[] = {"prog", "--watchdog-window=12345",
                          "--timeseries-epoch=64",
                          "--recorder-capacity=128",
                          "--drop-dir-response", "3",
                          "telemetry=recorder"};
    Config c;
    c.loadArgs(7, argv);
    SystemConfig cfg;
    cfg.applyOverrides(c);
    EXPECT_EQ(cfg.telemetry.watchdogWindow, 12345u);
    EXPECT_EQ(cfg.telemetry.timeseriesEpoch, 64u);
    EXPECT_EQ(cfg.telemetry.recorderCapacity, 128u);
    EXPECT_EQ(cfg.coh.dropDirResponseNth, 3u);
    EXPECT_TRUE(cfg.telemetry.recorder);
    EXPECT_TRUE(cfg.telemetry.any());
}

TEST(Diagnosis, TelemetrySpecTokensCoverNewObservers)
{
    TelemetryConfig tc;
    tc.applySpec("recorder,timeseries");
    EXPECT_TRUE(tc.recorder);
    EXPECT_EQ(tc.timeseriesEpoch, DEFAULT_TIMESERIES_EPOCH);
    EXPECT_EQ(tc.watchdogWindow, 0u); // watchdog is opt-in
    tc.applySpec("watchdog");
    EXPECT_EQ(tc.watchdogWindow, DEFAULT_WATCHDOG_WINDOW);
    tc.applySpec("off");
    EXPECT_FALSE(tc.any());
    EXPECT_EQ(tc.timeseriesEpoch, 0u);
    EXPECT_EQ(tc.watchdogWindow, 0u);
}

} // namespace
} // namespace inpg
