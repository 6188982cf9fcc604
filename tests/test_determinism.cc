/**
 * @file
 * Determinism regression tests for the activity-driven kernel: seeded
 * runs must reproduce exactly, and idle fast-forwarding must be
 * invisible in simulated results -- identical cycle counts and LCO
 * statistics with iNPG off and on, and across the parallel sweep
 * runner.
 *
 * The Golden* tests pin the simulated results of a fixed set of
 * configurations (mesh, torus, cmesh, iNPG, OCOR's priority switch
 * allocation, a non-default VC count) byte-for-byte against
 * tests/golden/, together with the full seeded-hang report. Any change
 * to the router, the event queue or the coherence containers must keep
 * them; regenerate deliberately with INPG_REGEN_GOLDEN=1.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "golden.hh"
#include "harness/sweep_runner.hh"
#include "harness/system.hh"
#include "telemetry/watchdog.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

/** Everything a run can legally differ in shows up in these fields. */
struct Fingerprint {
    Cycle simCycles = 0;
    Cycle roiCycles = 0;
    std::uint64_t csCompleted = 0;
    Cycle parallelCycles = 0;
    Cycle cohCycles = 0;
    Cycle sleepCycles = 0;
    Cycle cseCycles = 0;
    std::uint64_t earlyInvs = 0;
    std::uint64_t flitsSent = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return simCycles == o.simCycles && roiCycles == o.roiCycles &&
               csCompleted == o.csCompleted &&
               parallelCycles == o.parallelCycles &&
               cohCycles == o.cohCycles && sleepCycles == o.sleepCycles &&
               cseCycles == o.cseCycles && earlyInvs == o.earlyInvs &&
               flitsSent == o.flitsSent;
    }
};

Fingerprint
fingerprintOf(System &system, const Workload &workload)
{
    Fingerprint f;
    f.simCycles = system.sim().now();
    f.roiCycles = workload.roiFinish();
    f.csCompleted = workload.csCompleted();
    f.parallelCycles = workload.totalCycles(ThreadPhase::Parallel);
    f.cohCycles = workload.totalCycles(ThreadPhase::Coh);
    f.sleepCycles = workload.totalCycles(ThreadPhase::Sleep);
    f.cseCycles = workload.totalCycles(ThreadPhase::Cse);
    f.earlyInvs = system.totalEarlyInvs();
    for (NodeId n = 0; n < system.coherent().network().numRouters();
         ++n)
        f.flitsSent += system.coherent().network().router(n)
                           .stats.flitsSent;
    return f;
}

Fingerprint
runOnce(Mechanism mech, LockKind lock, bool fast_forward,
        std::uint64_t *ff_cycles = nullptr)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.mechanism = mech;
    cfg.lockKind = lock;
    cfg.finalize();

    System system(cfg);
    system.sim().setFastForward(fast_forward);

    Workload::Params wp;
    wp.profile = benchmarkByName("ferret");
    wp.threads = cfg.numCores();
    wp.csScale = 0.1;
    wp.lockKind = lock;
    wp.seed = cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());
    workload.start();
    system.runUntil([&] { return workload.done(); });

    Fingerprint f = fingerprintOf(system, workload);
    if (ff_cycles)
        *ff_cycles = system.sim().cyclesFastForwarded();
    return f;
}

TEST(Determinism, SeededRunsReproduceExactly)
{
    Fingerprint a = runOnce(Mechanism::Original, LockKind::Qsl, true);
    Fingerprint b = runOnce(Mechanism::Original, LockKind::Qsl, true);
    EXPECT_TRUE(a == b);
}

TEST(Determinism, FastForwardIsInvisibleWithoutInpg)
{
    std::uint64_t skipped = 0;
    Fingerprint off = runOnce(Mechanism::Original, LockKind::Qsl, false);
    Fingerprint on =
        runOnce(Mechanism::Original, LockKind::Qsl, true, &skipped);
    EXPECT_TRUE(off == on);
    // A QSL workload idles while sleepers wait; the kernel must
    // actually have elided work.
    EXPECT_GT(skipped, 0u);
}

TEST(Determinism, FastForwardIsInvisibleWithInpg)
{
    std::uint64_t skipped = 0;
    Fingerprint off = runOnce(Mechanism::Inpg, LockKind::Qsl, false);
    Fingerprint on =
        runOnce(Mechanism::Inpg, LockKind::Qsl, true, &skipped);
    EXPECT_TRUE(off == on);
    EXPECT_GT(skipped, 0u);
}

TEST(Determinism, FastForwardIsInvisibleForSpinLocks)
{
    // TAS spinners keep the fabric busy; there is little to skip, but
    // the results must still match exactly.
    Fingerprint off = runOnce(Mechanism::Original, LockKind::Tas, false);
    Fingerprint on = runOnce(Mechanism::Original, LockKind::Tas, true);
    EXPECT_TRUE(off == on);
}

/**
 * One golden run: SystemConfig overrides (space-separated key=value, as
 * on the inpg_sim command line) plus the workload, with LCO attribution
 * on. Renders the Fingerprint fields, an FNV-1a digest of the full
 * stats snapshot and the LCO leg table as text.
 */
std::string
goldenRunText(const std::string &overrides, const char *bench,
              double cs_scale, int threads = 1)
{
    std::string lines = overrides;
    for (char &c : lines)
        if (c == ' ')
            c = '\n';
    Config args;
    args.loadString(lines);
    SystemConfig cfg;
    cfg.telemetry.lco = true;
    cfg.threads = threads;
    cfg.applyOverrides(args);
    System system(cfg);

    Workload::Params wp;
    wp.profile = benchmarkByName(bench);
    wp.threads = cfg.numCores();
    wp.csScale = cs_scale;
    wp.lockKind = cfg.lockKind;
    wp.seed = cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());
    workload.start();
    system.runUntil([&] { return workload.done(); });

    const Fingerprint f = fingerprintOf(system, workload);
    const LcoSummary lco = system.telemetry()->lco->summary();
    std::ostringstream os;
    os << "config " << overrides << " benchmark=" << bench
       << " cs_scale=" << cs_scale << "\n"
       << "sim_cycles " << f.simCycles << "\n"
       << "roi_cycles " << f.roiCycles << "\n"
       << "cs_completed " << f.csCompleted << "\n"
       << "parallel_cycles " << f.parallelCycles << "\n"
       << "coh_cycles " << f.cohCycles << "\n"
       << "sleep_cycles " << f.sleepCycles << "\n"
       << "cse_cycles " << f.cseCycles << "\n"
       << "early_invs " << f.earlyInvs << "\n"
       << "flits_sent " << f.flitsSent << "\n"
       << "stats_fnv1a " << std::hex
       << fnv1a64(system.statsSnapshot(false).dump()) << std::dec << "\n"
       << "lco.acquires " << lco.acquires << "\n"
       << "lco.total_latency " << lco.totalLatency << "\n"
       << "lco.leg.l1_access " << lco.legs.l1Access << "\n"
       << "lco.leg.req_network " << lco.legs.reqNetwork << "\n"
       << "lco.leg.dir_service " << lco.legs.dirService << "\n"
       << "lco.leg.resp_network " << lco.legs.respNetwork << "\n"
       << "lco.leg.inv_ack_wait " << lco.legs.invAckWait << "\n"
       << "lco.leg.spin_wait " << lco.legs.spinWait << "\n"
       << "lco.leg.sleep_wait " << lco.legs.sleepWait << "\n"
       << "lco.leg.other " << lco.legs.other << "\n";
    // Packet-telemetry runs also pin the hop-level output: the
    // noc.packets latency group and the Chrome trace built from the
    // per-hop stamps.
    const Telemetry &telem = *system.telemetry();
    if (telem.packets) {
        const JsonValue snap = system.statsSnapshot(false);
        os << "noc.packets_fnv1a " << std::hex
           << fnv1a64(snap.at("groups").at("noc.packets").dump())
           << std::dec << "\n";
    }
    if (telem.trace) {
        os << "trace.events " << telem.trace->eventCount() << "\n"
           << "trace_fnv1a " << std::hex
           << fnv1a64(telem.trace->writeJson()) << std::dec << "\n";
    }
    return os.str();
}

TEST(Determinism, GoldenMesh4x4Tas)
{
    expectMatchesGolden(
        "run_mesh4x4_tas.txt",
        goldenRunText("topology=mesh:4x4 lock=tas", "ferret", 0.1));
}

TEST(Determinism, GoldenMesh8x8Tas)
{
    expectMatchesGolden(
        "run_mesh8x8_tas.txt",
        goldenRunText("topology=mesh:8x8 lock=tas", "ferret", 0.1));
}

TEST(Determinism, GoldenMesh8x8InpgQsl)
{
    // Big routers add the generator port and its queue to every
    // lock-home router.
    expectMatchesGolden(
        "run_mesh8x8_inpg_qsl.txt",
        goldenRunText("topology=mesh:8x8 mechanism=inpg lock=qsl",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenMesh4x4InpgOcorQsl)
{
    // iNPG+OCOR selects the Priority switch policy: covers the
    // priority/aging arbitration path of the allocators.
    expectMatchesGolden(
        "run_mesh4x4_inpg_ocor_qsl.txt",
        goldenRunText("topology=mesh:4x4 mechanism=inpg+ocor lock=qsl",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenTorus4x4InpgTas)
{
    // Wraparound links and dateline escape-VC classes.
    expectMatchesGolden(
        "run_torus4x4_inpg_tas.txt",
        goldenRunText("topology=torus:4x4 mechanism=inpg lock=tas",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenMesh6x3Tas)
{
    // A non-square grid: a route decision that swaps the column and
    // row index moves this run, while every square grid stays put.
    expectMatchesGolden(
        "run_mesh6x3_tas.txt",
        goldenRunText("topology=mesh:6x3 lock=tas", "ferret", 0.1));
}

TEST(Determinism, GoldenTorus5x4InpgTas)
{
    // Non-square torus with big routers: dateline classes on rings of
    // two different lengths, one of them odd.
    expectMatchesGolden(
        "run_torus5x4_inpg_tas.txt",
        goldenRunText("topology=torus:5x4 mechanism=inpg lock=tas",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenCmesh4x4x4Tas)
{
    // Four cores per router: NI fan-in over a 16-router grid.
    expectMatchesGolden(
        "run_cmesh4x4x4_tas.txt",
        goldenRunText("topology=cmesh:4x4x4 lock=tas", "ferret", 0.05));
}

TEST(Determinism, GoldenMesh4x4ThreeVcsPerVnet)
{
    // 12 VCs per port (three per vnet): 72 VC slots per router, more
    // than one 64-bit word holds, and vnet mask boundaries that are
    // not a power of two.
    expectMatchesGolden(
        "run_mesh4x4_vcs3_tas.txt",
        goldenRunText("topology=mesh:4x4 vcs_per_vnet=3 lock=tas",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenMesh4x4Vcs8Depth1Tas)
{
    // 32 VCs per port (eight per vnet), the full candidate-mask word,
    // at the minimum buffer depth: every VC ring holds one flit.
    expectMatchesGolden(
        "run_mesh4x4_vcs8_depth1_tas.txt",
        goldenRunText("topology=mesh:4x4 vcs_per_vnet=8 vc_depth=1 "
                      "lock=tas",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenMesh4x4InpgDepth6Tas)
{
    // A ring depth that is not a power of two, on routers that also
    // carry the iNPG generator port.
    expectMatchesGolden(
        "run_mesh4x4_inpg_depth6_tas.txt",
        goldenRunText("topology=mesh:4x4 mechanism=inpg vc_depth=6 "
                      "lock=tas",
                      "ferret", 0.1));
}

TEST(Determinism, GoldenMesh4x4McsFreq)
{
    expectMatchesGolden(
        "run_mesh4x4_mcs_freq.txt",
        goldenRunText("topology=mesh:4x4 lock=mcs", "freq", 0.005));
}

TEST(FabricDeterminism, GoldenMesh8x8InpgTasPackets)
{
    // Hop-level packet telemetry (arrive / VA-grant / depart stamps)
    // is written by fabric routers, which run on worker threads when
    // the fabric is sharded: the rendering must not depend on the
    // thread count.
    const std::string overrides = "topology=mesh:8x8 mechanism=inpg "
                                  "lock=tas telemetry=lco,packets,trace";
    const std::string serial = goldenRunText(overrides, "ferret", 0.1);
    EXPECT_EQ(serial, goldenRunText(overrides, "ferret", 0.1, 4));
    expectMatchesGolden("run_mesh8x8_inpg_tas_packets.txt", serial);
}

TEST(Determinism, GoldenSeededHangReport)
{
    // A protocol hang (first directory response dropped) trips the
    // watchdog; its structured report dumps router/NI/event-queue state
    // and must stay byte-identical.
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = LockKind::Tas;
    cfg.coh.dropDirResponseNth = 1;
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
    } catch (const SimHangError &e) {
        expectMatchesGolden("hang_mesh4x4_drop_dir_response.json",
                            e.reportJson());
        return;
    }
    ADD_FAILURE() << "seeded hang did not trip the watchdog";
}

TEST(Determinism, SweepMatchesSerialRuns)
{
    RunConfig rc;
    rc.profile = benchmarkByName("ferret");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.csScale = 0.05;

    std::vector<RunConfig> configs;
    for (Mechanism m : ALL_MECHANISMS) {
        rc.system.mechanism = m;
        configs.push_back(rc);
    }

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions pooled;
    pooled.threads = 2;
    std::vector<RunRecord> a = runSweep(configs, serial);
    std::vector<RunRecord> b = runSweep(configs, pooled);

    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].mechanism,
                  mechanismName(configs[i].system.mechanism));
        EXPECT_EQ(a[i].roiCycles, b[i].roiCycles) << "config " << i;
        EXPECT_EQ(a[i].csCompleted, b[i].csCompleted) << "config " << i;
        EXPECT_EQ(a[i].cohCycles, b[i].cohCycles) << "config " << i;
        EXPECT_EQ(a[i].earlyInvs, b[i].earlyInvs) << "config " << i;
    }
}

TEST(Determinism, SweepRecordsClampedKernelThreads)
{
    // Two parallel-kernel runs on a two-worker sweep: each record
    // carries the kernel thread count its run actually used, after
    // the sweep's host budget clamp.
    RunConfig rc;
    rc.profile = benchmarkByName("freq");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.system.threads = 4;
    rc.csScale = 0.01;
    SweepOptions opts;
    opts.threads = 2;
    const std::vector<RunRecord> records = runSweep({rc, rc}, opts);
    ASSERT_EQ(records.size(), 2u);
    const int budget =
        perRunThreadBudget(2, 4, std::thread::hardware_concurrency());
    for (const RunRecord &r : records)
        EXPECT_EQ(r.threads, budget);
}

} // namespace
} // namespace inpg
