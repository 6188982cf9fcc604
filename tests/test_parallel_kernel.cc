/**
 * @file
 * Parallel-kernel equivalence tests: the tile-sharded kernel
 * (src/sim/parallel) must be bit-identical in simulated results to
 * the serial kernel at every thread count -- workload fingerprints,
 * full stats-JSON snapshots, and seeded-hang reports all byte-equal
 * -- and hand the simulator back to serial stepping unchanged after
 * shutdown(). Also covers run(n) against the serial kernel at the
 * fixed channel delays, host-profiled stepping (invisible in simulated
 * results, serial kernel only), the topology=16x16 preset, the sweep
 * thread-budget arbiter, the quantum gate's spin/park handoffs, and
 * goldens for the self-profile's deterministic counters
 * (tests/golden/parallel_profile_*.txt), which pin how many quanta,
 * barriers and merged flits and credits a run takes. WakeDeterminism.* and the domain-ring tests pin delivery-time
 * wakes: a consumer sleeps until its flit is deliverable, a flit in
 * flight is neither an idle span nor a deadlock, and a pending wake
 * survives shutdown() and blocks adopt().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "common/config.hh"
#include "golden.hh"
#include "harness/sweep_runner.hh"
#include "harness/system.hh"
#include "noc/network.hh"
#include "sim/parallel/parallel_kernel.hh"
#include "sim/parallel/spin_barrier.hh"
#include "telemetry/telemetry.hh"
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

struct RunSpec {
    int threads = 1;
    int mesh = 4;
    Mechanism mech = Mechanism::Original;
    LockKind lock = LockKind::Qsl;
    const char *bench = "freq";
    double csScale = 0.05;
    /** Attached for the whole run when set (serial kernel only). */
    Simulator::HostPhaseProfile *hostProfile = nullptr;
};

Fingerprint
runOnce(const RunSpec &spec, std::string *stats_json = nullptr)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = spec.mesh;
    cfg.noc.meshHeight = spec.mesh;
    cfg.mechanism = spec.mech;
    cfg.lockKind = spec.lock;
    cfg.threads = spec.threads;
    cfg.finalize();

    System system(cfg);
    EXPECT_EQ(system.parallelKernel() != nullptr, spec.threads > 1);

    Workload::Params wp;
    wp.profile = benchmarkByName(spec.bench);
    wp.threads = cfg.numCores();
    wp.csScale = spec.csScale;
    wp.lockKind = cfg.lockKind;
    wp.seed = cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());
    Simulator &sim = system.sim();
    sim.setHostProfile(spec.hostProfile);
    const Cycle executedBefore = sim.now() - sim.cyclesFastForwarded();
    workload.start();
    system.runUntil([&] { return workload.done(); });
    sim.setHostProfile(nullptr);
    if (spec.hostProfile) {
        // Every executed cycle, and only those, is a profiled cycle.
        EXPECT_EQ(spec.hostProfile->profiledCycles,
                  sim.now() - sim.cyclesFastForwarded() - executedBefore);
    }

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
    if (stats_json) {
        // Exclude the host-time self-profile: everything else in the
        // snapshot is simulated state and must match across thread
        // counts (the profile itself is covered by its own test).
        *stats_json = system.statsSnapshot(false).dump(2);
    }
    return f;
}

TEST(ParallelKernel, FingerprintMatchesSerialOn4x4)
{
    RunSpec serial;
    Fingerprint ref = runOnce(serial);
    for (int t : {2, 4, 8}) {
        RunSpec par = serial;
        par.threads = t;
        EXPECT_TRUE(runOnce(par) == ref) << "threads=" << t;
    }
}

TEST(ParallelKernel, FingerprintMatchesSerialOn8x8)
{
    RunSpec serial;
    serial.mesh = 8;
    serial.csScale = 0.02;
    Fingerprint ref = runOnce(serial);
    for (int t : {2, 4}) {
        RunSpec par = serial;
        par.threads = t;
        EXPECT_TRUE(runOnce(par) == ref) << "threads=" << t;
    }
}

TEST(ParallelKernel, FingerprintMatchesSerialWithInpg)
{
    RunSpec serial;
    serial.mesh = 8;
    serial.mech = Mechanism::Inpg;
    serial.csScale = 0.02;
    Fingerprint ref = runOnce(serial);
    RunSpec par = serial;
    par.threads = 4;
    EXPECT_TRUE(runOnce(par) == ref);
}

TEST(ParallelKernel, FingerprintMatchesSerialOn16x16)
{
    RunSpec serial;
    serial.mesh = 16;
    serial.csScale = 0.005;
    Fingerprint ref = runOnce(serial);
    RunSpec par = serial;
    par.threads = 4;
    EXPECT_TRUE(runOnce(par) == ref);
}

TEST(ParallelKernel, StatsSnapshotByteIdentical)
{
    // The full machine-readable stats surface -- every router, NI,
    // directory, L1 and lock counter -- must match, not just the
    // workload-level fingerprint.
    RunSpec serial;
    serial.mech = Mechanism::Inpg;
    std::string ref, par_json;
    runOnce(serial, &ref);
    RunSpec par = serial;
    par.threads = 4;
    runOnce(par, &par_json);
    EXPECT_EQ(ref, par_json);
}

TEST(HostProfile, ProfiledSteppingIsInvisible)
{
    // The host-profiled cycle times the event phase and every tick;
    // what it simulates must be byte-for-byte the unprofiled run.
    RunSpec plain;
    plain.mesh = 8;
    plain.mech = Mechanism::Inpg;
    plain.lock = LockKind::Tas;
    plain.csScale = 0.02;
    std::string plainJson, profiledJson;
    const Fingerprint ref = runOnce(plain, &plainJson);

    Simulator::HostPhaseProfile prof;
    RunSpec profiled = plain;
    profiled.hostProfile = &prof;
    EXPECT_TRUE(runOnce(profiled, &profiledJson) == ref);
    EXPECT_EQ(plainJson, profiledJson);
    EXPECT_GT(prof.profiledCycles, 0u);
    EXPECT_GT(prof.routersSec, 0.0);
    EXPECT_GT(prof.nisSec, 0.0);
}

TEST(ParallelKernel, SelfProfileSurfacesInSnapshot)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.threads = 4;
    cfg.finalize();
    System system(cfg);
    ASSERT_NE(system.parallelKernel(), nullptr);

    Workload::Params wp;
    wp.profile = benchmarkByName("freq");
    wp.threads = cfg.numCores();
    wp.csScale = 0.05;
    wp.lockKind = cfg.lockKind;
    wp.seed = cfg.seed;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });

    const ParallelProfile &prof = system.parallelKernel()->profile();
    EXPECT_GT(prof.quantaCount(), 0u);
    EXPECT_EQ(prof.quantaCount(),
              prof.barrierCount() + prof.barriersElidedCount());

    const JsonValue snap = system.statsSnapshot();
    const JsonValue *pp = snap.find("parallel_profile");
    ASSERT_NE(pp, nullptr);
    EXPECT_EQ(pp->at("threads").asInt(0), 4);
    EXPECT_GT(pp->at("quanta").asUint(0), 0u);
    EXPECT_GT(pp->at("drained_flits").asUint(0), 0u);
    // Host section: one busy/wait slot per worker thread.
    const JsonValue &workers = pp->at("host").at("workers");
    ASSERT_EQ(workers.size(), 3u);
    std::uint64_t busy = 0;
    for (std::size_t i = 0; i < workers.size(); ++i)
        busy += workers.item(i).at("busy_ns").asUint(0);
    EXPECT_GT(busy, 0u);

    // Serial systems must not grow the section (byte-identity with
    // pre-profiler snapshots is asserted elsewhere).
    SystemConfig scfg;
    scfg.noc.meshWidth = 2;
    scfg.noc.meshHeight = 2;
    scfg.finalize();
    System serial(scfg);
    serial.sim().run(10);
    EXPECT_EQ(serial.statsSnapshot().find("parallel_profile"), nullptr);
}

/**
 * The self-profile's deterministic half -- everything but "host" --
 * for one run: SystemConfig overrides (space-separated key=value, as
 * on the inpg_sim command line) plus the workload.
 */
std::string
profileGoldenText(const std::string &overrides, const char *bench,
                  double cs_scale)
{
    std::string lines = overrides;
    for (char &c : lines)
        if (c == ' ')
            c = '\n';
    Config args;
    args.loadString(lines);
    SystemConfig cfg;
    cfg.applyOverrides(args);
    System system(cfg);
    EXPECT_NE(system.parallelKernel(), nullptr);

    Workload::Params wp;
    wp.profile = benchmarkByName(bench);
    wp.threads = cfg.numCores();
    wp.csScale = cs_scale;
    wp.lockKind = cfg.lockKind;
    wp.seed = cfg.seed;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    // Far above either run's length: a merge that loses traffic
    // stalls the fabric and fails here instead of spinning for the
    // default budget.
    system.runUntil([&] { return w.done(); }, 1000000);

    const JsonValue doc = system.parallelKernel()->profile().toJson();
    JsonValue counters = JsonValue::object();
    for (const auto &[key, value] : doc.members())
        if (key != "host")
            counters[key] = value;
    return "config " + overrides + " benchmark=" + bench +
           " cs_scale=" + std::to_string(cs_scale) + "\n" +
           counters.dump(2) + "\n";
}

TEST(ParallelKernel, ProfileCountersMatchGoldenMesh8x8Inpg)
{
    expectMatchesGolden(
        "parallel_profile_mesh8x8_inpg_t4.txt",
        profileGoldenText("topology=mesh:8x8 mechanism=inpg lock=tas "
                          "threads=4",
                          "freq", 0.02));
}

TEST(ParallelKernel, ProfileCountersMatchGoldenTorus4x4)
{
    // Wrap links put worker domains at both ends of a boundary.
    expectMatchesGolden(
        "parallel_profile_torus4x4_tas_t4.txt",
        profileGoldenText("topology=torus:4x4 lock=tas threads=4",
                          "ferret", 0.01));
}

TEST(ParallelKernel, GateSpinCatchesHandoff)
{
    // An epoch already published is caught by the spin's first load:
    // await returns without parking.
    {
        QuantumGate gate;
        gate.release(1);
        EXPECT_FALSE(gate.await(1));
    }

    // The waiter is spinning (it announced itself) when the epoch is
    // published. Whether it catches the epoch spinning or parked
    // depends on the host's scheduler, so only the payload the
    // release/acquire pair orders is checked.
    constexpr int TRIALS = 200;
    QuantumGate gate;
    std::atomic<std::uint64_t> spinning{0};
    int payload = 0;
    std::thread waiter([&] {
        for (std::uint64_t e = 1; e <= TRIALS; ++e) {
            spinning.store(e, std::memory_order_release);
            gate.await(e);
            EXPECT_EQ(payload, static_cast<int>(e));
        }
    });
    for (std::uint64_t e = 1; e <= TRIALS; ++e) {
        while (spinning.load(std::memory_order_acquire) < e)
            std::this_thread::yield();
        payload = static_cast<int>(e);
        gate.release(e);
    }
    waiter.join();
}

TEST(ParallelKernel, GateWaiterOutlastingBudgetParksAndWakes)
{
    QuantumGate gate;
    std::atomic<bool> started{false};
    int payload = 0;
    bool parked = false;
    std::thread waiter([&] {
        started.store(true, std::memory_order_release);
        parked = gate.await(1);
        EXPECT_EQ(payload, 42);
    });
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    // Far beyond SPIN_ROUNDS rounds of pause-and-yield.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    payload = 42;
    gate.release(1);
    waiter.join();
    EXPECT_TRUE(parked);
}

TEST(ParallelKernel, GatePingPongLosesNoWakeup)
{
    // Two threads alternate through two gates, like the coordinator's
    // go gate and a worker's arrival gate. Every 1024th epoch one side
    // dawdles past the spin budget, so both the spin and the park
    // paths are crossed many times; a lost wakeup hangs the test.
    constexpr std::uint64_t EPOCHS = 20000;
    QuantumGate ping, pong;
    std::uint64_t token = 0; // handed back and forth by the gates
    std::thread partner([&] {
        for (std::uint64_t e = 1; e <= EPOCHS; ++e) {
            ping.await(e);
            EXPECT_EQ(token, 2 * e - 1);
            ++token;
            if (e % 1024 == 512)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            pong.release(e);
        }
    });
    for (std::uint64_t e = 1; e <= EPOCHS; ++e) {
        ++token;
        if (e % 1024 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ping.release(e);
        pong.await(e);
        EXPECT_EQ(token, 2 * e);
    }
    partner.join();
}

/**
 * Seeded protocol hang under full diagnosis instrumentation
 * (watchdog + flight recorder + packet-lifetime tracking). The hang
 * report dumps router pipeline state, in-flight packet waterfalls and
 * the recorder ring; all of it must be byte-identical when the fabric
 * ran sharded -- this is what makes --threads an honest debugging
 * tool, not just a fast one.
 */
std::string
hangReport(int threads)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = LockKind::Tas;
    cfg.threads = threads;
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
        return e.reportJson();
    }
    ADD_FAILURE() << "seeded hang did not trip the watchdog";
    return std::string();
}

TEST(ParallelKernel, SeededHangReportByteIdentical)
{
    std::string serial = hangReport(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, hangReport(4));
}

/** Standalone NoC harness (no coherence layer) for kernel-level tests. */
struct NocHarness {
    NocHarness(int w, int h)
    {
        cfg.meshWidth = w;
        cfg.meshHeight = h;
        net = std::make_unique<Network>(cfg, sim);
        for (NodeId id = 0; id < net->numNodes(); ++id) {
            net->niFor(id).setDeliverCallback(
                id, [this, id](const PacketPtr &pkt, Cycle now) {
                    ++delivered[pkt->id];
                    lastDst[pkt->id] = id;
                    deliveredAt[pkt->id] = now;
                });
        }
    }

    void
    injectAll()
    {
        // A deterministic all-to-one + neighbor pattern crossing every
        // vertical tile boundary.
        for (NodeId src = 0; src < net->numNodes(); ++src) {
            NodeId dst = static_cast<NodeId>(
                (src * 7 + 3) % net->numNodes());
            net->inject(net->makePacket(src, dst, src % 3, 1 + src % 4),
                        sim.now());
        }
    }

    std::uint64_t
    flitsSent() const
    {
        std::uint64_t total = 0;
        for (NodeId r = 0; r < net->numRouters(); ++r)
            total += net->router(r).stats.flitsSent;
        return total;
    }

    NocConfig cfg;
    Simulator sim;
    std::unique_ptr<Network> net;
    std::map<PacketId, int> delivered;
    std::map<PacketId, NodeId> lastDst;
    std::map<PacketId, Cycle> deliveredAt;
};

TEST(ParallelKernel, MultiCycleQuantumMatchesSerial)
{
    // A multi-cycle run(n) at threads=4, one quantum per cycle,
    // delivers every packet at the serial kernel's cycle, to the
    // serial kernel's node.
    const Cycle span = 400;
    NocHarness serial(4, 4);
    serial.injectAll();
    serial.sim.run(span);
    ASSERT_EQ(serial.delivered.size(),
              static_cast<std::size_t>(serial.net->numNodes()));

    NocHarness par(4, 4);
    par.injectAll();
    ParallelKernel k(par.sim, *par.net, 4);
    par.sim.run(span);
    k.shutdown();

    EXPECT_EQ(par.sim.now(), serial.sim.now());
    EXPECT_EQ(par.delivered, serial.delivered);
    EXPECT_EQ(par.lastDst, serial.lastDst);
    EXPECT_EQ(par.deliveredAt, serial.deliveredAt);
    EXPECT_EQ(par.flitsSent(), serial.flitsSent());
}

TEST(ParallelKernel, HopTimingMatchesSerialEveryCycle)
{
    // Every router takes in and sends the same number of flits on
    // every cycle at threads=4 as serially: flits crossing a domain
    // boundary land in their consumer's delivery slot for the serial
    // cycle, and credits crossing it count from the serial cycle.
    // Packets twice as long as a VC buffer make every hop wait on
    // returned credits.
    const Cycle span = 300;
    auto injectLong = [](NocHarness &h) {
        const NodeId n = h.net->numNodes();
        for (NodeId src = 0; src < n; ++src)
            h.net->inject(h.net->makePacket(src, (src * 7 + 3) % n,
                                            src % 3, 2 * h.cfg.vcDepth),
                          h.sim.now());
    };
    auto perCycle = [&](NocHarness &h) {
        std::vector<std::uint64_t> trace;
        for (Cycle c = 0; c < span; ++c) {
            h.sim.step();
            for (NodeId id = 0; id < h.net->numRouters(); ++id) {
                const RouterStats &st = h.net->router(id).stats;
                trace.push_back(st.flitsReceived);
                trace.push_back(st.flitsSent);
            }
        }
        return trace;
    };
    NocHarness serial(4, 4);
    injectLong(serial);
    const std::vector<std::uint64_t> expect = perCycle(serial);
    ASSERT_EQ(serial.delivered.size(),
              static_cast<std::size_t>(serial.net->numNodes()));

    NocHarness par(4, 4);
    injectLong(par);
    ParallelKernel k(par.sim, *par.net, 4);
    ASSERT_GT(k.boundaryChannels(), 0u);
    const std::vector<std::uint64_t> got = perCycle(par);
    k.shutdown();
    EXPECT_EQ(got, expect);
    EXPECT_EQ(par.deliveredAt, serial.deliveredAt);
    EXPECT_TRUE(par.net->quiescent());
}

TEST(ParallelKernel, HostProfileNeedsSerialKernel)
{
    // Checked when either side is attached, never per cycle.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator::HostPhaseProfile prof;
    {
        NocHarness h(4, 4);
        ParallelKernel k(h.sim, *h.net, 2);
        EXPECT_DEATH(h.sim.setHostProfile(&prof), "serial kernel");
    }
    NocHarness h(4, 4);
    h.sim.setHostProfile(&prof);
    EXPECT_DEATH({ ParallelKernel k(h.sim, *h.net, 2); }, "serial kernel");
}

TEST(ParallelKernel, ShutdownHandsBackSerialStepping)
{
    // Run the first half sharded, shut the kernel down mid-flight,
    // finish serially; every simulated observable must match a run
    // that was serial throughout.
    const Cycle half = 40, full = 400;
    NocHarness serial(4, 4);
    serial.injectAll();
    serial.sim.run(full);

    NocHarness par(4, 4);
    par.injectAll();
    {
        ParallelKernel k(par.sim, *par.net, 4);
        EXPECT_GT(k.stolenComponents(), 0u);
        EXPECT_GT(k.boundaryChannels(), 0u);
        par.sim.run(half);
        k.shutdown();
    }
    par.sim.run(full - half);

    EXPECT_EQ(par.sim.now(), serial.sim.now());
    EXPECT_EQ(par.delivered, serial.delivered);
    EXPECT_EQ(par.deliveredAt, serial.deliveredAt);
    EXPECT_EQ(par.flitsSent(), serial.flitsSent());
    EXPECT_TRUE(par.net->quiescent());
}

// ---------------------------------------------------------------------
// Delivery-time wakes: a flit push wakes its consumer for the cycle the
// flit becomes deliverable; until then the consumer may sleep.
// ---------------------------------------------------------------------

/** Cycle at which a counter first read `target` after a step. */
struct FirstAt {
    const Counter *counter;
    std::uint64_t target = 1;
    Cycle at = CYCLE_NEVER;

    void
    observe(Cycle c)
    {
        if (at == CYCLE_NEVER && *counter >= target)
            at = c;
    }
};

TEST(WakeDeterminism, SleepingRouterAndNiWakeAtDeliveryCycle)
{
    // One single-flit packet across a 2x1 mesh: NI0 -> router0 ->
    // router1 -> NI1. Every consumer sleeps while the flit is on the
    // wire toward it and enters the active set exactly at the delivery
    // cycle (push cycle + FLIT_DELAY), not at the push.
    NocHarness h(2, 1);
    Network &net = *h.net;
    const Cycle delay = FLIT_DELAY;
    h.sim.run(4); // nothing to do: everyone falls asleep
    ASSERT_EQ(h.sim.activeComponents(), 0u);

    net.inject(net.makePacket(0, 1, 0, 1), h.sim.now());
    SleepToken &r0 = net.router(0).sleepToken();
    SleepToken &r1 = net.router(1).sleepToken();
    SleepToken &ni1 = net.ni(1).sleepToken();
    FirstAt niSent{&net.ni(0).stats.flitsSent};
    FirstAt r0Got{&net.router(0).stats.flitsReceived};
    FirstAt r0Sent{&net.router(0).stats.flitsSent};
    FirstAt r1Got{&net.router(1).stats.flitsReceived};
    FirstAt r1Sent{&net.router(1).stats.flitsSent};
    FirstAt ejected{&net.ni(1).stats.packetsDelivered};
    while (ejected.at == CYCLE_NEVER && h.sim.now() < 100) {
        const Cycle c = h.sim.now();
        // Start of cycle c, before its timed wakes apply.
        if (niSent.at != CYCLE_NEVER && c <= niSent.at + delay) {
            EXPECT_FALSE(r0.active()) << "router0 awake at " << c;
        }
        if (r0Sent.at != CYCLE_NEVER && c <= r0Sent.at + delay) {
            EXPECT_FALSE(r1.active()) << "router1 awake at " << c;
        }
        if (r1Sent.at != CYCLE_NEVER && c <= r1Sent.at + delay) {
            EXPECT_FALSE(ni1.active()) << "ni1 awake at " << c;
        }
        h.sim.step();
        for (FirstAt *f : {&niSent, &r0Got, &r0Sent, &r1Got, &r1Sent,
                           &ejected})
            f->observe(c);
        // A router leaves the active set in the cycle its last flit
        // departs, with nothing left to wait for.
        if (c == r0Sent.at) {
            EXPECT_FALSE(r0.active());
            EXPECT_TRUE(r1.wakePending());
        }
    }
    ASSERT_NE(ejected.at, CYCLE_NEVER);
    EXPECT_EQ(r0Got.at, niSent.at + delay);
    EXPECT_EQ(r1Got.at, r0Sent.at + delay);
    EXPECT_EQ(ejected.at, r1Sent.at + delay);
    EXPECT_FALSE(r1.wakePending());
    EXPECT_FALSE(ni1.wakePending());
}

TEST(WakeDeterminism, FlitInFlightIsNotADeadlockOrAnIdleSpan)
{
    // With every component asleep, the event queue empty and the
    // watchdog on, the only live state is a flit on a link. The kernel
    // must neither trip the structural-deadlock check nor fast-forward
    // past the delivery: the run ends on the cycle a kernel without
    // fast-forward ends on.
    auto deliveryCycle = [](bool fast_forward) {
        NocHarness h(2, 1);
        h.sim.setFastForward(fast_forward);
        TelemetryConfig tc;
        tc.watchdogWindow = 1000;
        Telemetry tel(tc, 2);
        h.sim.setTelemetry(&tel);
        Network &net = *h.net;
        net.inject(net.makePacket(0, 1, 0, 1), h.sim.now());
        const Counter &sent = net.router(0).stats.flitsSent;
        while (sent == 0 && h.sim.now() < 100)
            h.sim.step();
        EXPECT_EQ(h.sim.activeComponents(), 0u);
        EXPECT_TRUE(h.sim.events().empty());
        EXPECT_TRUE(net.router(1).sleepToken().wakePending());
        const Counter &done = net.ni(1).stats.packetsDelivered;
        const Cycle ff = h.sim.cyclesFastForwarded();
        bool ok = false;
        EXPECT_NO_THROW(
            ok = h.sim.runUntil([&] { return done == 1; }, 1000));
        EXPECT_TRUE(ok);
        EXPECT_EQ(h.sim.cyclesFastForwarded(), ff);
        h.sim.setTelemetry(nullptr);
        return h.sim.now();
    };
    EXPECT_EQ(deliveryCycle(true), deliveryCycle(false));
}

TEST(ParallelKernel, ShutdownMovesPendingDomainWakeToSerialRing)
{
    // Shut the kernel down while a fabric router sleeps with a flit in
    // flight toward it: its timed wake must move from the domain ring
    // to the serial ring (a dropped wake strands the flit), and the
    // run must still match a serial run.
    const Cycle full = 400;
    NocHarness serial(4, 4);
    serial.injectAll();
    serial.sim.run(full);

    NocHarness par(4, 4);
    par.injectAll();
    NodeId waiting = INVALID_NODE;
    {
        ParallelKernel k(par.sim, *par.net, 4);
        ASSERT_EQ(k.stolenComponents(),
                  static_cast<std::size_t>(par.net->numRouters()));
        while (waiting == INVALID_NODE && par.sim.now() < full) {
            par.sim.step();
            for (NodeId id = 0; id < par.net->numRouters(); ++id) {
                SleepToken &t = par.net->router(id).sleepToken();
                if (!t.active() && t.wakePending()) {
                    waiting = id;
                    break;
                }
            }
        }
        ASSERT_NE(waiting, INVALID_NODE);
        k.shutdown();
    }
    SleepToken &t = par.net->router(waiting).sleepToken();
    EXPECT_FALSE(t.active());
    EXPECT_TRUE(t.wakePending());
    par.sim.run(full - par.sim.now());

    EXPECT_EQ(par.sim.now(), serial.sim.now());
    EXPECT_EQ(par.delivered, serial.delivered);
    EXPECT_EQ(par.lastDst, serial.lastDst);
    EXPECT_EQ(par.deliveredAt, serial.deliveredAt);
    EXPECT_EQ(par.flitsSent(), serial.flitsSent());
    EXPECT_TRUE(par.net->quiescent());
}

TEST(ParallelKernel, AdoptRejectsPendingTimedWake)
{
    // A domain ring starts empty, so stealing a router whose wake sits
    // in the serial ring would strand the flit; adopt() refuses.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NocHarness h(4, 4);
    h.injectAll();
    auto anyPending = [&] {
        for (NodeId id = 0; id < h.net->numRouters(); ++id)
            if (h.net->router(id).sleepToken().wakePending())
                return true;
        return false;
    };
    while (!anyPending() && h.sim.now() < 100)
        h.sim.step();
    ASSERT_TRUE(anyPending());
    EXPECT_DEATH({ ParallelKernel k(h.sim, *h.net, 4); },
                 "timed wake pending");
}

TEST(ParallelKernel, MeshPresetParsesWxH)
{
    Config overrides;
    overrides.loadString("topology = 16x16\nthreads = 4\n");
    SystemConfig cfg;
    cfg.applyOverrides(overrides);
    EXPECT_EQ(cfg.noc.topology, TopologyKind::Mesh);
    EXPECT_EQ(cfg.noc.meshWidth, 16);
    EXPECT_EQ(cfg.noc.meshHeight, 16);
    EXPECT_EQ(cfg.threads, 4);
}

TEST(ParallelKernel, ThreadsClampToSaneRange)
{
    Config overrides;
    overrides.loadString("threads = 0\n");
    SystemConfig cfg;
    cfg.applyOverrides(overrides);
    EXPECT_EQ(cfg.threads, 1);

    Config big;
    big.loadString("threads = 9999\n");
    SystemConfig cfg2;
    cfg2.applyOverrides(big);
    EXPECT_EQ(cfg2.threads, 64);
}

TEST(ParallelKernel, SweepThreadBudgetArbitration)
{
    // Serial runs stay serial regardless of the sweep width.
    EXPECT_EQ(perRunThreadBudget(8, 1, 16), 1);
    // A lone sweep worker hands the whole host to the run.
    EXPECT_EQ(perRunThreadBudget(1, 8, 16), 8);
    // Concurrent runs split the host evenly...
    EXPECT_EQ(perRunThreadBudget(4, 8, 16), 4);
    // ...but a request below the share is honored as-is...
    EXPECT_EQ(perRunThreadBudget(4, 2, 16), 2);
    // ...and oversubscribed hosts degrade to serial runs.
    EXPECT_EQ(perRunThreadBudget(16, 8, 4), 1);
}

} // namespace
} // namespace inpg
