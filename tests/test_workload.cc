/**
 * @file
 * Workload-layer tests: benchmark profiles, the phase recorder, thread
 * contexts and full workload runs on a small system.
 */

#include <gtest/gtest.h>

#include <set>

#include "harness/system.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// BenchmarkProfile table
// ---------------------------------------------------------------------

TEST(Benchmarks, TwentyFourProgramsInPaperGroups)
{
    const auto &all = allBenchmarks();
    EXPECT_EQ(all.size(), 24u);
    EXPECT_EQ(benchmarksInGroup(1).size(), 6u);
    EXPECT_EQ(benchmarksInGroup(2).size(), 12u);
    EXPECT_EQ(benchmarksInGroup(3).size(), 6u);

    int parsec = 0;
    std::set<std::string> names;
    for (const auto &b : all) {
        parsec += b.suite == Suite::Parsec ? 1 : 0;
        EXPECT_TRUE(names.insert(b.name).second)
            << "duplicate " << b.name;
        EXPECT_GT(b.totalCs, 0u);
        EXPECT_GT(b.avgCsCycles, 0);
        EXPECT_GT(b.avgParallelCycles, 0);
        EXPECT_GE(b.numLocks, 1);
    }
    EXPECT_EQ(parsec, 10);
}

TEST(Benchmarks, GroupsSeparateByTotalCsWork)
{
    // Group ordering must reflect totalCs x avgCsCycles (Fig. 8b).
    double max_g1 = 0;
    double min_g2 = 1e18;
    double max_g2 = 0;
    double min_g3 = 1e18;
    for (const auto &b : allBenchmarks()) {
        double work = static_cast<double>(b.totalCs) * b.avgCsCycles;
        if (b.group == 1)
            max_g1 = std::max(max_g1, work);
        if (b.group == 2) {
            min_g2 = std::min(min_g2, work);
            max_g2 = std::max(max_g2, work);
        }
        if (b.group == 3)
            min_g3 = std::min(min_g3, work);
    }
    EXPECT_LT(max_g1, min_g2);
    EXPECT_LT(max_g2, min_g3);
}

TEST(Benchmarks, LookupByShortAndFullName)
{
    EXPECT_EQ(benchmarkByName("fluid").totalCs, 10240u);
    EXPECT_EQ(benchmarkByName("fluidanimate").name, "fluid");
    EXPECT_DOUBLE_EQ(benchmarkByName("imag").avgCsCycles, 179.0);
    EXPECT_THROW(benchmarkByName("nosuch"), FatalError);
}

TEST(Benchmarks, CsPerThreadScalesAndFloors)
{
    const auto &p = benchmarkByName("fluid"); // 10240 total
    EXPECT_EQ(p.csPerThread(64, 1.0), 160);
    EXPECT_EQ(p.csPerThread(64, 0.1), 16);
    EXPECT_EQ(p.csPerThread(64, 1e-6), 2); // floor
}

// ---------------------------------------------------------------------
// PhaseRecorder
// ---------------------------------------------------------------------

TEST(PhaseRecorder, AccumulatesPerPhase)
{
    PhaseRecorder r(0);
    r.transition(ThreadPhase::Coh, 100);  // 0..100 parallel
    r.transition(ThreadPhase::Cse, 150);  // 100..150 coh
    r.transition(ThreadPhase::Parallel, 180); // 150..180 cse
    r.transition(ThreadPhase::Done, 300);
    EXPECT_EQ(r.cyclesIn(ThreadPhase::Parallel), 220u);
    EXPECT_EQ(r.cyclesIn(ThreadPhase::Coh), 50u);
    EXPECT_EQ(r.cyclesIn(ThreadPhase::Cse), 30u);
    EXPECT_EQ(r.cohCycles(), 50u);
}

TEST(PhaseRecorder, SleepCountsIntoCoh)
{
    PhaseRecorder r(1);
    r.transition(ThreadPhase::Coh, 10);
    r.transition(ThreadPhase::Sleep, 20);
    r.transition(ThreadPhase::Coh, 50);
    r.transition(ThreadPhase::Cse, 60);
    EXPECT_EQ(r.cyclesIn(ThreadPhase::Sleep), 30u);
    EXPECT_EQ(r.cohCycles(), 10u + 30u + 10u);
    EXPECT_EQ(r.lcoCycles(), 20u);
}

TEST(PhaseRecorder, PhaseAtBinarySearch)
{
    PhaseRecorder r(2);
    r.transition(ThreadPhase::Coh, 100);
    r.transition(ThreadPhase::Cse, 200);
    EXPECT_EQ(r.phaseAt(0), ThreadPhase::Parallel);
    EXPECT_EQ(r.phaseAt(99), ThreadPhase::Parallel);
    EXPECT_EQ(r.phaseAt(100), ThreadPhase::Coh);
    EXPECT_EQ(r.phaseAt(150), ThreadPhase::Coh);
    EXPECT_EQ(r.phaseAt(5000), ThreadPhase::Cse);
}

// ---------------------------------------------------------------------
// Workload end-to-end on a small system
// ---------------------------------------------------------------------

struct WorkloadHarness {
    explicit WorkloadHarness(LockKind kind, double scale = 0.2)
    {
        cfg.noc.meshWidth = 4;
        cfg.noc.meshHeight = 4;
        cfg.lockKind = kind;
        cfg.finalize();
        system = std::make_unique<System>(cfg);
        Workload::Params wp;
        wp.profile = benchmarkByName("ferret"); // multi-lock program
        wp.threads = cfg.numCores();
        wp.csScale = scale;
        wp.lockKind = kind;
        workload = std::make_unique<Workload>(
            wp, system->coherent(), system->locks(), system->sim());
    }

    SystemConfig cfg;
    std::unique_ptr<System> system;
    std::unique_ptr<Workload> workload;
};

TEST(Workload, RunsToCompletionWithExactCsCounts)
{
    WorkloadHarness h(LockKind::Qsl);
    h.workload->start();
    h.system->runUntil([&] { return h.workload->done(); });
    const int per_thread = h.workload->csTargetPerThread();
    EXPECT_EQ(h.workload->csCompleted(),
              static_cast<std::uint64_t>(per_thread) * 16u);
    EXPECT_GT(h.workload->roiFinish(), 0u);
    // Locks created per the profile.
    EXPECT_EQ(h.workload->locks().size(),
              static_cast<std::size_t>(
                  benchmarkByName("ferret").numLocks));
    // Every thread saw all three phases.
    for (const auto &t : h.workload->threads()) {
        EXPECT_TRUE(t->done());
        EXPECT_GT(t->recorder().cyclesIn(ThreadPhase::Parallel), 0u);
        EXPECT_GT(t->recorder().cyclesIn(ThreadPhase::Cse), 0u);
    }
}

TEST(Workload, PhaseCyclesRoughlyCoverRoi)
{
    WorkloadHarness h(LockKind::Mcs);
    h.workload->start();
    h.system->runUntil([&] { return h.workload->done(); });
    // Summed phase cycles can't exceed threads x ROI, and should cover
    // most of it (threads idle only after finishing).
    const double roi_total = static_cast<double>(
                                 h.workload->roiFinish()) * 16.0;
    const double phases =
        static_cast<double>(h.workload->totalCycles(ThreadPhase::Parallel) +
                            h.workload->totalCycles(ThreadPhase::Coh) +
                            h.workload->totalCycles(ThreadPhase::Sleep) +
                            h.workload->totalCycles(ThreadPhase::Cse));
    EXPECT_LE(phases, roi_total * 1.001);
    EXPECT_GT(phases, roi_total * 0.5);
}

TEST(Workload, DeterministicForSameSeed)
{
    Cycle roi[2];
    for (int i = 0; i < 2; ++i) {
        WorkloadHarness h(LockKind::Tas, 0.1);
        h.workload->start();
        h.system->runUntil([&] { return h.workload->done(); });
        roi[i] = h.workload->roiFinish();
    }
    EXPECT_EQ(roi[0], roi[1]);
}

TEST(Workload, LockHomePinningIsHonored)
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.finalize();
    System system(cfg);
    Workload::Params wp;
    wp.profile = benchmarkByName("md");
    wp.threads = 16;
    wp.csScale = 0.1;
    wp.lockHome = 11;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });
    // The lock's home directory must have seen the traffic.
    EXPECT_GT(system.coherent().directory(11).stats.getx, 0u);
}

} // namespace
} // namespace inpg
