/**
 * @file
 * Harness tests: configuration parsing, mechanism wiring, the table
 * printer, the synthesis model, OCOR's priority mapping, end-to-end
 * experiment determinism, and the RunRecord sections and baseline
 * ledger a run is checked against.
 */

#include <gtest/gtest.h>

#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/table_printer.hh"
#include "telemetry/report.hh"
#include "inpg/synthesis_model.hh"
#include "ocor/ocor_policy.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// SystemConfig
// ---------------------------------------------------------------------

TEST(SystemConfig, ParseMechanismAndLock)
{
    EXPECT_EQ(parseMechanism("original"), Mechanism::Original);
    EXPECT_EQ(parseMechanism("OCOR"), Mechanism::Ocor);
    EXPECT_EQ(parseMechanism("inpg+ocor"), Mechanism::InpgOcor);
    EXPECT_THROW(parseMechanism("hyperspeed"), FatalError);
    EXPECT_EQ(parseLockKind("ttl"), LockKind::Ticket);
    EXPECT_EQ(parseLockKind("MCS"), LockKind::Mcs);
    EXPECT_THROW(parseLockKind("spin"), FatalError);
}

TEST(SystemConfig, FinalizeDerivesPolicyFromMechanism)
{
    SystemConfig c;
    c.mechanism = Mechanism::Ocor;
    c.finalize();
    EXPECT_EQ(c.noc.switchPolicy, SwitchPolicy::Priority);
    EXPECT_TRUE(c.sync.ocorEnabled);

    c.mechanism = Mechanism::Original;
    c.finalize();
    EXPECT_EQ(c.noc.switchPolicy, SwitchPolicy::RoundRobin);
    EXPECT_FALSE(c.sync.ocorEnabled);
    // Big-router count survives mechanism flips (sweeps reuse configs).
    EXPECT_EQ(c.inpg.numBigRouters, 32);
}

TEST(SystemConfig, OverridesApply)
{
    Config o;
    o.loadString("topology = mesh:4x2\nmechanism = inpg\n"
                  "lock = tas\nbig_routers = 3\nbarrier_ttl = 99\n");
    SystemConfig c;
    c.applyOverrides(o);
    EXPECT_EQ(c.noc.meshWidth, 4);
    EXPECT_EQ(c.numCores(), 8);
    EXPECT_EQ(c.mechanism, Mechanism::Inpg);
    EXPECT_EQ(c.lockKind, LockKind::Tas);
    EXPECT_EQ(c.inpg.numBigRouters, 3);
    EXPECT_EQ(c.inpg.barrierTtl, 99u);
    EXPECT_NE(c.describe().find("iNPG"), std::string::npos);
}

TEST(Mechanisms, PredicatesMatchPaperCases)
{
    EXPECT_FALSE(usesInpg(Mechanism::Original));
    EXPECT_FALSE(usesOcor(Mechanism::Original));
    EXPECT_TRUE(usesOcor(Mechanism::Ocor));
    EXPECT_FALSE(usesInpg(Mechanism::Ocor));
    EXPECT_TRUE(usesInpg(Mechanism::Inpg));
    EXPECT_TRUE(usesInpg(Mechanism::InpgOcor));
    EXPECT_TRUE(usesOcor(Mechanism::InpgOcor));
    EXPECT_STREQ(mechanismName(Mechanism::InpgOcor), "iNPG+OCOR");
}

// ---------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------

TEST(TablePrinter, KeepsFirstRowAfterHeader)
{
    TablePrinter t;
    t.header({"a", "b"});
    t.row({"first", "1"});
    t.row({"second", "2"});
    std::string out = t.render();
    EXPECT_NE(out.find("first"), std::string::npos);
    EXPECT_NE(out.find("second"), std::string::npos);
    EXPECT_LT(out.find("first"), out.find("second"));
}

TEST(TablePrinter, AlignsAndPadsShortRows)
{
    TablePrinter t("ttl");
    t.header({"col1", "col2", "col3"});
    t.row({"pi", fixed(3.14159, 2), fixed(2.5, 2)});
    std::string out = t.render();
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("== ttl =="), std::string::npos);
}

TEST(TablePrinter, CsvEscapesAndSkipsSeparators)
{
    TablePrinter t("title ignored in csv");
    t.header({"a", "b"});
    t.row({"plain", "has,comma"});
    t.separator();
    t.row({"quo\"te", "x"});
    std::string csv = t.renderCsv();
    EXPECT_EQ(csv, "a,b\nplain,\"has,comma\"\n\"quo\"\"te\",x\n");
}

// ---------------------------------------------------------------------
// SynthesisModel
// ---------------------------------------------------------------------

TEST(SynthesisModel, ReproducesPaperSeedNumbers)
{
    SynthesisModel m;
    EXPECT_NEAR(m.normalRouter().gatesK, 19.9, 1e-9);
    EXPECT_NEAR(m.normalRouter().dynamicPowerMw, 84.2, 1e-9);
    // Big router at the paper's default table size = 22.4K gates.
    EXPECT_NEAR(m.bigRouter(16).gatesK, 22.4, 1e-9);
    EXPECT_NEAR(m.packetGenerator(16).gatesK, 2.5, 1e-9);
    EXPECT_NEAR(m.packetGenerator(16).dynamicPowerMw, 8.4, 1e-9);
    // +9.9% router power overhead (paper Sec. 4.2).
    EXPECT_NEAR(m.packetGenerator(16).dynamicPowerMw /
                    m.normalRouter().dynamicPowerMw,
                0.0998, 0.001);
    // Tiles: big 716.1 mW vs normal 707.7 mW.
    EXPECT_NEAR(m.tilePowerMw(true, 16), 716.1, 0.1);
    EXPECT_NEAR(m.tilePowerMw(false, 16), 707.7, 0.1);
}

TEST(SynthesisModel, ScalesWithTableSizeMonotonically)
{
    SynthesisModel m;
    EXPECT_LT(m.packetGenerator(4).gatesK, m.packetGenerator(16).gatesK);
    EXPECT_LT(m.packetGenerator(16).gatesK,
              m.packetGenerator(64).gatesK);
    EXPECT_LT(m.chipPowerMw(64, 0, 16), m.chipPowerMw(64, 32, 16));
    EXPECT_LT(m.chipPowerMw(64, 32, 16), m.chipPowerMw(64, 64, 16));
    EXPECT_THROW(m.chipPowerMw(64, 65, 16), FatalError);
}

TEST(SynthesisModel, RenderTableMentionsAllModules)
{
    std::string out = SynthesisModel().renderTable();
    EXPECT_NE(out.find("Core"), std::string::npos);
    EXPECT_NE(out.find("BigRouter"), std::string::npos);
    EXPECT_NE(out.find("Gate count"), std::string::npos);
}

// ---------------------------------------------------------------------
// OCOR policy
// ---------------------------------------------------------------------

TEST(OcorPolicy, RtrToPriorityMapping)
{
    OcorPolicy p;
    // 8 spinning levels of 16 retries each (Table 1).
    EXPECT_EQ(p.spinPriority(128), 1);  // full budget: lowest spin level
    EXPECT_EQ(p.spinPriority(113), 1);
    EXPECT_EQ(p.spinPriority(112), 2);
    EXPECT_EQ(p.spinPriority(17), 7);
    EXPECT_EQ(p.spinPriority(16), 8);   // about to sleep: highest
    EXPECT_EQ(p.spinPriority(1), 8);
    EXPECT_EQ(p.spinPriority(0), 8);
    EXPECT_EQ(p.wakeupPriority(), 0);   // wakeups: below all spinners
}

TEST(OcorPolicy, MonotoneInUrgency)
{
    OcorPolicy p;
    for (int rtr = 2; rtr <= 128; ++rtr)
        EXPECT_GE(p.spinPriority(rtr - 1), p.spinPriority(rtr));
}

// ---------------------------------------------------------------------
// Experiment runner
// ---------------------------------------------------------------------

TEST(Experiment, DeterministicAndMechanismSweepRuns)
{
    RunConfig rc;
    rc.profile = benchmarkByName("md");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.csScale = 0.05;

    RunRecord a = runBenchmark(rc);
    RunRecord b = runBenchmark(rc);
    EXPECT_EQ(a.roiCycles, b.roiCycles);
    EXPECT_EQ(a.csCompleted, b.csCompleted);
    EXPECT_EQ(a.cohCycles, b.cohCycles);

    auto all = runAllMechanisms(rc);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].mechanism, mechanismName(Mechanism::Original));
    EXPECT_EQ(all[0].earlyInvs, 0u);
    EXPECT_EQ(all[1].earlyInvs, 0u); // OCOR has no big routers
    for (const auto &r : all) {
        EXPECT_GT(r.roiCycles, 0u);
        EXPECT_EQ(r.csCompleted, all[0].csCompleted);
    }
}

TEST(Experiment, PhaseFractionsAreSane)
{
    RunConfig rc;
    rc.profile = benchmarkByName("freq");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.csScale = 0.05;
    RunRecord r = runBenchmark(rc);
    ASSERT_EQ(r.cores, 16);
    double total = r.phaseFraction(r.parallelCycles) +
                   r.phaseFraction(r.cohCycles) +
                   r.phaseFraction(r.cseCycles);
    EXPECT_GT(total, 0.5);
    EXPECT_LE(total, 1.001);
    EXPECT_LE(r.sleepCycles, r.cohCycles);
    EXPECT_LE(r.lockCohCycles, r.cohCycles + r.cseCycles);
}

TEST(Experiment, RecordSectionsRebuildTheLiveRun)
{
    RunConfig rc;
    rc.profile = benchmarkByName("freq");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.system.mechanism = Mechanism::Inpg;
    rc.csScale = 0.05;

    // The same run driven by hand, to read its live CohStats and
    // phase recorders.
    SystemConfig sc = rc.system;
    sc.finalize();
    System system(sc);
    Workload::Params wp;
    wp.profile = rc.profile;
    wp.threads = sc.numCores();
    wp.csScale = rc.csScale;
    wp.lockKind = sc.lockKind;
    wp.seed = sc.seed;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });
    const CohStats &live = system.coherent().cohStats();
    ASSERT_GT(live.rttEarly.count(), 0u);

    // The record as a ledger reader sees it.
    std::string err;
    const RunRecord rec = RunRecord::fromJson(
        JsonValue::parse(runBenchmark(rc).toJson().dump(0)), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(rec.rtt.has_value());
    const Histogram &h = rec.rtt->histogram;
    EXPECT_EQ(h.count(), live.rttHistogram.count());
    EXPECT_EQ(h.mean(), live.rttHistogram.mean());
    EXPECT_EQ(h.max(), live.rttHistogram.max());
    EXPECT_EQ(h.percentile(0.95), live.rttHistogram.percentile(0.95));
    EXPECT_EQ(h.render(), live.rttHistogram.render());
    EXPECT_EQ(rec.rtt->earlyCount, live.rttEarly.count());
    EXPECT_EQ(rec.rtt->homeCount, live.rttHome.count());
    ASSERT_EQ(rec.rtt->perCoreMean.size(), live.rttPerCore.size());
    for (std::size_t c = 0; c < live.rttPerCore.size(); ++c)
        EXPECT_EQ(rec.rtt->perCoreMean[c], live.rttPerCore[c].mean());

    ASSERT_EQ(rec.phases.size(),
              static_cast<std::size_t>(RUN_RECORD_PHASE_THREADS));
    for (std::size_t t = 0; t < rec.phases.size(); ++t) {
        const auto &tl = w.threads()[t]->recorder().timeline();
        ASSERT_EQ(rec.phases[t].size(), tl.size()) << "thread " << t;
        for (std::size_t i = 0; i < tl.size(); ++i) {
            EXPECT_EQ(rec.phases[t][i].at, tl[i].at);
            EXPECT_EQ(rec.phases[t][i].phase,
                      static_cast<int>(tl[i].phase));
        }
    }
}

TEST(Experiment, BaselineLedgerWithoutSectionsStillGates)
{
    // The committed baseline predates the rtt and phases sections and
    // the lock_home key: it loads with the sections absent, and fresh
    // records of its mini-sweep (run_benches.sh --quick) pair with it
    // and pass the regression gate.
    std::string err;
    const std::vector<RunRecord> baseline = ExperimentLedger::load(
        INPG_TEST_GOLDEN_DIR "/../../sweeps/BASELINE_ledger.jsonl", &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(baseline.size(), 4u);
    for (const RunRecord &r : baseline) {
        EXPECT_FALSE(r.rtt.has_value());
        EXPECT_TRUE(r.phases.empty());
        EXPECT_EQ(r.lockHome, "none");
    }

    RunConfig rc;
    rc.profile = benchmarkByName("freq");
    rc.system.noc.meshWidth = 4;
    rc.system.noc.meshHeight = 4;
    rc.csScale = 0.05;
    const RegressResult gate =
        regressLedger(runAllMechanisms(rc), baseline);
    EXPECT_TRUE(gate.pass) << gate.render();
    EXPECT_EQ(gate.diff.pairedConfigs, 4u);
}

} // namespace
} // namespace inpg
