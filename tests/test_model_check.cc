/**
 * @file
 * In-process tests for the explicit-state protocol model checker
 * (src/verify/model_check.*): clean exhaustive sweeps over the shipped
 * tables, determinism of the exploration itself, the seeded-mutation
 * self-test, and a golden-file check that pins the counterexample
 * witness format.
 *
 * The golden trace and the exploration summary live in tests/golden/;
 * regenerate them after a deliberate change with
 *     INPG_REGEN_GOLDEN=1 ./build/tests/inpg_tests \
 *         --gtest_filter='ModelCheck.Golden*:ModelCheck.Exploration*'
 * and review the diff like any other source change.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden.hh"
#include "verify/model_check.hh"

namespace inpg {
namespace {

McConfig
baseConfig(McScenario sc, bool big_router)
{
    McConfig cfg;
    cfg.numCores = 2;
    cfg.bigRouter = big_router;
    cfg.scenario = sc;
    return cfg;
}

TEST(ModelCheck, TasN2ExhaustiveClean)
{
    McResult r = runModelCheck(baseConfig(McScenario::Tas, true));
    ASSERT_TRUE(r.ok()) << r.violation->traceText();
    EXPECT_TRUE(r.complete);
    // The composed space is non-trivial (thousands of states) and the
    // run must quiesce somewhere.
    EXPECT_GT(r.statesVisited, 1000u);
    EXPECT_GT(r.finalStates, 0u);
    EXPECT_EQ(r.emitsDropped, 0u);
}

TEST(ModelCheck, AllScenariosN2Clean)
{
    for (McScenario sc : mcAllScenarios()) {
        for (bool br : {false, true}) {
            McResult r = runModelCheck(baseConfig(sc, br));
            ASSERT_TRUE(r.ok())
                << mcScenarioName(sc) << " big-router=" << br << "\n"
                << r.violation->traceText();
            EXPECT_TRUE(r.complete)
                << mcScenarioName(sc) << " big-router=" << br;
        }
    }
}

TEST(ModelCheck, ExplorationIsDeterministic)
{
    McResult a = runModelCheck(baseConfig(McScenario::Tas, true));
    McResult b = runModelCheck(baseConfig(McScenario::Tas, true));
    EXPECT_EQ(a.statesVisited, b.statesVisited);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.finalStates, b.finalStates);
    EXPECT_EQ(a.maxDepth, b.maxDepth);
}

TEST(ModelCheck, SymmetryReductionShrinksTheSpace)
{
    McConfig sym = baseConfig(McScenario::Tas, true);
    McConfig raw = sym;
    raw.symmetry = false;
    McResult a = runModelCheck(sym);
    McResult b = runModelCheck(raw);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Canonicalization must only merge states, never invent or lose
    // violations; with two interchangeable cores it strictly shrinks
    // the visited set.
    EXPECT_LT(a.statesVisited, b.statesVisited);
    EXPECT_EQ(a.finalStates > 0, b.finalStates > 0);
}

TEST(ModelCheck, SelfTestCatchesEveryCatalogMutation)
{
    McSelfTestOutcome out = runMcSelfTest(false, nullptr);
    for (const std::string &f : out.failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(out.ok());
    EXPECT_GE(out.mutationsRun, 8);
    EXPECT_EQ(out.caught, out.mutationsRun);
}

TEST(ModelCheck, GoldenWitness)
{
    // This catalog entry runs with symmetry off on a fixed two-core,
    // no-big-router configuration, so its BFS witness is fully
    // deterministic -- byte-stable across runs and platforms.
    const McMutation *m = mcFindMutation("ownedself-getx-selfforward");
    ASSERT_NE(m, nullptr);
    ASSERT_FALSE(m->config.symmetry);

    McResult r = runMutatedModelCheck(*m);
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_EQ(r.violation->invariant, "deadlock");
    const std::string got = r.violation->traceText();
    ASSERT_FALSE(got.empty());

    expectMatchesGolden("mc_witness_ownedself_getx.txt", got);
}

/** "(state,event)" names of the rows set in a rowsReached bitmask. */
std::string
rowList(const ProtoTableBase &t, std::uint64_t bits, bool reached)
{
    std::string out;
    for (int s = 0; s < t.numStates(); ++s)
        for (int e = 0; e < t.numEvents(); ++e) {
            const ProtoTransition *row = t.find(s, e);
            const bool hit = (bits >> (s * t.numEvents() + e)) & 1;
            if (!row || !row->legal() || hit != reached)
                continue;
            out += std::string(" (") + t.stateName(s) + "," +
                   t.eventName(e) + ")";
        }
    return out;
}

TEST(ModelCheck, ExplorationMatchesGolden)
{
    // Pins what the checker explores: every scenario at N=2 with the
    // big router on and off plus N=3 without it. A moved count means
    // the checker now runs a different protocol; each such move is a
    // named drift, regenerated deliberately.
    struct Run {
        McScenario sc;
        int cores;
        bool br;
    };
    std::vector<Run> runs;
    for (McScenario sc : mcAllScenarios())
        for (bool br : {false, true})
            runs.push_back({sc, 2, br});
    for (McScenario sc : mcAllScenarios())
        runs.push_back({sc, 3, false});

    std::string got;
    std::array<std::uint64_t, PROTO_NUM_TABLES> all{};
    for (const Run &run : runs) {
        McConfig cfg = baseConfig(run.sc, run.br);
        cfg.numCores = run.cores;
        const McResult r = runModelCheck(cfg);
        ASSERT_TRUE(r.ok()) << r.violation->traceText();
        EXPECT_TRUE(r.complete);
        EXPECT_EQ(r.emitsDropped, 0u);
        got += std::string(mcScenarioName(run.sc)) +
               " cores=" + std::to_string(run.cores) +
               " big-router=" + std::to_string(run.br) +
               ": states=" + std::to_string(r.statesVisited) +
               " transitions=" + std::to_string(r.transitions) +
               " final=" + std::to_string(r.finalStates) +
               " depth=" + std::to_string(r.maxDepth) + "\n";
        for (int t = 0; t < PROTO_NUM_TABLES; ++t) {
            all[t] |= r.rowsReached[t];
            got += std::string("  ") + protocolTable(t).name() + ":" +
                   rowList(protocolTable(t), r.rowsReached[t], true) +
                   "\n";
        }
    }
    got += "legal rows no run dispatches:\n";
    for (int t = 0; t < PROTO_NUM_TABLES; ++t)
        got += std::string("  ") + protocolTable(t).name() + ":" +
               rowList(protocolTable(t), all[t], false) + "\n";
    expectMatchesGolden("mc_exploration.txt", got);
}

} // namespace
} // namespace inpg
