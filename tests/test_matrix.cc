/**
 * @file
 * Full cross-matrix integration sweep: every locking primitive under
 * every mechanism runs a contended workload to completion on a small
 * mesh, with the golden memory model attached and invariants checked.
 * This is the suite that guards the combinatorial surface (e.g. an
 * iNPG change that only breaks ABQL under OCOR).
 */

#include <gtest/gtest.h>

#include "coh/golden_memory.hh"
#include "harness/system.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

struct MatrixCase {
    LockKind lock;
    Mechanism mech;
};

std::string
caseName(const ::testing::TestParamInfo<MatrixCase> &info)
{
    std::string m;
    switch (info.param.mech) {
      case Mechanism::Original:
        m = "Original";
        break;
      case Mechanism::Ocor:
        m = "OCOR";
        break;
      case Mechanism::Inpg:
        m = "iNPG";
        break;
      case Mechanism::InpgOcor:
        m = "iNPGplusOCOR";
        break;
    }
    return std::string(lockKindName(info.param.lock)) + "_" + m;
}

class MechanismLockMatrix : public ::testing::TestWithParam<MatrixCase>
{};

TEST_P(MechanismLockMatrix, ContendedRunCompletesConsistently)
{
    const MatrixCase mc = GetParam();
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.lockKind = mc.lock;
    cfg.mechanism = mc.mech;
    cfg.inpg.numBigRouters = 8;
    cfg.finalize();
    System system(cfg);

    GoldenMemory golden;
    system.coherent().setOpLog(
        [&golden](const OpRecord &r) { golden.record(r); });

    Workload::Params wp;
    wp.profile = benchmarkByName("fluid"); // contended, multi-lock
    wp.threads = cfg.numCores();
    wp.csScale = 0.05;
    wp.lockKind = mc.lock;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    for (const auto &kv : system.locks().initialValues())
        golden.setInitial(kv.first, kv.second);
    w.start();
    system.runUntil([&] { return w.done(); }, 30000000);

    // Exact completion accounting.
    EXPECT_EQ(w.csCompleted(),
              static_cast<std::uint64_t>(w.csTargetPerThread()) *
                  static_cast<std::uint64_t>(cfg.numCores()));
    // Sequential-consistency reference over every executed operation.
    EXPECT_EQ(golden.verify(), "");
    // Every lock's acquisitions balance its releases and the mutual-
    // exclusion guard never fired (it panics on violation).
    for (const auto &lock : system.locks().locks()) {
        EXPECT_EQ(lock->stats.acquisitions,
                  lock->stats.releases);
        EXPECT_EQ(lock->holders(), 0);
    }
    // iNPG fires exactly when deployed.
    if (usesInpg(mc.mech))
        EXPECT_EQ(system.deployedBigRouters(), 8);
    else
        EXPECT_EQ(system.totalEarlyInvs(), 0u);
}

std::vector<MatrixCase>
allCases()
{
    std::vector<MatrixCase> cases;
    for (LockKind k : {LockKind::Tas, LockKind::Ticket, LockKind::Abql,
                       LockKind::Mcs, LockKind::Qsl})
        for (Mechanism m : ALL_MECHANISMS)
            cases.push_back({k, m});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MechanismLockMatrix,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
} // namespace inpg
