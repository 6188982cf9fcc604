/**
 * @file
 * protocol_check: build-time static verifier over the declarative
 * MOESI transition tables (DESIGN.md Section 8).
 *
 * Runs four structural checks over the three production tables (L1,
 * directory, big-router barrier FSM):
 *
 *  1. coverage      -- the full state x event space is enumerated:
 *                      every pair carries exactly one entry, either an
 *                      action or an explicit illegal-with-reason.
 *  2. vnet-graph    -- the message-class dependency graph extracted
 *                      from the tables' emit annotations is acyclic
 *                      across the 4 virtual networks (relay emits must
 *                      stay on their own class).
 *  3. lco-hooks     -- transition stat hooks name real LcoTracker
 *                      cursor hooks and jointly tile the attribution
 *                      legs.
 *  4. reachability  -- no dead states.
 *  5. channel-deps  -- topology-aware routing deadlock freedom: the
 *                      channel-dependency graph each supported fabric's
 *                      routing function induces (mesh, torus with
 *                      escape VCs, cmesh) is acyclic, and a torus
 *                      WITHOUT escape VCs is correctly rejected with a
 *                      ring-cycle witness (the check's own negative
 *                      control).
 *
 * Exit 0 when the protocol verifies clean, 1 when any diagnostic
 * fires. `--self-test` additionally feeds deliberately broken tables
 * through each check and fails unless every seeded bug is detected.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coh/protocol_tables.hh"
#include "coh/protocol_verify.hh"
#include "common/logging.hh"
#include "noc/topology.hh"

namespace {

using namespace inpg;

int
runProduction(bool verbose)
{
    int worst = 0;
    for (int i = 0; i < PROTO_NUM_TABLES; ++i) {
        const ProtoTableBase &t = protocolTable(i);
        int legal = 0, illegal = 0;
        for (int s = 0; s < t.numStates(); ++s) {
            for (int e = 0; e < t.numEvents(); ++e) {
                const ProtoTransition *tr = t.find(s, e);
                if (!tr)
                    continue;
                if (tr->legal())
                    ++legal;
                else
                    ++illegal;
            }
        }
        std::printf("table %-10s %d states x %d events = %3d pairs "
                    "(%d actions, %d declared illegal)\n",
                    t.name(), t.numStates(), t.numEvents(),
                    t.numStates() * t.numEvents(), legal, illegal);
        if (verbose) {
            for (int s = 0; s < t.numStates(); ++s)
                for (int e = 0; e < t.numEvents(); ++e)
                    if (const ProtoTransition *tr = t.find(s, e))
                        std::printf("  (%s, %s) -> %s\n", t.stateName(s),
                                    t.eventName(e),
                                    tr->legal() ? "action"
                                                : tr->note);
        }
    }

    const auto diags = verifyProductionProtocol();
    for (const auto &d : diags) {
        std::fprintf(stderr, "protocol_check: %s\n",
                     d.toString().c_str());
        worst = 1;
    }

    // Check 5: fabric-level deadlock freedom across the supported
    // topologies, plus the negative control (a torus with the escape
    // VCs disabled MUST produce a cycle, or the check is vacuous).
    struct FabricCase {
        const char *label;
        TopologyKind kind;
        int w, h, conc;
        bool escape;
        bool expect_cycle;
    };
    const FabricCase fabrics[] = {
        {"mesh:8x8", TopologyKind::Mesh, 8, 8, 1, true, false},
        {"torus:8x8", TopologyKind::Torus, 8, 8, 1, true, false},
        {"cmesh:4x4x4", TopologyKind::CMesh, 4, 4, 4, true, false},
        {"torus:8x8 (no escape VCs)", TopologyKind::Torus, 8, 8, 1,
         false, true},
    };
    for (const FabricCase &fc : fabrics) {
        NocConfig noc;
        noc.topology = fc.kind;
        noc.meshWidth = fc.w;
        noc.meshHeight = fc.h;
        noc.concentration = fc.conc;
        noc.escapeVcs = fc.escape;
        const auto cd = verifyChannelDeps(*makeTopology(noc));
        const bool cyclic = !cd.empty();
        if (cyclic != fc.expect_cycle) {
            std::fprintf(stderr,
                         "protocol_check: channel-deps [%s]: expected "
                         "%s, got %s\n",
                         fc.label, fc.expect_cycle ? "a cycle" : "acyclic",
                         cyclic ? cd.front().toString().c_str()
                                : "acyclic");
            worst = 1;
        } else {
            std::printf("protocol_check: channel-deps %-26s %s\n",
                        fc.label,
                        cyclic ? "cycle detected (as expected)"
                               : "acyclic");
        }
    }
    if (worst == 0)
        std::printf("protocol_check: all checks passed "
                    "(coverage, vnet-graph, lco-hooks, reachability, "
                    "channel-deps)\n");
    return worst;
}

/** A tiny 2-state / 2-event table for seeding deliberate bugs. */
enum class TS { A, B };
enum class TE { X, Y };

const char *
tsName(int s)
{
    return s == 0 ? "A" : "B";
}

const char *
teName(int e)
{
    return e == 0 ? "X" : "Y";
}

int
teVnet(int)
{
    return VNET_REQUEST;
}

bool
anyDiagContains(const std::vector<ProtoDiagnostic> &diags,
                const char *needle)
{
    for (const auto &d : diags)
        if (d.toString().find(needle) != std::string::npos)
            return true;
    return false;
}

int
runSelfTest()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr,
                         "protocol_check --self-test: FAILED: %s\n",
                         what);
            ++failures;
        } else {
            std::printf("protocol_check --self-test: ok: %s\n", what);
        }
    };

    // Seed 1: a hole in the coverage grid (B, Y missing).
    {
        TransitionTable<TS, TE> t(
            "selftest-hole", 2, 2, 0, tsName, teName, teVnet,
            {
                {0, 0, 0, {0}, {}, {}, nullptr},
                {0, 1, 0, {1}, {}, {}, nullptr},
                {1, 0, 0, {0}, {}, {}, nullptr},
            });
        expect(anyDiagContains(verifyCoverage(t),
                               "unhandled transition (B, Y)"),
               "coverage check flags the missing (B, Y) entry");
    }

    // Seed 2: a duplicate declaration (ambiguity).
    {
        TransitionTable<TS, TE> t(
            "selftest-dup", 2, 2, 0, tsName, teName, teVnet,
            {
                {0, 0, 0, {0}, {}, {}, nullptr},
                {0, 0, 1, {1}, {}, {}, nullptr},
                {0, 1, 0, {0}, {}, {}, nullptr},
                {1, 0, 0, {0}, {}, {}, nullptr},
                {1, 1, 0, {0}, {}, {}, nullptr},
            });
        expect(anyDiagContains(verifyCoverage(t),
                               "ambiguous transition (A, X)"),
               "coverage check flags the duplicate (A, X) entry");
    }

    // Seed 3: a request-class consumer that re-injects request-class
    // traffic without a relay annotation -- a 0 -> 0 self-dependency.
    {
        TransitionTable<TS, TE> t(
            "selftest-cycle", 2, 2, 0, tsName, teName, teVnet,
            {
                {0, 0, 0, {0}, {{CohMsgKind::GetX, false}}, {}, nullptr},
                {0, 1, 0, {0}, {}, {}, nullptr},
                {1, 0, 0, {0}, {}, {}, nullptr},
                {1, 1, 0, {0}, {}, {}, nullptr},
            });
        expect(anyDiagContains(verifyVnetGraph({&t}), "self-dependency"),
               "vnet check flags the unannotated same-class emission");
    }

    // Seed 4: a "relay" that actually hops to another message class.
    {
        TransitionTable<TS, TE> t(
            "selftest-relay", 2, 2, 0, tsName, teName, teVnet,
            {
                {0, 0, 0, {0}, {{CohMsgKind::Data, true}}, {}, nullptr},
                {0, 1, 0, {0}, {}, {}, nullptr},
                {1, 0, 0, {0}, {}, {}, nullptr},
                {1, 1, 0, {0}, {}, {}, nullptr},
            });
        expect(anyDiagContains(verifyVnetGraph({&t}), "crosses"),
               "vnet check flags a relay crossing message classes");
    }

    // Seed 5: an unknown LCO hook name.
    {
        TransitionTable<TS, TE> t(
            "selftest-hook", 2, 2, 0, tsName, teName, teVnet,
            {
                {0, 0, 0, {0}, {}, {"notAHook"}, nullptr},
                {0, 1, 0, {0}, {}, {}, nullptr},
                {1, 0, 0, {0}, {}, {}, nullptr},
                {1, 1, 0, {0}, {}, {}, nullptr},
            });
        expect(anyDiagContains(verifyLcoHooks({&t}),
                               "unknown LCO hook 'notAHook'"),
               "hook check flags an unknown hook name");
    }

    // Seed 6: state B is declared but no transition ever produces it.
    {
        TransitionTable<TS, TE> t(
            "selftest-dead", 2, 2, 0, tsName, teName, teVnet,
            {
                {0, 0, 0, {0}, {}, {}, nullptr},
                {0, 1, 0, {0}, {}, {}, nullptr},
                {1, 0, 0, {0}, {}, {}, nullptr},
                {1, 1, 0, {0}, {}, {}, nullptr},
            });
        expect(anyDiagContains(verifyReachability(t), "dead state B"),
               "reachability check flags the unreachable state B");
    }

    if (failures == 0)
        std::printf("protocol_check --self-test: all seeded bugs "
                    "detected\n");
    return failures ? 1 : 0;
}

int
run(int argc, char **argv)
{
    bool self_test = false;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--self-test") == 0) {
            self_test = true;
        } else if (std::strcmp(argv[i], "--verbose") == 0 ||
                   std::strcmp(argv[i], "-v") == 0) {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "usage: protocol_check [--self-test] "
                         "[--verbose]\n");
            return 2;
        }
    }
    int rc = runProduction(verbose);
    if (self_test && rc == 0)
        rc = runSelfTest();
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the message; exit 2 instead of
    // terminating on a signal.
    try {
        return run(argc, argv);
    } catch (const inpg::FatalError &) {
        return 2;
    }
}
