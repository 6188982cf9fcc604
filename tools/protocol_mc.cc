/**
 * @file
 * protocol_mc: explicit-state model checker driver for the composed
 * MOESI x iNPG protocol (DESIGN.md Section 13).
 *
 * Default run sweeps every scenario x {big router on, off} at N=2
 * cores, exploring the full reachable state space (BFS, symmetry
 * reduction over core ids) and printing the reachable-state count per
 * configuration. Any invariant violation prints its flight-recorder
 * witness and exits 1.
 *
 * Flags:
 *   --self-test        run the seeded-mutation harness instead: every
 *                      catalog bug must be caught by its expected
 *                      invariant with a non-empty witness.
 *   --mutate NAME      run one catalog mutation and print its witness
 *                      (exit 0 when it is caught as expected).
 *   --cores N          number of L1 cores (2..3, default 2).
 *   --scenario NAME    restrict to one scenario (tas, tas-nd,
 *                      tas-held, counter, rw; default: all).
 *   --big-router / --no-big-router
 *                      restrict the big-router axis (default: both).
 *   --max-states N     state budget (0 = unlimited, default).
 *   --max-depth N      BFS depth bound (0 = unlimited, default).
 *   --no-symmetry      disable core-id canonicalization.
 *   --verbose          per-mutation witness traces in --self-test.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "verify/model_check.hh"

namespace {

using namespace inpg;

void
printViolation(const McViolation &v)
{
    std::printf("VIOLATION: %s -- %s\n", v.invariant.c_str(),
                v.detail.c_str());
    std::printf("witness (%zu lines):\n", v.trace.size());
    for (const std::string &line : v.trace)
        std::printf("  %s\n", line.c_str());
}

int
runSweep(const McConfig &base, const std::vector<McScenario> &scenarios,
         const std::vector<bool> &brAxis)
{
    int rc = 0;
    for (McScenario sc : scenarios) {
        for (bool br : brAxis) {
            McConfig cfg = base;
            cfg.scenario = sc;
            cfg.bigRouter = br;
            McResult res = runModelCheck(cfg);
            std::printf("scenario %-8s cores=%d big-router=%-3s : "
                        "%llu states, %llu transitions, %llu final, "
                        "depth %d%s%s\n",
                        mcScenarioName(sc), cfg.numCores,
                        br ? "on" : "off",
                        static_cast<unsigned long long>(
                            res.statesVisited),
                        static_cast<unsigned long long>(
                            res.transitions),
                        static_cast<unsigned long long>(
                            res.finalStates),
                        res.maxDepth,
                        res.complete ? " (exhaustive)" : " (truncated)",
                        res.ok() ? "" : " FAIL");
            if (!res.ok()) {
                printViolation(*res.violation);
                rc = 1;
            }
        }
    }
    return rc;
}

int
runSelfTest(bool verbose)
{
    std::vector<std::string> log;
    McSelfTestOutcome out = runMcSelfTest(verbose, &log);
    for (const std::string &line : log)
        std::printf("%s\n", line.c_str());
    std::printf("self-test: %d/%d seeded mutations caught\n",
                out.caught, out.mutationsRun);
    if (!out.ok()) {
        std::printf("self-test FAILED (%zu failures)\n",
                    out.failures.size());
        return 1;
    }
    return 0;
}

int
runMutation(const std::string &name)
{
    const McMutation *m = mcFindMutation(name);
    if (!m) {
        std::fprintf(stderr, "unknown mutation '%s'; catalog:\n",
                     name.c_str());
        for (const McMutation &c : mcMutationCatalog())
            std::fprintf(stderr, "  %-34s %s\n", c.name, c.what);
        return 2;
    }
    std::printf("mutation %s: %s\n", m->name, m->what);
    McResult res = runMutatedModelCheck(*m);
    if (!res.violation.has_value()) {
        std::printf("NOT CAUGHT (%llu states explored, %s)\n",
                    static_cast<unsigned long long>(res.statesVisited),
                    res.complete ? "complete" : "truncated");
        return 1;
    }
    printViolation(*res.violation);
    return 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--self-test [--verbose]] [--mutate NAME]\n"
                 "          [--cores N] [--scenario NAME] [--big-router]"
                 " [--no-big-router]\n"
                 "          [--max-states N] [--max-depth N] "
                 "[--no-symmetry]\n",
                 argv0);
    return 2;
}

int
run(int argc, char **argv)
{
    bool selfTest = false;
    bool verbose = false;
    std::string mutate;
    McConfig cfg;
    std::vector<McScenario> scenarios = mcAllScenarios();
    std::vector<bool> brAxis = {true, false};

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--self-test") {
            selfTest = true;
        } else if (a == "--verbose") {
            verbose = true;
        } else if (a == "--mutate") {
            mutate = next("--mutate");
        } else if (a == "--cores") {
            cfg.numCores = std::atoi(next("--cores"));
            if (cfg.numCores < 2 || cfg.numCores > 3) {
                std::fprintf(stderr, "--cores must be 2 or 3\n");
                return 2;
            }
        } else if (a == "--scenario") {
            const std::string name = next("--scenario");
            if (name != "all") {
                auto sc = mcScenarioFromName(name);
                if (!sc) {
                    std::fprintf(stderr, "unknown scenario '%s'\n",
                                 name.c_str());
                    return 2;
                }
                scenarios = {*sc};
            }
        } else if (a == "--big-router") {
            brAxis = {true};
        } else if (a == "--no-big-router") {
            brAxis = {false};
        } else if (a == "--max-states") {
            cfg.maxStates = static_cast<std::uint64_t>(
                std::atoll(next("--max-states")));
        } else if (a == "--max-depth") {
            cfg.maxDepth = std::atoi(next("--max-depth"));
        } else if (a == "--no-symmetry") {
            cfg.symmetry = false;
        } else {
            return usage(argv[0]);
        }
    }

    if (selfTest)
        return runSelfTest(verbose);
    if (!mutate.empty())
        return runMutation(mutate);
    return runSweep(cfg, scenarios, brAxis);
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
