/**
 * @file
 * inpg_report: cross-run differential reports over experiment ledgers
 * (JSONL files of RunRecords; see src/telemetry/run_record.hh).
 *
 * Usage:
 *   inpg_report diff A.jsonl B.jsonl [tolerance=0.02] [verbose=1]
 *       Pair runs by simulated configuration and report per-metric
 *       deltas. Exit 0 when every paired metric is within threshold,
 *       1 otherwise. Simulated counters compare exactly by default
 *       (the kernel is deterministic); host-time measurements are
 *       never compared.
 *
 *   inpg_report figures LEDGER.jsonl [bench_figures' keys: fig=,
 *                       cs_scale=, seeds=, quick=, topology=, ...]
 *       The paper tables bench_figures prints with the same keys,
 *       rendered from the ledger's records (src/harness/figures.hh).
 *       Exit 0 on success, 1 when the ledger lacks a listed run (the
 *       message names its key), 2 on a bad key or unreadable ledger.
 *
 *   inpg_report regress FRESH.jsonl BASELINE.jsonl [tolerance=...]
 *       Pass/fail gate: every baseline configuration must appear in
 *       the fresh ledger with all metrics within threshold. Exit 0 on
 *       PASS, 1 on FAIL. Used by run_benches.sh --quick and ci.sh.
 *
 * Flags accept GNU spellings too (--tolerance=0.02).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/figures.hh"
#include "telemetry/report.hh"

using namespace inpg;

namespace {

int
usage()
{
    std::fputs("usage: inpg_report diff A.jsonl B.jsonl "
               "[tolerance=R] [verbose=1]\n"
               "       inpg_report figures LEDGER.jsonl "
               "[bench_figures keys]\n"
               "       inpg_report regress FRESH.jsonl BASELINE.jsonl "
               "[tolerance=R]\n",
               stderr);
    return 2;
}

/** Split positional paths from key=value options. */
struct Args {
    std::vector<std::string> paths;
    ReportOptions opts;
    bool ok = true;
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        while (startsWith(arg, "-"))
            arg = arg.substr(1);
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
            a.paths.push_back(argv[i]);
            continue;
        }
        const std::string key = arg.substr(0, eq);
        const std::string val = arg.substr(eq + 1);
        if (key == "tolerance") {
            a.opts.tolerance = parseDouble(val);
        } else if (key == "verbose") {
            a.opts.verbose = parseBool(val);
        } else {
            std::fprintf(stderr, "inpg_report: unknown option '%s'\n",
                         argv[i]);
            a.ok = false;
        }
    }
    return a;
}

std::vector<RunRecord>
loadOrDie(const std::string &path, bool &ok)
{
    std::string err;
    std::vector<RunRecord> recs = ExperimentLedger::load(path, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "inpg_report: %s\n", err.c_str());
        ok = false;
    }
    return recs;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "diff" || cmd == "regress") {
        Args a = parseArgs(argc, argv, 2);
        if (!a.ok || a.paths.size() != 2)
            return usage();
        bool ok = true;
        const auto first = loadOrDie(a.paths[0], ok);
        const auto second = loadOrDie(a.paths[1], ok);
        if (!ok)
            return 2;
        if (cmd == "diff") {
            const DiffResult d = diffLedgers(first, second, a.opts);
            std::fputs(d.render(a.opts).c_str(), stdout);
            return d.identical() ? 0 : 1;
        }
        const RegressResult r = regressLedger(first, second, a.opts);
        std::fputs(r.render(a.opts).c_str(), stdout);
        return r.pass ? 0 : 1;
    }

    if (cmd == "figures" && argc >= 3) {
        // The ledger stands in argv[0]'s place, which the loader skips.
        const FigureOptions opts = loadFigureOptions(argc - 2, argv + 2);
        bool ok = true;
        const auto records = loadOrDie(argv[2], ok);
        if (!ok)
            return 2;
        std::string tables;
        try {
            tables = renderFigures(opts, records);
        } catch (const FatalError &) {
            return 1; // fatal() named the listed run the ledger lacks
        }
        std::fputs(tables.c_str(), stdout);
        return 0;
    }

    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the message; exit 2 instead of
    // terminating on a signal.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 2;
    }
}
