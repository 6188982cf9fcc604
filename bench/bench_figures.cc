/**
 * @file
 * Every paper artifact -- Table 1, Fig. 7a, the run-based Figs. 2 and
 * 8-15, and the design-constant ablations -- from one sweep:
 *
 *   bench_figures [fig=table1,07,02,08,09,10,11,12,13,14,15,ablation]
 *                 [cs_scale=<f>] [seeds=<n>] [quick=1] [benchmark=<name>]
 *                 [SystemConfig keys: topology=, big_routers=, ...]
 *
 * Any other key is rejected (exit 2); src/harness/figures.hh describes
 * the keys and the tables. The selected figures' distinct runs (fig=
 * defaults to all) go back to back through runSweep -- parallel across
 * host threads (INPG_SWEEP_THREADS) and bit-identical to a serial
 * sweep -- and the tables render from their records. When
 * INPG_LEDGER_PATH is set, every run is also appended to that
 * experiment ledger, and `inpg_report figures LEDGER` with the same
 * keys prints the same tables from it.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"
#include "harness/figures.hh"
#include "harness/sweep_runner.hh"

using namespace inpg;

namespace {

int
run(int argc, char **argv)
{
    const FigureOptions opts = loadFigureOptions(argc, argv);
    const std::vector<RunConfig> configs = listFigureRuns(opts);

    SweepOptions sweep_opts;
    std::unique_ptr<ExperimentLedger> ledger;
    if (const char *path = std::getenv("INPG_LEDGER_PATH");
        path && *path) {
        ledger = std::make_unique<ExperimentLedger>(path);
        if (!ledger->ok()) {
            std::fprintf(stderr,
                         "bench_figures: cannot open ledger '%s'\n",
                         path);
            return 2;
        }
        sweep_opts.ledger = ledger.get();
    }

    // Runs go through runSweep a chunk at a time, so only one chunk's
    // stats snapshots (about 1 MB per 8x8 run) are alive at once; the
    // records keep the metrics and sections and drop the snapshot,
    // which no renderer reads.
    constexpr std::size_t CHUNK = 64;
    std::vector<RunRecord> records;
    for (std::size_t at = 0; at < configs.size(); at += CHUNK) {
        const std::vector<RunConfig> chunk(
            configs.begin() + at,
            configs.begin() + std::min(at + CHUNK, configs.size()));
        for (RunRecord &rec : runSweep(chunk, sweep_opts)) {
            rec.stats = JsonValue();
            records.push_back(std::move(rec));
        }
    }

    std::fputs(renderFigures(opts, records).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the message; a rejected key or config
    // exits 2, as the tools do.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 2;
    }
}
