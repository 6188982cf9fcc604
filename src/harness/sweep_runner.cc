#include "harness/sweep_runner.hh"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/presets.hh"
#include "noc/topology.hh"

namespace inpg {

int
sweepThreadCount(std::size_t jobs, int requested)
{
    if (jobs <= 1)
        return 1;
    int n = requested;
    if (n <= 0) {
        if (const char *env = std::getenv("INPG_SWEEP_THREADS"))
            n = std::atoi(env);
    }
    if (n <= 0)
        n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0)
        n = 1;
    if (static_cast<std::size_t>(n) > jobs)
        n = static_cast<int>(jobs);
    return n;
}

int
perRunThreadBudget(int sweep_workers, int requested_run_threads,
                   unsigned hw)
{
    if (requested_run_threads <= 1)
        return 1;
    if (sweep_workers <= 1)
        return requested_run_threads;
    int share = static_cast<int>(hw) /
                (sweep_workers > 0 ? sweep_workers : 1);
    if (share < 1)
        share = 1;
    return requested_run_threads < share ? requested_run_threads
                                         : share;
}

std::vector<RunRecord>
runSweep(const std::vector<RunConfig> &configs, const SweepOptions &opts)
{
    std::vector<RunRecord> records(configs.size());
    if (configs.empty())
        return records;

    const int nthreads = sweepThreadCount(configs.size(), opts.threads);
    std::atomic<std::size_t> next{0};
    const unsigned hw = std::thread::hardware_concurrency();
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= configs.size())
                return;
            // Sweep-level parallelism outranks intra-run parallelism:
            // clamp each run's kernel threads to its share of the
            // host so N workers x M kernel threads cannot
            // oversubscribe. Bit-identical either way; the record
            // keeps the clamped count.
            RunConfig rc = configs[i];
            rc.system.threads =
                perRunThreadBudget(nthreads, rc.system.threads, hw);
            records[i] = runBenchmark(rc);
        }
    };

    if (nthreads == 1) {
        worker(); // inline: no pool for a single worker
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(nthreads));
        for (int t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }
    if (opts.ledger)
        for (const RunRecord &rec : records)
            opts.ledger->append(rec);
    return records;
}

std::vector<RunConfig>
buildPlacementSweep(const RunConfig &base,
                    const std::vector<std::string> &fabrics,
                    const std::vector<int> &big_router_counts)
{
    std::vector<RunConfig> out;
    out.reserve(fabrics.size() * big_router_counts.size());
    for (const std::string &fabric : fabrics) {
        std::string text = toLower(trim(fabric));
        if (const char *spec = lookupTopologyPreset(text))
            text = spec;
        const TopologySpec spec = TopologySpec::parse(text);
        for (int count : big_router_counts) {
            RunConfig rc = base;
            spec.applyTo(rc.system.noc);
            rc.system.inpg.numBigRouters = count;
            out.push_back(std::move(rc));
        }
    }
    return out;
}

} // namespace inpg
