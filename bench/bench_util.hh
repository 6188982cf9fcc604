/**
 * @file
 * Shared plumbing for the figure bench binaries: option parsing and
 * common formatting.
 *
 * Every bench accepts "key=value" arguments:
 *   cs_scale=<f>   fraction of the paper's per-thread CS count simulated
 *   seeds=<n>      runs averaged per data point (default 1)
 *   quick=1        reduced sweep for smoke runs
 *   mesh_width / mesh_height / big_routers / ... (see SystemConfig)
 */

#ifndef INPG_BENCH_BENCH_UTIL_HH
#define INPG_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/strutil.hh"
#include "harness/experiment.hh"
#include "harness/table_printer.hh"
#include "workload/benchmark_profile.hh"

namespace inpg {

/** Parsed bench options. */
struct BenchOptions {
    Config overrides;
    double csScale = 0.04;
    int seeds = 1;
    bool quick = false;

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions o;
        o.overrides.loadArgs(argc, argv);
        o.csScale = o.overrides.getDouble("cs_scale", o.csScale);
        o.seeds = static_cast<int>(o.overrides.getInt("seeds", o.seeds));
        o.quick = o.overrides.getBool("quick", false);
        return o;
    }

    /** Base system config with command line overrides applied. */
    SystemConfig
    systemConfig() const
    {
        SystemConfig sc;
        sc.applyOverrides(overrides);
        return sc;
    }
};

/** Percentage "87.7%". */
inline std::string
pct(double fraction, int decimals = 1)
{
    return fixed(100.0 * fraction, decimals) + "%";
}

} // namespace inpg

#endif // INPG_BENCH_BENCH_UTIL_HH
