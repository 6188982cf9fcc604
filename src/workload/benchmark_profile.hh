/**
 * @file
 * Synthetic benchmark profiles standing in for PARSEC and SPEC OMP2012
 * (substitution documented in DESIGN.md Section 2).
 *
 * Each of the paper's 24 evaluated programs (10 PARSEC, 14 OMP2012)
 * becomes a profile: total critical-section count, mean CS body
 * length, mean parallel-phase length and lock count, calibrated to the
 * per-program characteristics the paper reports (Fig. 8a: e.g. fluid
 * has 10,240 short CSs of ~81 cycles; imag has 4,000 heavier CSs of
 * ~179 cycles) and to the Fig. 8b grouping by total CS time. All
 * lock/coherence traffic is produced by the real simulated protocol;
 * only the compute between synchronization points is abstracted.
 */

#ifndef INPG_WORKLOAD_BENCHMARK_PROFILE_HH
#define INPG_WORKLOAD_BENCHMARK_PROFILE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace inpg {

/** Origin suite of a profile. */
enum class Suite {
    Parsec,
    Omp2012,
};

/** Workload profile of one benchmark program. */
struct BenchmarkProfile {
    std::string name;      ///< short name (paper footnote 5 style)
    std::string fullName;  ///< full program name
    Suite suite = Suite::Parsec;

    /** Figure 8b group (1 = low total CS time ... 3 = high). */
    int group = 1;

    /** Total CS entries across all 64 threads (Fig. 8a scale). */
    std::uint64_t totalCs = 4000;

    /** Mean CPU cycles of one CS body (Fig. 8a). */
    double avgCsCycles = 100;

    /** Mean parallel-compute cycles between CS entries. */
    double avgParallelCycles = 2000;

    /** Number of distinct locks the program contends on. */
    int numLocks = 1;

    /**
     * Mean cycles between background memory accesses (shared-data
     * misses) a thread issues during its parallel phase; models the
     * ordinary cache-miss traffic the L2 banks and NoC carry in a
     * full-system run. 0 disables background traffic.
     */
    double memGapCycles = 150;

    /** CS entries per thread for a given thread count and scale. */
    int
    csPerThread(int threads, double scale) const
    {
        double per = static_cast<double>(totalCs) /
                     static_cast<double>(threads) * scale;
        return per < 2.0 ? 2 : static_cast<int>(per);
    }

    bool operator==(const BenchmarkProfile &) const = default;
};

/** All 24 evaluated programs, grouped and ordered as in Figure 8b. */
const std::vector<BenchmarkProfile> &allBenchmarks();

/** Look up one profile by short name; fatal() if unknown. */
const BenchmarkProfile &benchmarkByName(const std::string &name);

/** The programs of one group (1..3). */
std::vector<BenchmarkProfile> benchmarksInGroup(int group);

} // namespace inpg

#endif // INPG_WORKLOAD_BENCHMARK_PROFILE_HH
