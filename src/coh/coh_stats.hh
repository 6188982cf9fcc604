/**
 * @file
 * System-wide coherence statistics shared by all L1 controllers and
 * directories: the Inv-Ack round-trip measurements behind paper
 * Figure 10.
 */

#ifndef INPG_COH_COH_STATS_HH
#define INPG_COH_COH_STATS_HH

#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace inpg {

/** Shared coherence statistics sink. */
class CohStats
{
  public:
    /**
     * @param num_cores        cores in the system
     * @param rtt_bin_width    histogram bin width in cycles
     * @param rtt_bins         number of histogram bins
     */
    explicit CohStats(int num_cores, std::uint64_t rtt_bin_width = 5,
                      std::size_t rtt_bins = 40)
        : rttPerCore(static_cast<std::size_t>(num_cores)),
          rttHistogram(rtt_bin_width, rtt_bins)
    {}

    /**
     * Record one completed invalidation-acknowledgement round trip.
     *
     * @param core      the invalidated core
     * @param rtt       cycles from Inv generation to ack consumption
     * @param early     true when a big router generated the Inv
     */
    void
    recordInvAckRtt(CoreId core, Cycle rtt, bool early)
    {
        if (core >= 0 &&
            core < static_cast<CoreId>(rttPerCore.size()))
            rttPerCore[static_cast<std::size_t>(core)].add(
                static_cast<double>(rtt));
        rttHistogram.add(rtt);
        (early ? rttEarly : rttHome).add(static_cast<double>(rtt));
    }

    /** Per-core Inv-Ack round-trip samples (Figure 10a / 10c). */
    std::vector<SampleStat> rttPerCore;

    /** Global round-trip histogram (Figure 10b / 10d). */
    Histogram rttHistogram;

    /** Round trips of big-router (early) invalidations. */
    SampleStat rttEarly;

    /** Round trips of home-node invalidations. */
    SampleStat rttHome;
};

} // namespace inpg

#endif // INPG_COH_COH_STATS_HH
