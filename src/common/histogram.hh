/**
 * @file
 * Fixed-bin histogram used for coherence round-trip delay distributions
 * (paper Figure 10b/10d) and other latency statistics.
 */

#ifndef INPG_COMMON_HISTOGRAM_HH
#define INPG_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace inpg {

/**
 * Histogram over non-negative integer samples with uniform bin width.
 * Samples beyond the last bin are accumulated in an overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param bin_width width of each bin (>= 1)
     * @param num_bins  number of regular bins (>= 1)
     */
    Histogram(std::uint64_t bin_width, std::size_t num_bins);

    /**
     * Rebuild a histogram from its parts (a serialized RunRecord's
     * rtt section); count() is the bin total plus `overflow_count`.
     */
    Histogram(std::uint64_t bin_width, std::vector<std::uint64_t> counts,
              std::uint64_t overflow_count, std::uint64_t sum,
              std::uint64_t min, std::uint64_t max);

    /** Record one sample. */
    void add(std::uint64_t sample);

    /** Total number of samples recorded. */
    std::uint64_t count() const { return total; }

    /** Sum of all samples. */
    std::uint64_t sum() const { return sampleSum; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Largest sample seen (0 when empty). */
    std::uint64_t max() const { return maxSample; }

    /** Smallest sample seen (0 when empty). */
    std::uint64_t min() const { return total ? minSample : 0; }

    /** Width of every regular bin. */
    std::uint64_t binWidth() const { return width; }

    /** Number of regular bins. */
    std::size_t numBins() const { return bins.size(); }

    /** Count in regular bin i. */
    std::uint64_t binCount(std::size_t i) const;

    /** Inclusive lower edge of bin i. */
    std::uint64_t binLo(std::size_t i) const { return i * width; }

    /** Inclusive upper edge of bin i. */
    std::uint64_t binHi(std::size_t i) const { return (i + 1) * width - 1; }

    /** Count of samples beyond the last regular bin. */
    std::uint64_t overflowCount() const { return overflow; }

    /**
     * Smallest sample value v such that at least the given fraction of
     * samples are <= v, resolved at bin granularity (upper bin edge).
     * Returns 0 when empty.
     */
    std::uint64_t percentile(double fraction) const;

    /** Render as a small ASCII table, one line per non-empty bin. */
    std::string render(int bar_width = 40) const;

  private:
    std::uint64_t width;
    std::vector<std::uint64_t> bins;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    std::uint64_t sampleSum = 0;
    std::uint64_t maxSample = 0;
    std::uint64_t minSample = 0;
};

} // namespace inpg

#endif // INPG_COMMON_HISTOGRAM_HH
