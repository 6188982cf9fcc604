#include "common/histogram.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace inpg {

Histogram::Histogram(std::uint64_t bin_width, std::size_t num_bins)
    : width(bin_width), bins(num_bins, 0)
{
    INPG_ASSERT(bin_width >= 1, "histogram bin width must be >= 1");
    INPG_ASSERT(num_bins >= 1, "histogram needs at least one bin");
}

Histogram::Histogram(std::uint64_t bin_width,
                     std::vector<std::uint64_t> counts,
                     std::uint64_t overflow_count, std::uint64_t sum,
                     std::uint64_t min, std::uint64_t max)
    : width(bin_width), bins(std::move(counts)), overflow(overflow_count),
      total(overflow_count), sampleSum(sum), maxSample(max),
      minSample(min)
{
    INPG_ASSERT(bin_width >= 1, "histogram bin width must be >= 1");
    INPG_ASSERT(!bins.empty(), "histogram needs at least one bin");
    for (std::uint64_t c : bins)
        total += c;
}

void
Histogram::add(std::uint64_t sample)
{
    std::size_t idx = static_cast<std::size_t>(sample / width);
    if (idx < bins.size())
        ++bins[idx];
    else
        ++overflow;
    ++total;
    sampleSum += sample;
    maxSample = std::max(maxSample, sample);
    minSample = total == 1 ? sample : std::min(minSample, sample);
}

double
Histogram::mean() const
{
    return total ? static_cast<double>(sampleSum) /
                       static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
Histogram::binCount(std::size_t i) const
{
    INPG_ASSERT(i < bins.size(), "bin index %zu out of range", i);
    return bins[i];
}

std::uint64_t
Histogram::percentile(double fraction) const
{
    if (total == 0)
        return 0;
    // Nearest rank: the smallest bin holding at least that many samples.
    fraction = std::clamp(fraction, 0.0, 1.0);
    const std::uint64_t needed = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(fraction * static_cast<double>(total))));
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        running += bins[i];
        if (running >= needed)
            return binHi(i);
    }
    return maxSample;
}

std::string
Histogram::render(int bar_width) const
{
    std::ostringstream os;
    std::uint64_t peak = overflow;
    for (auto c : bins)
        peak = std::max(peak, c);
    if (peak == 0)
        peak = 1;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        int len = static_cast<int>(
            (bins[i] * static_cast<std::uint64_t>(bar_width)) / peak);
        os << "[" << binLo(i) << "-" << binHi(i) << "] "
           << std::string(static_cast<std::size_t>(std::max(len, 1)), '#')
           << " " << bins[i] << "\n";
    }
    if (overflow) {
        int len = static_cast<int>(
            (overflow * static_cast<std::uint64_t>(bar_width)) / peak);
        os << "[>" << binHi(bins.size() - 1) << "] "
           << std::string(static_cast<std::size_t>(std::max(len, 1)), '#')
           << " " << overflow << "\n";
    }
    return os.str();
}

} // namespace inpg
