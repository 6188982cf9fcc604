/**
 * @file
 * StatsRegistry: a named catalogue of the simulator's StatGroups and
 * derived scalars, snapshottable as a JSON document. Replaces the
 * text-only stats dump as the machine-readable results surface.
 *
 * Registration stores pointers/closures, not copies: snapshot() reads
 * live values at call time, so one registry built at wiring time can
 * be snapshotted before and after the ROI.
 */

#ifndef INPG_TELEMETRY_STATS_REGISTRY_HH
#define INPG_TELEMETRY_STATS_REGISTRY_HH

#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "telemetry/json.hh"

namespace inpg {

class StatGroup;
class Histogram;

/** Live catalogue of stat sources; snapshot() -> JSON. */
class StatsRegistry
{
  public:
    /**
     * Register a component's StatGroup. Names are unique per section
     * (groups, scalars, histograms): registering one twice panics.
     */
    void addGroup(std::string name, const StatGroup *group);

    /** Register a computed scalar (evaluated at snapshot time). */
    void addScalar(std::string name, std::function<double()> fn);

    /** Register a histogram (binned counts + moments at snapshot). */
    void addHistogram(std::string name, const Histogram *h);

    std::size_t groupCount() const { return groups.size(); }

    /**
     * Read every registered source and return the document:
     * `{"groups": {...}, "scalars": {...}, "histograms": {...}}`.
     */
    JsonValue snapshot() const;

    /** Convert one StatGroup's non-zero counters and samples to JSON. */
    static JsonValue groupToJson(const StatGroup &g);

    /** Convert one Histogram (moments + non-empty bins) to JSON. */
    static JsonValue histogramToJson(const Histogram &h);

    /**
     * Rebuild the Histogram histogramToJson() described, given the bin
     * geometry that document omits.
     */
    static Histogram histogramFromJson(const JsonValue &j,
                                       std::uint64_t bin_width,
                                       std::size_t num_bins);

  private:
    /** Panic unless `name` is new to `names`, one section's names. */
    static void claim(std::unordered_set<std::string> &names,
                      const char *section, const std::string &name);

    std::unordered_set<std::string> groupNames, scalarNames,
        histogramNames;
    std::vector<std::pair<std::string, const StatGroup *>> groups;
    std::vector<std::pair<std::string, std::function<double()>>> scalars;
    std::vector<std::pair<std::string, const Histogram *>> histograms;
};

} // namespace inpg

#endif // INPG_TELEMETRY_STATS_REGISTRY_HH
