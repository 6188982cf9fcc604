/**
 * @file
 * Lightweight statistics primitives: counters and sample averages, each
 * declared once as a typed member of its component's stat group:
 *
 *     struct McStats : StatGroup {
 *         Counter fetches{*this, "fetches"};
 *         Sample queueing{*this, "queueing"};
 *     };
 *
 * A member registers its name and address with the group as it is
 * constructed. Call sites bump it directly (`++stats.fetches`); readers
 * walk the group in name order or read one stat by name.
 *
 * A much-reduced analogue of gem5's Stats package: enough to account for
 * every event the paper's evaluation section reports.
 */

#ifndef INPG_COMMON_STATS_HH
#define INPG_COMMON_STATS_HH

#include <cstdint>
#include <string_view>
#include <vector>

namespace inpg {

/** Running mean/min/max over double samples. */
class SampleStat
{
  public:
    void
    add(double v)
    {
        ++n;
        total += v;
        if (n == 1 || v < lo)
            lo = v;
        if (n == 1 || v > hi)
            hi = v;
    }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0; }
    double min() const { return lo; }
    double max() const { return hi; }

  private:
    std::uint64_t n = 0;
    double total = 0;
    double lo = 0;
    double hi = 0;
};

/**
 * The stats one component declares. It holds its members' addresses,
 * so it is neither copyable nor movable.
 */
class StatGroup
{
  public:
    /** One declared stat: exactly one of `counter`, `sample` is set. */
    struct Entry {
        const char *name;
        const std::uint64_t *counter;
        const SampleStat *sample;
    };

    StatGroup() = default;
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Value of the counter declared as `name`; 0 if none is. */
    std::uint64_t value(std::string_view name) const;

    /** The sample declared as `name`; an empty one if none is. */
    const SampleStat &sampleValue(std::string_view name) const;

    /** Every declared stat, in name order. */
    const std::vector<Entry> &entries() const { return stats; }

  private:
    friend class Counter;
    friend class Sample;

    /** Register a stat; declaring a name twice in one group panics. */
    void declare(const Entry &e);

    std::vector<Entry> stats;
};

/** An event count declared in a StatGroup. */
class Counter
{
  public:
    Counter(StatGroup &g, const char *name) { g.declare({name, &n, {}}); }
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    Counter &operator++() { return *this += 1; }

    Counter &
    operator+=(std::uint64_t delta)
    {
        n += delta;
        return *this;
    }

    operator std::uint64_t() const { return n; }

    /** Stable address of the count (timeseries columns, watchdog). */
    const std::uint64_t *address() const { return &n; }

  private:
    std::uint64_t n = 0;
};

/** A SampleStat declared in a StatGroup. */
class Sample : public SampleStat
{
  public:
    Sample(StatGroup &g, const char *name) { g.declare({name, {}, this}); }
    Sample(const Sample &) = delete;
    Sample &operator=(const Sample &) = delete;
};

} // namespace inpg

#endif // INPG_COMMON_STATS_HH
