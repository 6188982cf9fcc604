#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace inpg {

namespace {

const SampleStat EMPTY_SAMPLE;

/** First entry of the name-sorted `stats` not ordered before `name`. */
std::vector<StatGroup::Entry>::const_iterator
lowerBound(const std::vector<StatGroup::Entry> &stats, std::string_view name)
{
    return std::lower_bound(stats.begin(), stats.end(), name,
                            [](const StatGroup::Entry &e,
                               std::string_view n) { return e.name < n; });
}

/** The entry named `name` in a name-sorted list, or nullptr. */
const StatGroup::Entry *
findEntry(const std::vector<StatGroup::Entry> &stats, std::string_view name)
{
    auto it = lowerBound(stats, name);
    return it != stats.end() && it->name == name ? &*it : nullptr;
}

} // namespace

std::uint64_t
StatGroup::value(std::string_view name) const
{
    const Entry *e = findEntry(stats, name);
    return e && e->counter ? *e->counter : 0;
}

const SampleStat &
StatGroup::sampleValue(std::string_view name) const
{
    const Entry *e = findEntry(stats, name);
    return e && e->sample ? *e->sample : EMPTY_SAMPLE;
}

void
StatGroup::declare(const Entry &e)
{
    if (findEntry(stats, e.name))
        panic("stat '%s' declared twice in one group", e.name);
    stats.insert(lowerBound(stats, e.name), e);
}

} // namespace inpg
