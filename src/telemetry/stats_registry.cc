#include "telemetry/stats_registry.hh"

#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace inpg {

void
StatsRegistry::claim(std::unordered_set<std::string> &names,
                     const char *section, const std::string &name)
{
    if (!names.insert(name).second)
        panic("stats %s '%s' registered twice", section, name.c_str());
}

void
StatsRegistry::addGroup(std::string name, const StatGroup *group)
{
    claim(groupNames, "group", name);
    groups.emplace_back(std::move(name), group);
}

void
StatsRegistry::addScalar(std::string name, std::function<double()> fn)
{
    claim(scalarNames, "scalar", name);
    scalars.emplace_back(std::move(name), std::move(fn));
}

void
StatsRegistry::addHistogram(std::string name, const Histogram *h)
{
    claim(histogramNames, "histogram", name);
    histograms.emplace_back(std::move(name), h);
}

JsonValue
StatsRegistry::groupToJson(const StatGroup &g)
{
    JsonValue j = JsonValue::object();
    JsonValue &counters = j["counters"];
    counters = JsonValue::object();
    for (const StatGroup::Entry &e : g.entries())
        if (e.counter && *e.counter)
            counters[e.name] = JsonValue(*e.counter);
    JsonValue &samples = j["samples"];
    samples = JsonValue::object();
    for (const StatGroup::Entry &e : g.entries()) {
        const SampleStat *s = e.sample;
        if (!s || !s->count())
            continue;
        JsonValue &sj = samples[e.name];
        sj["count"] = JsonValue(s->count());
        sj["sum"] = JsonValue(s->sum());
        sj["mean"] = JsonValue(s->mean());
        sj["min"] = JsonValue(s->min());
        sj["max"] = JsonValue(s->max());
    }
    return j;
}

JsonValue
StatsRegistry::histogramToJson(const Histogram &h)
{
    JsonValue j = JsonValue::object();
    j["count"] = JsonValue(h.count());
    j["sum"] = JsonValue(h.sum());
    j["mean"] = JsonValue(h.mean());
    j["min"] = JsonValue(h.min());
    j["max"] = JsonValue(h.max());
    j["p50"] = JsonValue(h.percentile(0.50));
    j["p99"] = JsonValue(h.percentile(0.99));
    JsonValue &bins = j["bins"];
    bins = JsonValue::array();
    for (std::size_t i = 0; i < h.numBins(); ++i) {
        if (!h.binCount(i))
            continue;
        JsonValue b = JsonValue::object();
        b["lo"] = JsonValue(h.binLo(i));
        b["hi"] = JsonValue(h.binHi(i));
        b["count"] = JsonValue(h.binCount(i));
        bins.push(std::move(b));
    }
    j["overflow"] = JsonValue(h.overflowCount());
    return j;
}

Histogram
StatsRegistry::histogramFromJson(const JsonValue &j, std::uint64_t bin_width,
                                 std::size_t num_bins)
{
    std::vector<std::uint64_t> bins(num_bins);
    for (const JsonValue &b : j.at("bins").items())
        bins.at(b.at("lo").asUint() / bin_width) = b.at("count").asUint();
    return Histogram(bin_width, std::move(bins), j.at("overflow").asUint(),
                     j.at("sum").asUint(), j.at("min").asUint(),
                     j.at("max").asUint());
}

JsonValue
StatsRegistry::snapshot() const
{
    JsonValue doc = JsonValue::object();
    JsonValue &gj = doc["groups"];
    gj = JsonValue::object();
    // Registration keeps names unique, so members append unchecked.
    for (const auto &[name, group] : groups)
        gj.append(name, groupToJson(*group));
    JsonValue &sj = doc["scalars"];
    sj = JsonValue::object();
    for (const auto &[name, fn] : scalars)
        sj.append(name, JsonValue(fn()));
    JsonValue &hj = doc["histograms"];
    hj = JsonValue::object();
    for (const auto &[name, h] : histograms)
        hj.append(name, histogramToJson(*h));
    return doc;
}

} // namespace inpg
