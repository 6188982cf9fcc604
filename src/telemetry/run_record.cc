#include "telemetry/run_record.hh"

#include <cstdio>

#include "common/logging.hh"
#include "telemetry/stats_registry.hh"

namespace inpg {

bool
schemaVersionCompatible(const JsonValue &doc, int expected,
                        std::string *why)
{
    const JsonValue *v = doc.find("schema_version");
    if (!v) {
        if (why)
            *why = "document has no schema_version field";
        return false;
    }
    const long long got = v->asInt(-1);
    if (got != expected) {
        if (why)
            *why = format("schema_version %lld not supported (this "
                          "reader understands %d)",
                          static_cast<long long>(got), expected);
        return false;
    }
    return true;
}

std::string
runRecordCompiler()
{
    return __VERSION__;
}

std::string
RunRecord::configKey() const
{
    using ull = unsigned long long;
    return format("%s|%s|%s|%s|br%d|seed%llu|cs%.17g|be%llu|ei%llu|"
                  "ttl%llu|spin%llu|ctx%llu|wake%llu|locks%d|home%s",
                  benchmark.c_str(), mechanism.c_str(), lock.c_str(),
                  topology.c_str(), bigRouters, static_cast<ull>(seed),
                  csScale, static_cast<ull>(barrierEntries),
                  static_cast<ull>(eiEntries), static_cast<ull>(barrierTtl),
                  static_cast<ull>(spinInterval),
                  static_cast<ull>(contextSwitchCost),
                  static_cast<ull>(wakeupCost), numLocks,
                  lockHome.c_str());
}

JsonValue
RunRecord::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc["record"] = RUN_RECORD_TAG;
    doc["schema_version"] = RUN_RECORD_SCHEMA_VERSION;

    JsonValue prov = JsonValue::object();
    prov["git_sha"] = gitSha;
    prov["git_dirty"] = gitDirty;
    prov["compiler"] = compiler;
    doc["provenance"] = std::move(prov);

    JsonValue cfg = JsonValue::object();
    cfg["benchmark"] = benchmark;
    cfg["mechanism"] = mechanism;
    cfg["lock"] = lock;
    cfg["topology"] = topology;
    cfg["cores"] = cores;
    cfg["big_routers"] = bigRouters;
    cfg["threads"] = threads;
    cfg["seed"] = seed;
    cfg["cs_scale"] = csScale;
    cfg["barrier_entries"] = barrierEntries;
    cfg["ei_entries"] = eiEntries;
    cfg["barrier_ttl"] = barrierTtl;
    cfg["spin_interval"] = spinInterval;
    cfg["context_switch_cost"] = contextSwitchCost;
    cfg["wakeup_cost"] = wakeupCost;
    cfg["num_locks"] = numLocks;
    cfg["lock_home"] = lockHome;
    doc["config"] = std::move(cfg);

    JsonValue met = JsonValue::object();
    met["roi_cycles"] = roiCycles;
    met["cs_completed"] = csCompleted;
    met["parallel_cycles"] = parallelCycles;
    met["coh_cycles"] = cohCycles;
    met["sleep_cycles"] = sleepCycles;
    met["cse_cycles"] = cseCycles;
    met["lock_coh_cycles"] = lockCohCycles;
    met["rtt_mean"] = rttMean;
    met["rtt_max"] = rttMax;
    met["rtt_count"] = rttCount;
    met["early_invs"] = earlyInvs;
    met["sleeps"] = sleeps;
    met["wakeups"] = wakeups;
    doc["metrics"] = std::move(met);

    if (rtt) {
        // The histogram in the stats snapshot's form, plus the bin
        // geometry that form omits.
        const Histogram &h = rtt->histogram;
        JsonValue per_core = JsonValue::array();
        for (double mean : rtt->perCoreMean)
            per_core.push(mean);
        JsonValue sec = JsonValue::object();
        sec["per_core_mean"] = std::move(per_core);
        sec["early_count"] = rtt->earlyCount;
        sec["home_count"] = rtt->homeCount;
        sec["bin_width"] = h.binWidth();
        sec["num_bins"] = static_cast<std::uint64_t>(h.numBins());
        sec["histogram"] = StatsRegistry::histogramToJson(h);
        doc["rtt"] = std::move(sec);
    }
    if (!phases.empty()) {
        // One array per thread of [cycle, phase] pairs.
        JsonValue threads_tl = JsonValue::array();
        for (const auto &timeline : phases) {
            JsonValue tl = JsonValue::array();
            for (const PhaseMark &mark : timeline) {
                JsonValue pair = JsonValue::array();
                pair.push(mark.at);
                pair.push(mark.phase);
                tl.push(std::move(pair));
            }
            threads_tl.push(std::move(tl));
        }
        doc["phases"] = std::move(threads_tl);
    }
    if (!lco.isNull())
        doc["lco"] = lco;
    if (!timeseries.isNull())
        doc["timeseries"] = timeseries;
    if (!stats.isNull())
        doc["stats"] = stats;
    return doc;
}

RunRecord
RunRecord::fromJson(const JsonValue &doc, std::string *err)
{
    RunRecord rec;
    if (doc.at("record").asString() != RUN_RECORD_TAG) {
        if (err)
            *err = "not an " + std::string(RUN_RECORD_TAG) +
                   " document";
        return rec;
    }
    std::string why;
    if (!schemaVersionCompatible(doc, RUN_RECORD_SCHEMA_VERSION,
                                 &why)) {
        if (err)
            *err = why;
        return rec;
    }

    const JsonValue &prov = doc.at("provenance");
    rec.gitSha = prov.at("git_sha").asString();
    rec.gitDirty = prov.at("git_dirty").asBool();
    rec.compiler = prov.at("compiler").asString();

    const JsonValue &cfg = doc.at("config");
    rec.benchmark = cfg.at("benchmark").asString();
    rec.mechanism = cfg.at("mechanism").asString();
    rec.lock = cfg.at("lock").asString();
    rec.topology = cfg.at("topology").asString();
    rec.cores = static_cast<int>(cfg.at("cores").asInt());
    rec.bigRouters = static_cast<int>(cfg.at("big_routers").asInt());
    rec.threads = static_cast<int>(cfg.at("threads").asInt(1));
    rec.seed = cfg.at("seed").asUint(1);
    rec.csScale = cfg.at("cs_scale").asDouble();
    rec.barrierEntries = cfg.at("barrier_entries").asUint();
    rec.eiEntries = cfg.at("ei_entries").asUint();
    rec.barrierTtl = cfg.at("barrier_ttl").asUint();
    rec.spinInterval = cfg.at("spin_interval").asUint();
    rec.contextSwitchCost = cfg.at("context_switch_cost").asUint();
    rec.wakeupCost = cfg.at("wakeup_cost").asUint();
    rec.numLocks = static_cast<int>(cfg.at("num_locks").asInt());
    if (const JsonValue *home = cfg.find("lock_home"))
        rec.lockHome = home->asString();

    const JsonValue &met = doc.at("metrics");
    rec.roiCycles = met.at("roi_cycles").asUint();
    rec.csCompleted = met.at("cs_completed").asUint();
    rec.parallelCycles = met.at("parallel_cycles").asUint();
    rec.cohCycles = met.at("coh_cycles").asUint();
    rec.sleepCycles = met.at("sleep_cycles").asUint();
    rec.cseCycles = met.at("cse_cycles").asUint();
    rec.lockCohCycles = met.at("lock_coh_cycles").asUint();
    rec.rttMean = met.at("rtt_mean").asDouble();
    rec.rttMax = met.at("rtt_max").asUint();
    rec.rttCount = met.at("rtt_count").asUint();
    rec.earlyInvs = met.at("early_invs").asUint();
    rec.sleeps = met.at("sleeps").asUint();
    rec.wakeups = met.at("wakeups").asUint();

    if (const JsonValue *sec = doc.find("rtt")) {
        RunRtt &r = rec.rtt.emplace(RunRtt{
            {},
            sec->at("early_count").asUint(),
            sec->at("home_count").asUint(),
            StatsRegistry::histogramFromJson(
                sec->at("histogram"), sec->at("bin_width").asUint(1),
                sec->at("num_bins").asUint(1))});
        for (const JsonValue &mean : sec->at("per_core_mean").items())
            r.perCoreMean.push_back(mean.asDouble());
    }
    if (const JsonValue *sec = doc.find("phases")) {
        for (const JsonValue &tl : sec->items()) {
            std::vector<PhaseMark> timeline;
            for (const JsonValue &pair : tl.items())
                timeline.push_back(
                    {pair.item(0).asUint(),
                     static_cast<int>(pair.item(1).asInt())});
            rec.phases.push_back(std::move(timeline));
        }
    }
    rec.lco = doc.at("lco");
    rec.timeseries = doc.at("timeseries");
    rec.stats = doc.at("stats");
    if (err)
        err->clear();
    return rec;
}

ExperimentLedger::ExperimentLedger(std::string path)
    : filePath(std::move(path))
{
    file = std::fopen(filePath.c_str(), "a");
}

ExperimentLedger::~ExperimentLedger()
{
    if (file)
        std::fclose(file);
}

void
ExperimentLedger::append(const RunRecord &rec)
{
    if (!file)
        return;
    std::string line = rec.toJson().dump(0);
    line += '\n';
    // One write call for the whole line, serialized by the mutex and
    // flushed before release: a reader (or a crash) never observes a
    // torn record.
    std::lock_guard<std::mutex> guard(mu); // lint:allow(threading-outside-parallel)
    std::fwrite(line.data(), 1, line.size(), file);
    std::fflush(file);
    ++count;
}

std::vector<RunRecord>
ExperimentLedger::load(const std::string &path, std::string *err,
                       bool drop_stats)
{
    std::vector<RunRecord> out;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        if (err)
            *err = "cannot open ledger '" + path + "'";
        return out;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    std::size_t lineno = 0;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        ++lineno;
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        std::string diag;
        JsonValue doc = JsonValue::parse(line, &diag);
        if (!diag.empty()) {
            if (err)
                *err = format("%s:%zu: %s", path.c_str(), lineno,
                              diag.c_str());
            return out;
        }
        RunRecord rec = RunRecord::fromJson(doc, &diag);
        if (!diag.empty()) {
            if (err)
                *err = format("%s:%zu: %s", path.c_str(), lineno,
                              diag.c_str());
            return out;
        }
        if (drop_stats)
            rec.stats = JsonValue();
        out.push_back(std::move(rec));
    }
    if (err)
        err->clear();
    return out;
}

} // namespace inpg
