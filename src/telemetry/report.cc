#include "telemetry/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace inpg {

namespace {

/**
 * The compared metric set. Every entry is a *simulated* quantity --
 * deterministic for a given configuration -- so the default threshold
 * is exact. `isDouble` marks values that pass through floating-point
 * formatting and get an epsilon to absorb it. Host-time measurements
 * (the parallel profiler's busy/wait/drain ns, events/sec) are
 * deliberately not in this table: they vary run to run on the same
 * commit and would make every diff noisy.
 */
struct MetricDef {
    const char *name;
    double (*get)(const RunRecord &);
    bool isDouble;
};

constexpr MetricDef METRICS[] = {
    {"roi_cycles",
     [](const RunRecord &r) { return static_cast<double>(r.roiCycles); },
     false},
    {"cs_completed",
     [](const RunRecord &r) {
         return static_cast<double>(r.csCompleted);
     },
     false},
    {"parallel_cycles",
     [](const RunRecord &r) {
         return static_cast<double>(r.parallelCycles);
     },
     false},
    {"coh_cycles",
     [](const RunRecord &r) { return static_cast<double>(r.cohCycles); },
     false},
    {"sleep_cycles",
     [](const RunRecord &r) {
         return static_cast<double>(r.sleepCycles);
     },
     false},
    {"cse_cycles",
     [](const RunRecord &r) { return static_cast<double>(r.cseCycles); },
     false},
    {"lock_coh_cycles",
     [](const RunRecord &r) {
         return static_cast<double>(r.lockCohCycles);
     },
     false},
    {"rtt_mean", [](const RunRecord &r) { return r.rttMean; }, true},
    {"rtt_max",
     [](const RunRecord &r) { return static_cast<double>(r.rttMax); },
     false},
    {"rtt_count",
     [](const RunRecord &r) { return static_cast<double>(r.rttCount); },
     false},
    {"early_invs",
     [](const RunRecord &r) { return static_cast<double>(r.earlyInvs); },
     false},
    {"sleeps",
     [](const RunRecord &r) { return static_cast<double>(r.sleeps); },
     false},
    {"wakeups",
     [](const RunRecord &r) { return static_cast<double>(r.wakeups); },
     false},
};

/** Float-formatting epsilon for double-valued metrics. */
constexpr double DOUBLE_EPS = 1e-9;

bool
withinThreshold(double a, double b, bool is_double, double tolerance)
{
    const double diff = std::fabs(a - b);
    if (diff == 0)
        return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    double tol = tolerance;
    if (is_double)
        tol = std::max(tol, DOUBLE_EPS);
    return diff <= tol * scale;
}

const RunRecord *
findKey(const std::vector<std::pair<std::string, const RunRecord *>> &s,
        const std::string &key)
{
    for (const auto &kv : s)
        if (kv.first == key)
            return kv.second;
    return nullptr;
}

/** First-occurrence index of each config key. */
std::vector<std::pair<std::string, const RunRecord *>>
keyedRecords(const std::vector<RunRecord> &records)
{
    std::vector<std::pair<std::string, const RunRecord *>> out;
    out.reserve(records.size());
    for (const RunRecord &r : records) {
        std::string key = r.configKey();
        if (!findKey(out, key))
            out.emplace_back(std::move(key), &r);
    }
    return out;
}

std::string
formatMetric(double v)
{
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// aggregate
// ---------------------------------------------------------------------

/** Canonical Fig-2 lock column order. */
constexpr const char *LOCK_ORDER[] = {"TAS", "TTL", "ABQL", "MCS",
                                      "QSL"};

/** Paper-order mechanism columns for the speedup table. */
constexpr const char *MECH_ORDER[] = {"Original", "OCOR", "iNPG",
                                      "iNPG+OCOR"};

template <typename T>
void
addUnique(std::vector<T> &v, const T &x)
{
    if (std::find(v.begin(), v.end(), x) == v.end())
        v.push_back(x);
}

std::string
markdownRow(const std::vector<std::string> &cells)
{
    std::string out = "|";
    for (const auto &c : cells) {
        out += ' ';
        out += c;
        out += " |";
    }
    out += '\n';
    return out;
}

std::string
markdownRule(std::size_t cols)
{
    std::string out = "|";
    for (std::size_t i = 0; i < cols; ++i)
        out += "---|";
    out += '\n';
    return out;
}

} // namespace

DiffResult
diffLedgers(const std::vector<RunRecord> &a,
            const std::vector<RunRecord> &b, const ReportOptions &opts)
{
    DiffResult out;
    const auto ka = keyedRecords(a);
    const auto kb = keyedRecords(b);

    for (const auto &kv : ka) {
        const RunRecord *other = findKey(kb, kv.first);
        if (!other) {
            out.onlyInA.push_back(kv.first);
            continue;
        }
        ++out.pairedConfigs;
        for (const MetricDef &m : METRICS) {
            const double va = m.get(*kv.second);
            const double vb = m.get(*other);
            if (!withinThreshold(va, vb, m.isDouble, opts.tolerance))
                out.deltas.push_back(
                    MetricDelta{kv.first, m.name, va, vb});
        }
    }
    for (const auto &kv : kb)
        if (!findKey(ka, kv.first))
            out.onlyInB.push_back(kv.first);
    return out;
}

std::string
DiffResult::render(const ReportOptions &opts) const
{
    std::string out;
    std::string lastKey;
    for (const MetricDelta &d : deltas) {
        if (d.configKey != lastKey) {
            out += "config " + d.configKey + ":\n";
            lastKey = d.configKey;
        }
        const double base = std::max(std::fabs(d.before), 1e-12);
        out += format("  %-18s %s -> %s (%+.3f%%)\n", d.metric.c_str(),
                      formatMetric(d.before).c_str(),
                      formatMetric(d.after).c_str(),
                      100.0 * (d.after - d.before) / base);
    }
    for (const std::string &k : onlyInA)
        out += "only in A: " + k + "\n";
    for (const std::string &k : onlyInB)
        out += "only in B: " + k + "\n";
    if (opts.verbose || deltas.empty())
        out += format("%zu paired config(s) compared\n", pairedConfigs);
    out += format("inpg_report diff: %zu differing metric(s)\n",
                  deltas.size());
    return out;
}

double
lcoShare(const std::vector<const RunRecord *> &runs)
{
    const double roi = seedMean(runs, &RunRecord::roiCycles);
    if (roi <= 0)
        return 0;
    return seedMean(runs, &RunRecord::lockCohCycles) /
           (roi * static_cast<double>(runs.front()->cores));
}

std::string
aggregateReport(const std::vector<RunRecord> &records)
{
    std::string out = "# Experiment ledger aggregate\n\n";
    out += format("%zu record(s)", records.size());
    std::vector<std::string> shas;
    for (const RunRecord &r : records)
        addUnique(shas, r.gitSha +
                            (r.gitDirty ? std::string("+dirty")
                                        : std::string()));
    if (!shas.empty()) {
        out += ", commit ";
        for (std::size_t i = 0; i < shas.size(); ++i)
            out += (i ? ", " : "") + shas[i];
    }
    out += "\n";

    // -- Fig-2 LCO share table ----------------------------------------
    // bench_figures' Fig. 2 formula and rounding: lcoShare() over the
    // cell's records (the ratio of seed means), one decimal. Rows are
    // (benchmark, mechanism) in first-appearance order; columns the
    // canonical lock order, filtered to locks actually present.
    std::vector<std::string> locks;
    for (const char *l : LOCK_ORDER)
        for (const RunRecord &r : records)
            if (r.lock == l) {
                addUnique(locks, std::string(l));
                break;
            }
    std::vector<std::pair<std::string, std::string>> lcoRows;
    for (const RunRecord &r : records)
        addUnique(lcoRows, std::make_pair(r.benchmark, r.mechanism));
    if (!locks.empty() && !lcoRows.empty()) {
        out += "\n## LCO share of running time (Fig. 2)\n\n";
        out += "lco% = mean lock_coh_cycles / (mean roi_cycles x "
               "cores), means over seeds.\n\n";
        std::vector<std::string> header{"benchmark", "mechanism"};
        header.insert(header.end(), locks.begin(), locks.end());
        out += markdownRow(header);
        out += markdownRule(header.size());
        for (const auto &row : lcoRows) {
            std::vector<std::string> cells{row.first, row.second};
            bool any = false;
            for (const std::string &lk : locks) {
                std::vector<const RunRecord *> runs;
                for (const RunRecord &r : records)
                    if (r.benchmark == row.first &&
                        r.mechanism == row.second && r.lock == lk &&
                        r.roiCycles != 0 && r.cores != 0)
                        runs.push_back(&r);
                cells.push_back(runs.empty()
                                    ? "-"
                                    : fixed(100.0 * lcoShare(runs), 1) +
                                          "%");
                any = any || !runs.empty();
            }
            if (any)
                out += markdownRow(cells);
        }
    }

    // -- LCO home / big-router invalidation split ---------------------
    // Only runs recorded with telemetry=lco carry the attribution
    // section; the split is the paper's mechanism made visible: iNPG
    // moves InvAck service from the home node to big routers.
    bool anyLco = false;
    for (const RunRecord &r : records)
        if (!r.lco.isNull() && r.lco.at("acquires").asUint() > 0)
            anyLco = true;
    if (anyLco) {
        out += "\n## LCO invalidation service split "
               "(home node vs big router)\n\n";
        std::vector<std::string> header{
            "benchmark", "mechanism",     "lock",
            "acquires",  "mean latency",  "home InvAcks",
            "big-router InvAcks", "early share"};
        out += markdownRow(header);
        out += markdownRule(header.size());
        for (const RunRecord &r : records) {
            if (r.lco.isNull() || r.lco.at("acquires").asUint() == 0)
                continue;
            const double home = static_cast<double>(
                r.lco.at("home_inv_acks").asUint());
            const double early = static_cast<double>(
                r.lco.at("early_inv_acks").asUint());
            const double total = home + early;
            out += markdownRow(
                {r.benchmark, r.mechanism, r.lock,
                 format("%llu", static_cast<unsigned long long>(
                                    r.lco.at("acquires").asUint())),
                 fixed(r.lco.at("mean_latency").asDouble(), 1),
                 formatMetric(home), formatMetric(early),
                 total > 0 ? fixed(100.0 * early / total, 1) + "%"
                           : "-"});
        }
    }

    // -- Speedup vs core count ----------------------------------------
    // Per (benchmark, lock, topology) group with an Original record:
    // speedup = roi(Original) / roi(mechanism), seed-averaged ROIs.
    struct ScaleRow {
        std::string benchmark, lock, topology;
        int cores = 0; ///< follows from the topology

        bool operator==(const ScaleRow &) const = default;
    };
    std::vector<ScaleRow> scaleRows;
    for (const RunRecord &r : records)
        addUnique(scaleRows,
                  ScaleRow{r.benchmark, r.lock, r.topology, r.cores});
    std::stable_sort(scaleRows.begin(), scaleRows.end(),
                     [](const ScaleRow &a, const ScaleRow &b) {
                         return a.cores < b.cores;
                     });
    std::vector<std::string> mechs;
    for (const char *m : MECH_ORDER)
        for (const RunRecord &r : records)
            if (r.mechanism == m) {
                addUnique(mechs, std::string(m));
                break;
            }
    const bool haveOriginal =
        std::find(mechs.begin(), mechs.end(), "Original") !=
        mechs.end();
    if (haveOriginal && mechs.size() > 1) {
        out += "\n## ROI speedup vs cores "
               "(roi(Original) / roi(mechanism))\n\n";
        std::vector<std::string> header{"benchmark", "lock",
                                        "topology", "cores",
                                        "Original ROI"};
        for (const std::string &m : mechs)
            if (m != "Original")
                header.push_back(m);
        out += markdownRow(header);
        out += markdownRule(header.size());
        for (const ScaleRow &s : scaleRows) {
            auto runsOf = [&](const std::string &mech) {
                std::vector<const RunRecord *> runs;
                for (const RunRecord &r : records)
                    if (r.benchmark == s.benchmark &&
                        r.lock == s.lock && r.topology == s.topology &&
                        r.mechanism == mech)
                        runs.push_back(&r);
                return runs;
            };
            const auto orig = runsOf("Original");
            if (orig.empty())
                continue;
            const double origRoi = seedMean(orig, &RunRecord::roiCycles);
            std::vector<std::string> cells{
                s.benchmark, s.lock, s.topology,
                format("%d", s.cores),
                formatMetric(std::floor(origRoi))};
            bool any = false;
            for (const std::string &m : mechs) {
                if (m == "Original")
                    continue;
                const auto runs = runsOf(m);
                const double roi = seedMean(runs, &RunRecord::roiCycles);
                cells.push_back(roi > 0 ? fixed(origRoi / roi, 2) + "x"
                                        : "-");
                any = any || !runs.empty();
            }
            if (any)
                out += markdownRow(cells);
        }
    }
    return out;
}

RegressResult
regressLedger(const std::vector<RunRecord> &fresh,
              const std::vector<RunRecord> &baseline,
              const ReportOptions &opts)
{
    RegressResult out;
    // Baseline on the A side so a config missing from the fresh ledger
    // shows up as onlyInA -- the failure mode (coverage loss).
    out.diff = diffLedgers(baseline, fresh, opts);
    out.pass = out.diff.deltas.empty() && out.diff.onlyInA.empty();
    return out;
}

std::string
RegressResult::render(const ReportOptions &opts) const
{
    std::string out = diff.render(opts);
    if (!diff.onlyInA.empty())
        out += format("%zu baseline config(s) missing from the fresh "
                      "ledger\n",
                      diff.onlyInA.size());
    out += format("inpg_report regress: %s\n", pass ? "PASS" : "FAIL");
    return out;
}

} // namespace inpg
