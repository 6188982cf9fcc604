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

/** A RunRecord field as a double. */
template <auto Field>
double
field(const RunRecord &r)
{
    return static_cast<double>(r.*Field);
}

constexpr MetricDef METRICS[] = {
    {"roi_cycles", field<&RunRecord::roiCycles>, false},
    {"cs_completed", field<&RunRecord::csCompleted>, false},
    {"parallel_cycles", field<&RunRecord::parallelCycles>, false},
    {"coh_cycles", field<&RunRecord::cohCycles>, false},
    {"sleep_cycles", field<&RunRecord::sleepCycles>, false},
    {"cse_cycles", field<&RunRecord::cseCycles>, false},
    {"lock_coh_cycles", field<&RunRecord::lockCohCycles>, false},
    {"rtt_mean", field<&RunRecord::rttMean>, true},
    {"rtt_max", field<&RunRecord::rttMax>, false},
    {"rtt_count", field<&RunRecord::rttCount>, false},
    {"early_invs", field<&RunRecord::earlyInvs>, false},
    {"sleeps", field<&RunRecord::sleeps>, false},
    {"wakeups", field<&RunRecord::wakeups>, false},
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

} // namespace

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
