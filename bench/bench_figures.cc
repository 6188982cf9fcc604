/**
 * @file
 * Every paper artifact -- Table 1, Fig. 7a, the run-based Figs. 2 and
 * 8-15, and the design-constant ablations -- from one sweep:
 *
 *   bench_figures [fig=table1,07,02,08,09,10,11,12,13,14,15,ablation]
 *                 [cs_scale=<f>] [seeds=<n>] [quick=1] [benchmark=<name>]
 *                 [SystemConfig keys: topology=, big_routers=, ...]
 *
 * Any other key is rejected (exit 2). The selected figures' runs (fig=
 * defaults to all) go back to back through runSweep -- parallel across
 * host threads (INPG_SWEEP_THREADS) and bit-identical to a serial
 * sweep. A run is named by its RunRecord::configKey(), so a
 * configuration several figures show runs once, and each figure
 * renders its tables from the records of its own keys. A data point
 * is `seeds` runs (seeds 1..n) averaged by seedMean(); Figs. 9 and 10
 * take one run per point. benchmark= picks the ablations' program
 * (default freq). When INPG_LEDGER_PATH is set, every run is also
 * appended to that experiment ledger.
 */

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/sweep_runner.hh"
#include "harness/table_printer.hh"
#include "inpg/synthesis_model.hh"
#include "noc/topology.hh"
#include "telemetry/report.hh"

using namespace inpg;

namespace {

/** Parsed command line. */
struct BenchOptions {
    Config overrides;
    double csScale = 0.04;
    int seeds = 1;
    bool quick = false;

    /**
     * Base system config with the command line's overrides applied; a
     * non-empty `topology` replaces the command line's fabric.
     */
    SystemConfig
    systemConfig(const std::string &topology = {}) const
    {
        Config c = overrides;
        if (!topology.empty())
            c.set("topology", topology);
        SystemConfig sc;
        sc.applyOverrides(c);
        return sc;
    }
};

/** The seed runs of one data point. */
using Point = std::vector<const RunRecord *>;

constexpr auto ROI = &RunRecord::roiCycles;

/**
 * What a figure function draws on. The function asks point() for each
 * data point its tables need. It is called twice: first with no
 * records, to list the runs (the text is discarded), then over the
 * sweep's records. point() names each seed run by its configKey(),
 * lists the first config of each key, and returns the records of the
 * point's keys, so figures may share runs and be drawn in any order.
 */
struct Sweep {
    const BenchOptions &opts;
    /** Each distinct config, in first-listed order. */
    std::vector<RunConfig> configs{};
    /** configKey() -> index into configs and records. */
    std::unordered_map<std::string, std::size_t> index{};
    /** The sweep's records, in configs order; empty while listing. */
    std::vector<RunRecord> records{};

    /** `seeds` runs of `rc` (seeds 1..seeds) as one data point. */
    Point
    point(RunConfig rc, int seeds)
    {
        Point pt;
        for (int s = 0; s < seeds; ++s) {
            rc.system.seed = static_cast<std::uint64_t>(s) + 1;
            const auto [it, listed] = index.try_emplace(
                runIdentity(rc).configKey(), configs.size());
            if (listed)
                configs.push_back(rc);
            // configKey() names a profile only by name and lock count.
            INPG_ASSERT(configs[it->second] == rc,
                        "two configs share run key '%s'", it->first.c_str());
            if (!records.empty())
                pt.push_back(&records.at(it->second));
        }
        return pt;
    }

    /** `profile` under `mech` on `sys`, at the sweep's scale and seeds. */
    Point
    point(const BenchmarkProfile &profile, const SystemConfig &sys,
          Mechanism mech)
    {
        RunConfig rc;
        rc.profile = profile;
        rc.system = sys;
        rc.system.mechanism = mech;
        rc.csScale = opts.csScale;
        return point(std::move(rc), opts.seeds);
    }
};

/** Benchmarks to sweep (subset under quick=1). */
std::vector<BenchmarkProfile>
benchmarks(const BenchOptions &opts)
{
    if (!opts.quick)
        return allBenchmarks();
    return {benchmarkByName("md"), benchmarkByName("freq"),
            benchmarkByName("kdtree")};
}

/** Percentage "87.7%". */
std::string
pct(double fraction, int decimals = 1)
{
    return fixed(100.0 * fraction, decimals) + "%";
}

/** A speedup printed as "1.35x". */
std::string
times(double x)
{
    return fixed(x, 2) + "x";
}

/** A reduction printed as "-12.3%", an increase as "+4.5%". */
std::string
signedReduction(double red)
{
    return (red >= 0 ? "-" : "+") + pct(red >= 0 ? red : -red);
}

// Table 1 -- simulation platform configuration: the exact parameters
// of each of the four comparative cases as built by the harness (the
// runtime counterpart of the paper's configuration table).
std::string
table1(Sweep &s)
{
    TablePrinter t("Platform (paper Table 1)");
    t.header({"item", "amount", "description"});
    const SystemConfig sc = s.opts.systemConfig();
    t.row({"Core", std::to_string(sc.numCores()) + " cores",
           "in-order lock/compute thread model @ 2.0 GHz"});
    t.row({"L1-Cache", std::to_string(sc.numCores()) + " banks",
           "private, " + std::to_string(sc.coh.lineSize) + " B blocks, " +
               std::to_string(sc.coh.l1Latency) + "-cycle latency"});
    t.row({"L2-Cache", std::to_string(sc.numCores()) + " banks",
           "shared, directory MOESI, " +
               std::to_string(sc.coh.l2Latency) + "-cycle latency"});
    t.row({"Memory", "8 ranks",
           std::to_string(sc.coh.memLatency) +
               "-cycle DRAM, 8 memory controllers"});
    t.row({"NoC", std::to_string(sc.numCores()) + " nodes",
           std::to_string(sc.noc.meshWidth) + "x" +
               std::to_string(sc.noc.meshHeight) +
               " mesh, XY routing, 2-stage routers, " +
               std::to_string(sc.noc.vcsPerVnet) + " VCs/vnet x " +
               std::to_string(sc.noc.numVnets) + " vnets, " +
               std::to_string(sc.noc.vcDepth) + " flits/VC, 128-bit"});
    t.row({"OCOR", "-",
           std::to_string(sc.sync.ocor.priorityLevels) +
               " priority levels, " +
               std::to_string(sc.sync.ocor.retriesPerLevel) +
               " retries/level, " +
               std::to_string(sc.sync.qslRetryLimit) + " retry budget"});
    t.row({"iNPG", "-",
           std::to_string(sc.inpg.numBigRouters) + " big routers, " +
               std::to_string(sc.inpg.barrierEntries) +
               "-entry locking barrier table, TTL " +
               std::to_string(sc.inpg.barrierTtl)});
    std::string out =
        "=== Table 1: simulation platform configurations ===\n\n" +
        t.render() + "\n";
    for (Mechanism m : ALL_MECHANISMS) {
        SystemConfig c = sc;
        c.mechanism = m;
        c.finalize();
        out += format("--- Case %s ---\n%s\n", mechanismName(m),
                      c.describe().c_str());
    }
    return out;
}

// Figure 7a -- module synthesis and layout results, from the analytical
// synthesis model (no EDA flow here: the model is seeded with the
// paper's reported TSMC 40nm constants and scales the packet generator
// with the locking-barrier-table size), plus the chip-level dynamic
// power of each big-router deployment of Fig. 14.
std::string
fig07(Sweep &)
{
    const SynthesisModel model;
    TablePrinter pg("Packet generator vs locking-barrier-table size");
    pg.header({"entries", "gates (K)", "dyn. power (mW)",
               "router overhead"});
    for (std::size_t entries : {4u, 16u, 64u}) {
        const ModuleSynthesis g = model.packetGenerator(entries);
        pg.row({std::to_string(entries), fixed(g.gatesK, 2),
                fixed(g.dynamicPowerMw, 2),
                pct(g.dynamicPowerMw /
                    model.normalRouter().dynamicPowerMw)});
    }
    TablePrinter chip("64-core chip dynamic power by deployment");
    chip.header({"big routers", "chip power (mW)", "vs 0 BRs"});
    const double base = model.chipPowerMw(64, 0, 16);
    for (int n : {0, 4, 16, 32, 64}) {
        const double p = model.chipPowerMw(64, n, 16);
        chip.row({std::to_string(n), fixed(p, 1),
                  "+" + pct(p / base - 1.0, 2)});
    }
    return "=== Figure 7a: module synthesis & layout (analytical model, "
           "TSMC 40nm LP seeds) ===\n\n" +
           model.renderTable(16) + "\n" + pg.render() + "\n" +
           chip.render() +
           "\nPaper reference: normal router 19.9K gates / 84.2 mW; big "
           "router 22.4K gates / 92.6 mW; packet generator 2.5K gates / "
           "8.4 mW (+9.9% router power).\n";
}

// Figure 2 -- % lock coherence overhead (LCO) in running time under
// the five primitives. Paper shapes to hold: TAS highest, TTL/ABQL
// intermediate, MCS and QSL lowest; facesim the most LCO-bound.
std::string
fig02(Sweep &s)
{
    TablePrinter t("LCO% = lock-coherence cycles / (threads x ROI)");
    t.header({"benchmark", "TAS", "TTL", "ABQL", "MCS", "QSL"});
    for (const char *prog : {"kdtree", "face", "fluid"}) {
        // The paper measures the LCO of "the critical section lock":
        // concentrate each program's CS traffic on its dominant lock.
        BenchmarkProfile p = benchmarkByName(prog);
        p.numLocks = 1;
        std::vector<std::string> cells{p.fullName};
        for (LockKind k : {LockKind::Tas, LockKind::Ticket, LockKind::Abql,
                           LockKind::Mcs, LockKind::Qsl}) {
            SystemConfig sc = s.opts.systemConfig();
            sc.lockKind = k;
            cells.push_back(
                pct(lcoShare(s.point(p, sc, Mechanism::Original))));
        }
        t.row(cells);
    }
    return "=== Figure 2: % LCO in application running time "
           "(Original) ===\n\n" +
           t.render() +
           "\nPaper reference: kdtree 50/31/27/14/17%, facesim "
           "90/57/56/30/32%, fluidanimate 65/47/50/20/25%.\n";
}

// Figure 8 -- CS characteristics of the 24 programs: (a) CS count and
// mean cycles per CS, (b) total CS time split into competition
// overhead (COH) and CS execution (CSE), with the groups Figs. 11, 12
// and 14 use.
std::string
fig08(Sweep &s)
{
    struct Row {
        BenchmarkProfile p;
        double coh, cse, csCompleted;
    };
    std::vector<Row> rows;
    for (const auto &p : benchmarks(s.opts)) {
        const Point pt =
            s.point(p, s.opts.systemConfig(), Mechanism::Original);
        rows.push_back({p, seedMean(pt, &RunRecord::cohCycles),
                        seedMean(pt, &RunRecord::cseCycles),
                        seedMean(pt, &RunRecord::csCompleted)});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.coh + a.cse < b.coh + b.cse;
    });

    TablePrinter a("programs sorted by total CS time (ascending)");
    a.header({"program", "suite", "group", "CS accesses (paper)",
              "CS simulated", "mean CS cycles"});
    TablePrinter b("COH dominates CSE (paper's central observation)");
    b.header({"program", "group", "COH (thread-cycles)",
              "CSE (thread-cycles)", "COH share"});
    double coh_sum = 0;
    double cse_sum = 0;
    for (const Row &row : rows) {
        const double mean_cse =
            row.csCompleted > 0 ? row.cse / row.csCompleted : 0;
        a.row({row.p.fullName,
               row.p.suite == Suite::Parsec ? "PARSEC" : "OMP2012",
               std::to_string(row.p.group), std::to_string(row.p.totalCs),
               fixed(row.csCompleted, 0), fixed(mean_cse, 1)});
        coh_sum += row.coh;
        cse_sum += row.cse;
        b.row({row.p.fullName, std::to_string(row.p.group),
               fixed(row.coh, 0), fixed(row.cse, 0),
               pct(row.coh / (row.coh + row.cse))});
    }
    b.separator();
    b.row({"ALL", "-", fixed(coh_sum, 0), fixed(cse_sum, 0),
           pct(coh_sum / (coh_sum + cse_sum))});

    return "=== Figure 8a: total CS accesses & mean cycles per CS "
           "===\n\n" +
           a.render() +
           "\n=== Figure 8b: COH vs CSE breakdown of total CS time "
           "===\n\n" +
           b.render() +
           "\nShape to hold: COH > CSE for nearly every program, and "
           "group 3 programs carry the largest totals.\n";
}

// Figure 9 -- execution timing profile of freqmine under the four
// mechanisms: the share of parallel / COH / CSE cycles and the number
// of critical sections completed in a window of up to 30,000 cycles
// of the first 8 threads, plus an ASCII timeline strip per thread.
// One run per mechanism, whatever seeds= is.

/** Strip glyph of the phase active at `cycle` on a recorded timeline. */
char
glyphAt(const std::vector<PhaseMark> &tl, Cycle cycle)
{
    const auto it = std::upper_bound(
        tl.begin(), tl.end(), cycle,
        [](Cycle c, const PhaseMark &m) { return c < m.at; });
    // Indexed by ThreadPhase: Parallel, Coh, Sleep, Cse, Done.
    return ".cz# "[std::prev(it)->phase];
}

std::string
fig09(Sweep &s)
{
    constexpr int THREADS_SHOWN = RUN_RECORD_PHASE_THREADS;

    std::vector<Point> runs;
    for (Mechanism m : ALL_MECHANISMS) {
        RunConfig rc;
        rc.profile = benchmarkByName("freq");
        rc.system = s.opts.systemConfig();
        rc.system.mechanism = m;
        rc.csScale = std::max(s.opts.csScale, 0.05);
        runs.push_back(s.point(std::move(rc), 1));
    }
    if (runs[0].empty())
        return {}; // listing pass

    // Observe 30,000 cycles after a warmup of the same length (the
    // paper profiles steady-state execution, not the cold-start
    // pileup). Both shrink to half the life of the shortest-lived
    // shown thread (its last event is Done) in any run, so every shown
    // thread is active for the whole window.
    Cycle window = 30000;
    for (const Point &pt : runs)
        for (const auto &tl : pt[0]->phases)
            window = std::min(window, tl.back().at / 2);
    const Cycle warmup = window;
    const Cycle stop = warmup + window;

    std::string out = format(
        "=== Figure 9: freqmine timing profile, first %d threads, "
        "cycles [%llu, %llu) ===\n\n",
        THREADS_SHOWN, static_cast<unsigned long long>(warmup),
        static_cast<unsigned long long>(stop));
    TablePrinter t("phase shares in the window + CS completed");
    t.header({"mechanism", "parallel", "COH", "sleep", "CSE",
              "CS completed", "vs Original"});
    double base_cs = 0;
    for (const Point &pt : runs) {
        const RunRecord &r = *pt[0];
        INPG_ASSERT(r.phases.size() == THREADS_SHOWN,
                    "Fig. 9 needs %d phase timelines", THREADS_SHOWN);
        Cycle phase_cycles[NUM_THREAD_PHASES] = {};
        int cs_entries = 0;
        for (const auto &tl : r.phases) {
            // Integrate the timeline over the window, which ends by the
            // last mark (Done).
            for (std::size_t i = 0; i + 1 < tl.size(); ++i) {
                phase_cycles[tl[i].phase] +=
                    std::clamp(tl[i + 1].at, warmup, stop) -
                    std::clamp(tl[i].at, warmup, stop);
                cs_entries += tl[i].at >= warmup && tl[i].at < stop &&
                              tl[i].phase ==
                                  static_cast<int>(ThreadPhase::Cse);
            }
        }
        const double total = static_cast<double>(window) * THREADS_SHOWN;
        if (r.mechanism == mechanismName(Mechanism::Original))
            base_cs = cs_entries;
        t.row({r.mechanism, pct(phase_cycles[0] / total),
               pct((phase_cycles[1] + phase_cycles[2]) / total),
               pct(phase_cycles[2] / total), pct(phase_cycles[3] / total),
               std::to_string(cs_entries),
               base_cs > 0
                   ? (cs_entries >= base_cs ? "+" : "-") +
                         pct(std::abs(cs_entries / base_cs - 1.0))
                   : "-"});

        // ASCII strip per thread: 100 buckets of window / 100 cycles.
        out += "--- " + r.mechanism + " ---\n";
        for (int th = 0; th < THREADS_SHOWN; ++th) {
            std::string strip;
            for (int b = 0; b < 100; ++b)
                strip += glyphAt(r.phases[static_cast<std::size_t>(th)],
                                 warmup +
                                     static_cast<Cycle>(b) * (window / 100));
            out += format("  t%d %s\n", th, strip.c_str());
        }
        out += "\n";
    }
    return out + t.render() +
           "\nLegend: '.' parallel  'c' competition  'z' sleep  '#' "
           "critical section\n"
           "Paper reference: Original 62.1/28.3/9.6%, 78 CS; OCOR "
           "69.8/19.8/10.4%, 92 CS; iNPG 73.0/17.0/10.0%, 96 CS; "
           "iNPG+OCOR 80.1/9.0/10.9%, 104 CS.\n";
}

// Figure 10 -- coherence Inv-Ack round-trip delay, Original vs iNPG
// (paper Sec. 5.2.3): on the 8x8 mesh, whatever topology= says, all 64
// threads compete for one lock hosted at the shared L2 bank of tile
// (5,6); the measurement covers the whole competition. Reports the per-core average round trip as an 8x8 grid
// (Figs. 10a/10c) and the delay histogram (10b/10d). One run per
// mechanism, whatever seeds= is.
std::string
fig10(Sweep &s)
{
    // All-64-compete microworkload (freqmine-like CS lengths), named
    // apart from freq so its records pair only with each other.
    BenchmarkProfile contended = benchmarkByName("freq");
    contended.name = "freq-compete";
    contended.avgParallelCycles = 200; // every thread always competes
    contended.numLocks = 1;
    const SystemConfig base = s.opts.systemConfig("mesh:8x8");
    const NodeId home = 8 * 6 + 5; // tile (x=5, y=6)

    std::vector<Point> runs;
    for (Mechanism m : {Mechanism::Original, Mechanism::Inpg}) {
        RunConfig rc;
        rc.profile = contended;
        rc.system = base;
        rc.system.mechanism = m;
        rc.csScale = std::max(s.opts.csScale, 0.03);
        rc.lockHome = home;
        runs.push_back(s.point(std::move(rc), 1));
    }
    if (runs[0].empty())
        return {}; // listing pass

    std::string out = format("=== Figure 10: Inv-Ack round-trip delay, "
                             "lock homed at tile (5,6) (node %d) "
                             "===\n\n",
                             home);
    for (const Point &pt : runs) {
        const RunRecord &r = *pt[0];
        const RunRtt &rtt = *r.rtt;
        const TopologySpec topo = TopologySpec::parse(r.topology);
        out += format("--- %s: per-core mean Inv-Ack round trip "
                      "(cycles) ---\n",
                      r.mechanism.c_str());
        for (int y = 0; y < topo.height; ++y) {
            out += "  ";
            for (int x = 0; x < topo.width; ++x)
                out += format("%6.1f",
                              rtt.perCoreMean[static_cast<std::size_t>(
                                  y * topo.width + x)]);
            out += "\n";
        }
        const Histogram &h = rtt.histogram;
        out += format("\n  mean %.1f  max %llu  p95 %llu  samples %llu "
                      "(early %llu, home %llu)\n",
                      h.mean(), static_cast<unsigned long long>(h.max()),
                      static_cast<unsigned long long>(h.percentile(0.95)),
                      static_cast<unsigned long long>(h.count()),
                      static_cast<unsigned long long>(rtt.earlyCount),
                      static_cast<unsigned long long>(rtt.homeCount));
        out += format("\n--- %s: round-trip histogram ---\n%s\n",
                      r.mechanism.c_str(), h.render().c_str());
    }
    return out +
           "Paper reference: Original avg 39.2 / max 97 cycles with a "
           "long tail; iNPG avg 9.5 / max 15 cycles, tail eliminated, "
           "and the dependence of the delay on the distance to the "
           "home node disappears.\n";
}

// Figures 11 and 12 -- OCOR, iNPG and iNPG+OCOR against Original on
// every program, per group and overall. Fig. 11: CS expedition, the
// COH+CSE speedup (paper: OCOR 1.45x, iNPG 1.98x, combined 2.71x avg).
// Fig. 12: ROI finish time relative to Original (paper: OCOR 87.7%,
// iNPG 80.1%, combined 75.3%; iNPG over OCOR 7.8% avg).

/** One program's value per compared mechanism. */
struct MechanismRow {
    BenchmarkProfile p;
    double v[3];
};

/** v[i] = rel(Original's seed mean, mechanism i's seed mean). */
template <typename Metric>
std::vector<MechanismRow>
mechanismRows(Sweep &s, Metric metric,
              double (*rel)(double base, double value))
{
    std::vector<MechanismRow> rows;
    for (const auto &p : benchmarks(s.opts)) {
        const SystemConfig sc = s.opts.systemConfig();
        const double base =
            seedMean(s.point(p, sc, Mechanism::Original), metric);
        MechanismRow row{p, {}};
        int i = 0;
        for (Mechanism m :
             {Mechanism::Ocor, Mechanism::Inpg, Mechanism::InpgOcor})
            row.v[i++] = rel(base, seedMean(s.point(p, sc, m), metric));
        rows.push_back(std::move(row));
    }
    return rows;
}

/**
 * Append the "Group g avg" rows between two separators (with an empty
 * last cell when `gain_column`); `all` gets the overall means.
 */
void
groupAverages(TablePrinter &t, const std::vector<MechanismRow> &rows,
              std::string (*cell)(double), bool gain_column,
              double (&all)[3])
{
    double group_sum[4][3] = {};
    int group_n[4] = {};
    for (const MechanismRow &row : rows) {
        for (int i = 0; i < 3; ++i)
            group_sum[row.p.group][i] += row.v[i];
        ++group_n[row.p.group];
    }
    t.separator();
    int n_all = 0;
    double sum_all[3] = {};
    for (int g = 1; g <= 3; ++g) {
        if (group_n[g] == 0)
            continue;
        std::vector<std::string> cells{
            "Group " + std::to_string(g) + " avg", std::to_string(g)};
        for (int i = 0; i < 3; ++i) {
            cells.push_back(cell(group_sum[g][i] / group_n[g]));
            sum_all[i] += group_sum[g][i];
        }
        if (gain_column)
            cells.push_back("");
        n_all += group_n[g];
        t.row(cells);
    }
    t.separator();
    for (int i = 0; i < 3; ++i)
        all[i] = sum_all[i] / n_all;
}

std::string
fig11(Sweep &s)
{
    TablePrinter t("per-benchmark CS expedition");
    t.header({"program", "group", "OCOR", "iNPG", "iNPG+OCOR"});
    const auto rows = mechanismRows(
        s, &RunRecord::csTotalCycles,
        [](double base, double cs) { return cs > 0 ? base / cs : 0; });
    double best[3] = {};
    std::string best_name[3];
    for (const MechanismRow &row : rows) {
        std::vector<std::string> cells{row.p.fullName,
                                       std::to_string(row.p.group)};
        for (int i = 0; i < 3; ++i) {
            cells.push_back(times(row.v[i]));
            if (row.v[i] > best[i]) {
                best[i] = row.v[i];
                best_name[i] = row.p.fullName;
            }
        }
        t.row(cells);
    }
    double all[3];
    groupAverages(t, rows, times, false, all);
    t.row({"ALL avg", "-", times(all[0]), times(all[1]), times(all[2])});

    return "=== Figure 11: critical section expedition (relative "
           "CS-time improvement over Original) ===\n\n" +
           t.render() +
           format("\nMaxima: OCOR %.2fx (%s), iNPG %.2fx (%s), "
                  "iNPG+OCOR %.2fx (%s)\n",
                  best[0], best_name[0].c_str(), best[1],
                  best_name[1].c_str(), best[2], best_name[2].c_str()) +
           format("iNPG over OCOR: %.2fx average CS expedition.\n",
                  all[1] / all[0]) +
           "Paper reference: OCOR 1.45x avg (max 1.90x, dedup); "
           "iNPG 1.98x avg (max 3.48x, nab); combined 2.71x avg "
           "(max 5.45x, nab); iNPG over OCOR 1.35x avg.\n";
}

std::string
fig12(Sweep &s)
{
    TablePrinter t("per-benchmark relative ROI finish time");
    t.header({"program", "group", "OCOR", "iNPG", "iNPG+OCOR",
              "iNPG vs OCOR"});
    const auto rows = mechanismRows(
        s, ROI, [](double base, double roi) { return roi / base; });
    double best_gain = 0;
    std::string best_name;
    for (const MechanismRow &row : rows) {
        const double gain = 1.0 - row.v[1] / row.v[0];
        t.row({row.p.fullName, std::to_string(row.p.group),
               pct(row.v[0]), pct(row.v[1]), pct(row.v[2]),
               signedReduction(gain)});
        if (gain > best_gain) {
            best_gain = gain;
            best_name = row.p.fullName;
        }
    }
    double all[3];
    groupAverages(
        t, rows, [](double x) { return pct(x); }, true, all);
    const double avg_gain = 1.0 - all[1] / all[0];
    t.row({"ALL avg", "-", pct(all[0]), pct(all[1]), pct(all[2]),
           signedReduction(avg_gain)});

    return "=== Figure 12: relative ROI finish time (Original = "
           "100%) ===\n\n" +
           t.render() +
           format("\niNPG improves ROI over OCOR by %.1f%% on average "
                  "and %.1f%% at maximum (%s).\n",
                  100.0 * avg_gain, 100.0 * best_gain,
                  best_name.c_str()) +
           "Paper reference: OCOR 87.7%, iNPG 80.1%, iNPG+OCOR "
           "75.3% overall; group trends 1 < 2 < 3; iNPG over OCOR "
           "7.8% avg / 14.7% max (bt331).\n";
}

// Figure 13 -- iNPG's ROI reduction under each locking primitive: the
// more lock-competition traffic a primitive makes, the more iNPG helps.
std::string
fig13(Sweep &s)
{
    const LockKind kinds[] = {LockKind::Tas, LockKind::Ticket,
                              LockKind::Abql, LockKind::Qsl,
                              LockKind::Mcs};
    TablePrinter t("ROI finish time with iNPG relative to Original");
    t.header({"program", "TAS", "TTL", "ABQL", "QSL", "MCS"});
    double sums[5] = {};
    const auto programs = benchmarks(s.opts);
    for (const auto &p : programs) {
        std::vector<std::string> cells{p.fullName};
        for (int i = 0; i < 5; ++i) {
            SystemConfig sc = s.opts.systemConfig();
            sc.lockKind = kinds[i];
            const double base =
                seedMean(s.point(p, sc, Mechanism::Original), ROI);
            const double rel =
                seedMean(s.point(p, sc, Mechanism::Inpg), ROI) / base;
            sums[i] += rel;
            cells.push_back(pct(rel));
        }
        t.row(cells);
    }
    t.separator();
    std::vector<std::string> avg{"AVG (reduction)"};
    for (double sum : sums)
        avg.push_back(signedReduction(
            1.0 - sum / static_cast<double>(programs.size())));
    t.row(avg);
    return "=== Figure 13: iNPG ROI reduction per locking "
           "primitive ===\n\n" +
           t.render() +
           "\nPaper reference reductions: TAS 52.8%, TTL 33.4%, "
           "ABQL 32.6%, QSL 19.9%, MCS 16.5%.\n";
}

// Figure 14 -- CS expedition with 0 / 4 / 16 / 32 / 64 big routers on
// the 8x8 mesh (paper: grows with the count but saturates; 32 big
// routers achieve nearly the benefit of 64).
std::string
fig14(Sweep &s)
{
    const int deployments[] = {0, 4, 16, 32, 64};
    // One representative program per group plus the two headline ones.
    const std::vector<std::string> programs =
        s.opts.quick ? std::vector<std::string>{"freq", "kdtree"}
                     : std::vector<std::string>{"md", "dedup", "freq",
                                                "face", "kdtree", "nab"};
    TablePrinter t("CS-time speedup over 0 big routers");
    t.header({"program", "0", "4", "16", "32", "64"});
    double avg[5] = {};
    for (const std::string &name : programs) {
        const BenchmarkProfile &p = benchmarkByName(name);
        std::vector<std::string> cells{p.fullName};
        double base_cs = 0;
        for (int i = 0; i < 5; ++i) {
            SystemConfig sc = s.opts.systemConfig();
            sc.inpg.numBigRouters = deployments[i];
            const double cs = seedMean(
                s.point(p, sc,
                        deployments[i] == 0 ? Mechanism::Original
                                            : Mechanism::Inpg),
                &RunRecord::csTotalCycles);
            if (i == 0)
                base_cs = cs;
            avg[i] += base_cs / cs;
            cells.push_back(times(base_cs / cs));
        }
        t.row(cells);
    }
    t.separator();
    std::vector<std::string> cells{"AVG"};
    for (double sum : avg)
        cells.push_back(times(sum / static_cast<double>(programs.size())));
    t.row(cells);
    return "=== Figure 14: CS expedition vs number of big routers "
           "===\n\n" +
           t.render() +
           "\nShape to hold: monotone improvement with diminishing "
           "returns; 32 big routers approach the 64-router "
           "benefit (the paper's chosen deployment).\n";
}

// Figure 15 -- iNPG's average ROI reduction vs NoC dimension and
// barrier table size (paper: 4.7% at 2x2, 19.9% at 8x8, 57.5% at
// 16x16; small tables only hurt large meshes; >16 entries add little).
std::string
fig15(Sweep &s)
{
    // The paper sweeps 2x2, 4x4, 8x8, 10x10 and 16x16.
    const std::vector<int> sides = s.opts.quick
        ? std::vector<int>{4, 8}
        : std::vector<int>{2, 4, 8, 10, 16};
    // Representative mix (one per group) -- a full 16x16 sweep over
    // all 24 programs would take hours.
    const char *programs[] = {"md", "freq", "kdtree"};

    TablePrinter t("average ROI reduction of iNPG vs Original");
    t.header({"mesh", "4 entries", "16 entries", "64 entries"});
    for (int side : sides) {
        std::vector<std::string> cells{std::to_string(side) + "x" +
                                       std::to_string(side)};
        for (std::size_t entries : {4, 16, 64}) {
            double sum = 0;
            for (const char *name : programs) {
                const BenchmarkProfile &p = benchmarkByName(name);
                SystemConfig sc = s.opts.systemConfig();
                sc.noc.meshWidth = side;
                sc.noc.meshHeight = side;
                sc.inpg.numBigRouters = side * side / 2;
                sc.inpg.barrierEntries = entries;
                sc.inpg.eiEntries = entries;
                const double base =
                    seedMean(s.point(p, sc, Mechanism::Original), ROI);
                sum += 1.0 -
                       seedMean(s.point(p, sc, Mechanism::Inpg), ROI) /
                           base;
            }
            cells.push_back(pct(sum / std::size(programs)));
        }
        t.row(cells);
    }
    return "=== Figure 15: iNPG ROI reduction vs NoC dimension x "
           "barrier table size ===\n\n" +
           t.render() +
           "\nPaper reference (16-entry column): 2x2 4.7%, 8x8 "
           "19.9%, 16x16 57.5%. Small tables only hurt on large "
           "meshes; growing past 16 entries adds little.\n";
}

// Ablations of design constants the paper fixes without a figure, each
// reporting iNPG's ROI relative to Original on one contended program:
// barrier TTL (paper default 128: too short and barriers die between
// bursts, too long and stale barriers stop uncontended acquires), the
// spin interval of the polling loops, and QSL's sleep/wakeup cost (the
// OS-path weight OCOR trades against).
std::string
ablation(Sweep &s)
{
    const BenchmarkProfile &p = benchmarkByName(
        s.opts.overrides.getString("benchmark", "freq"));
    std::string out = "=== Ablations (program '" + p.fullName +
                      "') ===\n\n";
    // One table per constant: ROI under Original and iNPG at each
    // value `set` applies.
    auto table = [&](const char *title, const char *knob,
                     std::initializer_list<Cycle> values, auto set,
                     bool show_sleeps) {
        TablePrinter t(title);
        if (show_sleeps)
            t.header({knob, "ROI Original", "sleeps", "ROI iNPG",
                      "iNPG rel."});
        else
            t.header({knob, "ROI Original", "ROI iNPG", "iNPG rel."});
        for (Cycle v : values) {
            SystemConfig sc = s.opts.systemConfig();
            set(sc, v);
            const Point base = s.point(p, sc, Mechanism::Original);
            const double base_roi = seedMean(base, ROI);
            const double inpg_roi =
                seedMean(s.point(p, sc, Mechanism::Inpg), ROI);
            std::vector<std::string> cells{std::to_string(v),
                                           fixed(base_roi, 0)};
            if (show_sleeps)
                cells.push_back(
                    fixed(seedMean(base, &RunRecord::sleeps), 0));
            cells.push_back(fixed(inpg_roi, 0));
            cells.push_back(pct(inpg_roi / base_roi));
            t.row(cells);
        }
        out += t.render() + "\n";
    };
    table("barrier TTL (cycles) -- paper default 128", "TTL",
          {16, 64, 128, 512},
          [](SystemConfig &sc, Cycle v) { sc.inpg.barrierTtl = v; },
          false);
    table("spin interval (cycles) -- default 16", "interval",
          {8, 16, 32, 64},
          [](SystemConfig &sc, Cycle v) { sc.sync.spinInterval = v; },
          false);
    table("QSL context-switch + wakeup cost (cycles each)", "cost",
          {500, 1500, 4000},
          [](SystemConfig &sc, Cycle v) {
              sc.sync.contextSwitchCost = v;
              sc.sync.wakeupCost = v;
          },
          true);
    return out;
}

/** One figure: its name on the command line and its function. */
struct Figure {
    const char *name;
    std::string (*draw)(Sweep &);
};

const Figure FIGURES[] = {
    {"table1", table1}, {"07", fig07}, {"02", fig02}, {"08", fig08},
    {"09", fig09},      {"10", fig10}, {"11", fig11}, {"12", fig12},
    {"13", fig13},      {"14", fig14}, {"15", fig15}, {"ablation", ablation},
};

int
run(int argc, char **argv)
{
    BenchOptions opts;
    std::vector<std::string> known = SystemConfig::overrideKeys();
    known.insert(known.end(),
                 {"fig", "cs_scale", "seeds", "quick", "benchmark"});
    opts.overrides.loadArgs(argc, argv, known);
    opts.csScale = opts.overrides.getDouble("cs_scale", opts.csScale);
    opts.seeds = static_cast<int>(opts.overrides.getInt("seeds", opts.seeds));
    opts.quick = opts.overrides.getBool("quick", opts.quick);
    // A bad fabric or table shape fails here, whichever figures run.
    opts.systemConfig();
    if (opts.seeds < 1) {
        std::fprintf(stderr, "bench_figures: seeds=%d must be >= 1\n",
                     opts.seeds);
        return 2;
    }
    const char *all = "table1,07,02,08,09,10,11,12,13,14,15,ablation";
    std::vector<const Figure *> selected;
    for (const std::string &name :
         split(opts.overrides.getString("fig", all), ',')) {
        const Figure *fig = nullptr;
        for (const Figure &f : FIGURES)
            fig = name == f.name ? &f : fig;
        if (!fig) {
            std::fprintf(stderr,
                         "bench_figures: unknown figure '%s' (known: %s)\n",
                         name.c_str(), all);
            return 2;
        }
        selected.push_back(fig);
    }

    // Every selected figure's distinct runs, back to back.
    Sweep sweep{opts};
    for (const Figure *fig : selected)
        fig->draw(sweep);
    const std::vector<RunConfig> &configs = sweep.configs;

    SweepOptions sweep_opts;
    std::unique_ptr<ExperimentLedger> ledger;
    if (const char *path = std::getenv("INPG_LEDGER_PATH");
        path && *path) {
        ledger = std::make_unique<ExperimentLedger>(path);
        if (!ledger->ok()) {
            std::fprintf(stderr,
                         "bench_figures: cannot open ledger '%s'\n",
                         path);
            return 2;
        }
        sweep_opts.ledger = ledger.get();
    }

    // Runs go through runSweep a chunk at a time, so only one chunk's
    // stats snapshots (about 1 MB per 8x8 run) are alive at once; the
    // records keep the metrics and sections and drop the snapshot,
    // which no renderer reads.
    constexpr std::size_t CHUNK = 64;
    for (std::size_t at = 0; at < configs.size(); at += CHUNK) {
        const std::vector<RunConfig> chunk(
            configs.begin() + at,
            configs.begin() + std::min(at + CHUNK, configs.size()));
        for (RunRecord &rec : runSweep(chunk, sweep_opts)) {
            rec.stats = JsonValue();
            sweep.records.push_back(std::move(rec));
        }
    }

    for (const Figure *fig : selected)
        std::fputs(fig->draw(sweep).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // fatal() has already printed the message; a rejected key or config
    // exits 2, as the tools do.
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 2;
    }
}
