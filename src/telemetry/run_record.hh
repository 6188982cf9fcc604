/**
 * @file
 * RunRecord: the versioned, machine-readable record of one benchmark
 * run -- full provenance (commit, compiler, topology, mechanism, lock,
 * threads, seed, the knobs the figures sweep) plus the scalar metrics
 * every figure is computed from, the Inv-Ack round trips and thread
 * phase timelines Figs. 9 and 10 render, the LCO leg breakdown, the
 * timeseries summary, and the complete stats snapshot.
 *
 * Records are appended to an **experiment ledger**: a JSONL file, one
 * record per line, append-only. `inpg_sim --ledger-out=...`, the sweep
 * runner, and `run_benches.sh --ledger-out=...` all write the same
 * schema, and `tools/inpg_report` consumes it (diff / figures /
 * regress). The schema is versioned so readers can refuse records they
 * do not understand instead of mis-parsing them.
 *
 * Serialization is canonical: toJson() emits a fixed key order, so
 * serialize -> parse -> re-serialize is byte-identical (asserted in
 * tests/test_run_record.cc) and ledger lines diff cleanly.
 */

#ifndef INPG_TELEMETRY_RUN_RECORD_HH
#define INPG_TELEMETRY_RUN_RECORD_HH

#include <cstdint>
#include <cstdio>
#include <mutex> // lint:allow(threading-outside-parallel)
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "telemetry/json.hh"

namespace inpg {

/** Ledger / RunRecord schema version (bump on incompatible change). */
inline constexpr int RUN_RECORD_SCHEMA_VERSION = 2;

/** Version stamped into `--stats-json` documents. */
inline constexpr int STATS_JSON_SCHEMA_VERSION = 1;

/** Version stamped into structured hang reports. */
inline constexpr int HANG_REPORT_SCHEMA_VERSION = 1;

/** The `record` tag every ledger line carries. */
inline constexpr const char *RUN_RECORD_TAG = "inpg-run-record";

/**
 * Check a parsed document's `schema_version` against what this reader
 * understands. Returns false (with a diagnostic in *why, when given)
 * for a missing or different version -- readers must refuse such
 * documents rather than mis-parse them.
 */
bool schemaVersionCompatible(const JsonValue &doc, int expected,
                             std::string *why = nullptr);

/** Threads whose phase timeline a RunRecord keeps (paper Fig. 9). */
inline constexpr int RUN_RECORD_PHASE_THREADS = 8;

/** One transition of a recorded thread phase timeline. */
struct PhaseMark {
    std::uint64_t at = 0; ///< cycle of the transition
    int phase = 0;        ///< ThreadPhase value entered
};

/** Inv-Ack round trips of one run (paper Fig. 10). */
struct RunRtt {
    std::vector<double> perCoreMean; ///< mean round trip, core order
    std::uint64_t earlyCount = 0;    ///< round trips of early Invs
    std::uint64_t homeCount = 0;     ///< round trips of home Invs
    Histogram histogram{5, 40};      ///< CohStats::rttHistogram
};

/** One run, fully described. See the file comment for the contract. */
struct RunRecord {
    // -- provenance ----------------------------------------------------
    std::string gitSha = "unknown"; ///< INPG_GIT_SHA (run_benches.sh)
    bool gitDirty = false;          ///< INPG_GIT_DIRTY == "1"
    std::string compiler;           ///< __VERSION__ of the build

    // -- configuration -------------------------------------------------
    std::string benchmark;
    std::string mechanism; ///< mechanismName() spelling
    std::string lock;      ///< lockKindName() spelling
    std::string topology;  ///< TopologySpec::canonical() ("mesh:8x8")
    int cores = 0;
    int bigRouters = 0;
    int threads = 1; ///< host kernel threads (bit-identical results)
    std::uint64_t seed = 1;
    double csScale = 0;
    // The knobs the paper figures and ablations sweep.
    std::uint64_t barrierEntries = 0;    ///< inpg.barrierEntries
    std::uint64_t eiEntries = 0;         ///< inpg.eiEntries
    std::uint64_t barrierTtl = 0;        ///< inpg.barrierTtl
    std::uint64_t spinInterval = 0;      ///< sync.spinInterval
    std::uint64_t contextSwitchCost = 0; ///< sync.contextSwitchCost
    std::uint64_t wakeupCost = 0;        ///< sync.wakeupCost
    int numLocks = 0;                    ///< BenchmarkProfile::numLocks
    std::string lockHome = "none"; ///< RunConfig::lockHome node, or "none"

    // -- metrics (all deterministic for a given configuration) ---------
    std::uint64_t roiCycles = 0;
    std::uint64_t csCompleted = 0;
    std::uint64_t parallelCycles = 0;
    std::uint64_t cohCycles = 0;
    std::uint64_t sleepCycles = 0;
    std::uint64_t cseCycles = 0;
    std::uint64_t lockCohCycles = 0;
    double rttMean = 0;
    std::uint64_t rttMax = 0;
    std::uint64_t rttCount = 0;
    std::uint64_t earlyInvs = 0;
    std::uint64_t sleeps = 0;
    std::uint64_t wakeups = 0;

    // -- attached sections (absent when not recorded) ------------------
    std::optional<RunRtt> rtt;
    /** PhaseRecorder timelines of the first RUN_RECORD_PHASE_THREADS
     *  threads; empty when absent. */
    std::vector<std::vector<PhaseMark>> phases;
    JsonValue lco;        ///< LcoSummary::toJson()
    JsonValue timeseries; ///< stats snapshot "timeseries" summary
    JsonValue stats;      ///< full System::statsSnapshot()

    /**
     * Simulated-configuration identity used to pair records across
     * ledgers: every configuration field except `threads` and
     * `cores` (derived from the topology). `threads` is deliberately
     * excluded -- it is documented bit-identical in simulated results,
     * so a threads=4 run diffs cleanly against its threads=1 twin.
     */
    std::string configKey() const;

    /** Total CS time (paper Fig. 11's unit): COH + CSE. */
    std::uint64_t csTotalCycles() const { return cohCycles + cseCycles; }

    /** Fraction of (cores x ROI) thread-time spent in `phase_cycles`. */
    double
    phaseFraction(std::uint64_t phase_cycles) const
    {
        const double denom = static_cast<double>(roiCycles) *
                             static_cast<double>(cores);
        return denom > 0 ? static_cast<double>(phase_cycles) / denom : 0;
    }

    /** Fixed-key-order serialization; see the canonical contract. */
    JsonValue toJson() const;

    /**
     * Rebuild a record from a parsed ledger line. Refuses documents
     * whose tag or schema_version does not match (returns a default
     * record and sets *err when given).
     */
    static RunRecord fromJson(const JsonValue &doc,
                              std::string *err = nullptr);
};

/** Compiler identification used for RunRecord provenance. */
std::string runRecordCompiler();

/**
 * Append-only JSONL ledger writer. One fwrite per record under a
 * mutex, flushed immediately, so concurrent appends from sweep worker
 * threads never tear lines (asserted in tests/test_run_record.cc).
 */
class ExperimentLedger
{
  public:
    /** Open `path` for appending; ok() reports failure. */
    explicit ExperimentLedger(std::string path);

    ~ExperimentLedger();

    ExperimentLedger(const ExperimentLedger &) = delete;
    ExperimentLedger &operator=(const ExperimentLedger &) = delete;

    bool ok() const { return file != nullptr; }

    const std::string &path() const { return filePath; }

    /** Records appended by this writer. */
    std::uint64_t appended() const { return count; }

    /** Serialize and append one record (thread-safe). */
    void append(const RunRecord &rec);

    /**
     * Parse every line of a ledger file. Returns the records in file
     * order; on any unreadable or incompatible line, returns what was
     * parsed so far and sets *err with the line number.
     */
    static std::vector<RunRecord> load(const std::string &path,
                                       std::string *err = nullptr);

  private:
    std::string filePath;
    std::FILE *file = nullptr;
    std::uint64_t count = 0;
    std::mutex mu; // lint:allow(threading-outside-parallel)
};

} // namespace inpg

#endif // INPG_TELEMETRY_RUN_RECORD_HH
