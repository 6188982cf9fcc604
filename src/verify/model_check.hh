/**
 * @file
 * Murphi-style explicit-state model checker for the composed
 * MOESI x iNPG protocol (DESIGN.md section 13).
 *
 * The checker runs the code the simulator runs: it dispatches through
 * the declarative tables of `src/coh/protocol_tables.cc` and executes
 * each row's action with the controllers' own functions
 * (`src/coh/protocol_actions.hh`). It explores an abstract system of
 * N in {2, 3} L1 controllers, one directory and one big router
 * exchanging messages through an unordered multiset (a superset of
 * every delivery order any real fabric can produce), and checks
 * safety invariants plus deadlock absence over the full reachable
 * state space. On violation it reconstructs a minimal (BFS-shortest)
 * counterexample and prints it as a flight-recorder-style trace.
 *
 * What the checker adds to the shared actions:
 *  - reaching an undeclared or illegal (state, event) pair is itself a
 *    violation (`table-hole` / `table-illegal`);
 *  - a message may only be injected if its kind appears in the firing
 *    row's declared emits -- otherwise it is dropped (and the drop is
 *    recorded in the trace), so a mutation that deletes an emit shows
 *    up as lost-token conservation failures or deadlock, exactly like
 *    the real bug would;
 *  - end states are membership-checked against the row's declared
 *    nexts (`undeclared-next`); rows with a single declared next set
 *    the line's state in the shared action itself;
 *  - data supplied against golden memory, the LCO hooks fired along a
 *    transaction (tiling, checked at completion), SWMR, ack and EI
 *    conservation, and the early-Inv-on-dirty-owner property.
 */

#ifndef INPG_VERIFY_MODEL_CHECK_HH
#define INPG_VERIFY_MODEL_CHECK_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coh/protocol_tables.hh"

namespace inpg {

/**
 * Closed-form workloads the abstract cores run. All of them touch a
 * single lock line (one address suffices: the protocol has no
 * cross-address coupling, and the big-router barrier is per-address).
 */
enum class McScenario {
    /** Every core: demotable test-and-set, retry non-demotable on
     * failure, release on success, then one trailing load. This is the
     * paper's lock-handoff workload and exercises demotion, upgrade,
     * ownership chains and the early-Inv barrier. */
    Tas,
    /** Tas with the demotable first attempt disabled (plain GetX),
     * exercising InvalidateAndGrant / ForwardGetX paths. */
    TasNd,
    /** Tas against a lock initialised *held* (word = 1, no owner), so
     * the demote-at-home answer path (DemoteOrGrant with a set word)
     * becomes reachable. */
    TasHeld,
    /** Every core: one non-lock fetch-add then a load -- pure MOESI
     * data-value checking with no barrier interaction. */
    Counter,
    /** Core 0 runs Tas; every other core runs two loads (reader mix:
     * GetS against a line that is being locked). */
    Rw,
};

const char *mcScenarioName(McScenario s);

/** Parse a scenario name ("tas", "tas-nd", ...); nullopt on garbage. */
std::optional<McScenario> mcScenarioFromName(const std::string &name);

/** All scenarios, for drivers that sweep them. */
const std::vector<McScenario> &mcAllScenarios();

/**
 * Tables the checker interprets. Defaults to the shipped production
 * tables; the mutation harness swaps in clones rebuilt through
 * `ProtoTableBase::withRows()` with one seeded bug.
 */
struct McTables {
    const ProtoTableBase *l1 = nullptr;  // default: protocolTable(0)
    const ProtoTableBase *dir = nullptr; // default: protocolTable(1)
    const ProtoTableBase *br = nullptr;  // default: protocolTable(2)
};

struct McConfig {
    int numCores = 2; // 2..MC_MAX_CORES
    bool bigRouter = true;
    McScenario scenario = McScenario::Tas;
    /** Stop exploring after this many canonical states (0 = no cap).
     * Exceeding the cap clears `McResult::complete`. */
    std::uint64_t maxStates = 0;
    /** Do not expand states deeper than this (0 = no cap). */
    int maxDepth = 0;
    /** Symmetry reduction over interchangeable core ids. Leave on for
     * exploration; turn off when a deterministic, rename-free witness
     * is wanted (golden traces). */
    bool symmetry = true;
    /** Seeded-bug knob for the self-test: added to every directory
     * ack-count before it is sent (clamped at zero), modelling the
     * classic off-by-one in the sharer count. */
    int ackCountBias = 0;
    /** Big-router early-invalidation capacity (entries). */
    int eiCapacity = 8;
    /** Check the final lock-word value in quiesced states. */
    bool checkFinalValue = true;
};

/** One safety violation plus its counterexample. */
struct McViolation {
    /** Invariant id, e.g. "swmr", "deadlock", "ack-conservation". */
    std::string invariant;
    /** Human-readable one-liner of what went wrong. */
    std::string detail;
    /** Flight-recorder-style witness: one line per event, ending with
     * the violation banner. BFS order makes it minimal in steps. */
    std::vector<std::string> trace;

    std::string traceText() const;
};

struct McResult {
    std::uint64_t statesVisited = 0; //!< canonical states reached
    std::uint64_t transitions = 0;   //!< successor edges explored
    std::uint64_t finalStates = 0;   //!< quiesced end states
    std::uint64_t emitsDropped = 0;  //!< undeclared emits suppressed
    int maxDepth = 0;                //!< deepest state expanded
    /** Rows the exploration dispatched: bit `state * numEvents +
     * event` of entry `t` marks that (state, event) row of
     * protocolTable(t). */
    std::array<std::uint64_t, PROTO_NUM_TABLES> rowsReached{};
    /** False when maxStates/maxDepth truncated the exploration. */
    bool complete = true;
    std::optional<McViolation> violation;

    bool ok() const { return !violation.has_value(); }
};

/**
 * Explore the reachable state space of one (config, tables) pair.
 * Null table pointers in `tables` default to the production tables.
 * Returns on the first violation found (BFS order => a shortest
 * witness) or after exhausting the space / budget.
 */
McResult runModelCheck(const McConfig &cfg, const McTables &tables = {});

/**
 * One seeded table bug for the `--self-test` mutation harness: a
 * named, documented edit of a production table (or an interpreter
 * knob) together with the configuration that exposes it and the
 * invariant expected to catch it.
 */
struct McMutation {
    const char *name;
    /** What the seeded bug models, for the self-test report. */
    const char *what;
    /** Invariant id the checker must report (prefix match). */
    const char *expect;
    /** Which table the edit applies to: PROTO_TABLE_{L1,DIR,BR}, or
     * -1 for knob-only mutations (e.g. ackCountBias). */
    int table;
    McConfig config;
    /** Row edit, applied to ProtoTableBase::rows() of the target
     * table before rebuilding it with withRows(). Null for knob-only
     * mutations. */
    void (*edit)(std::vector<ProtoTransition> &rows);
};

/** Table index constants mirroring protocolTable()'s order. */
inline constexpr int PROTO_TABLE_L1 = 0;
inline constexpr int PROTO_TABLE_DIR = 1;
inline constexpr int PROTO_TABLE_BR = 2;

/** The seeded-bug catalog (>= 8 entries; see mc_mutations.cc). */
const std::vector<McMutation> &mcMutationCatalog();

/** Find a catalog entry by name (nullptr when absent). */
const McMutation *mcFindMutation(const std::string &name);

/**
 * Run the checker against one catalog entry's mutated tables.
 * Violation expected: the caller checks `result.violation` against
 * `m.expect`.
 */
McResult runMutatedModelCheck(const McMutation &m);

/** Outcome of the full self-test sweep. */
struct McSelfTestOutcome {
    int mutationsRun = 0;
    int caught = 0;
    std::vector<std::string> failures; //!< human-readable, empty = ok
    bool ok() const { return failures.empty(); }
};

/**
 * The --self-test harness: every catalog mutation must (a) be caught
 * by its expected invariant with a non-empty witness trace and (b)
 * leave the *unmutated* tables clean under the same configuration.
 */
McSelfTestOutcome runMcSelfTest(bool verbose, std::vector<std::string> *log);

} // namespace inpg

#endif // INPG_VERIFY_MODEL_CHECK_HH
