/**
 * @file
 * Explicit-state model checker over the production protocol tables.
 * See model_check.hh for the model and DESIGN.md section 13 for the
 * state encoding, canonicalization and invariant catalog.
 *
 * Structure:
 *   1. abstract state (McMsg / McCore / McState) + encoding; a core,
 *      the directory line and the big router hold the shared line
 *      structs of coh/protocol_actions.hh
 *   2. scenario programs (what each abstract core runs)
 *   3. the interpreter (Interp): one BFS step = one atomic handler
 *      cascade. It classifies, looks the row up, runs the row's shared
 *      action (l1Act / dirAct / brAct, the code the controllers run)
 *      and checks what the action did: emits against the row,
 *      supplied values against golden memory, end states against the
 *      row's nexts, LCO hooks at completion
 *   4. global invariants checked after every step
 *   5. canonicalization (core-id symmetry) + BFS + witness replay
 */

#include "verify/model_check.hh"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <unordered_set>

#include "coh/protocol_actions.hh"
#include "common/logging.hh"

namespace inpg {

namespace {

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

int
popcount8(unsigned v)
{
    int n = 0;
    for (; v; v &= v - 1)
        ++n;
    return n;
}

// ---------------------------------------------------------------------
// Abstract state
// ---------------------------------------------------------------------

constexpr int MC_MAX_CORES = 3;
constexpr int MC_MAX_MSGS = 24;
constexpr int MC_MAX_DEFER = 4;

/** Non-core destinations of a message. */
constexpr int MC_DIR = PROTO_HOME;
constexpr int MC_BR = -3;

/** Message flag bits (packed CoherenceMsg booleans). */
enum : unsigned {
    MF_LOCK = 1u << 0,
    MF_DEMOTABLE = 1u << 1,
    MF_DEMOTED = 1u << 2,
    MF_ATOMIC = 1u << 3,
    MF_EARLY_INV = 1u << 4,
    MF_FROM_BR = 1u << 5,
    MF_OWNER_UPGRADE = 1u << 6,
};

/** One in-flight coherence message over the single lock line. */
struct McMsg {
    std::uint8_t kind = 0;      // CohMsgKind
    std::int8_t dst = 0;        // core id, MC_DIR or MC_BR
    std::int8_t requester = -1; // core id
    std::int8_t collector = -1; // core id or MC_BR (ack target)
    std::uint8_t value = 0;
    std::int8_t ackCount = 0; // -1 = owner-supplied DataExcl
    std::uint8_t epoch = 0;
    std::uint8_t flags = 0;
};

/** The abstract message the shared actions read (line address 0). */
CoherenceMsg
toCoh(const McMsg &m)
{
    CoherenceMsg c;
    c.kind = static_cast<CohMsgKind>(m.kind);
    c.addr = 0;
    c.requester = m.requester;
    c.collector = m.collector;
    c.value = m.value;
    c.ackCount = m.ackCount;
    c.epoch = m.epoch;
    c.isLock = m.flags & MF_LOCK;
    c.demotable = m.flags & MF_DEMOTABLE;
    c.demoted = m.flags & MF_DEMOTED;
    c.isAtomicOp = m.flags & MF_ATOMIC;
    c.earlyInvalidated = m.flags & MF_EARLY_INV;
    c.fromBigRouter = m.flags & MF_FROM_BR;
    c.ownerUpgrade = m.flags & MF_OWNER_UPGRADE;
    return c;
}

/** Pack a message a shared action sent. */
McMsg
toMc(const CoherenceMsg &c, int dst)
{
    McMsg m;
    m.kind = static_cast<std::uint8_t>(c.kind);
    m.dst = static_cast<std::int8_t>(dst);
    m.requester = static_cast<std::int8_t>(c.requester);
    m.collector = static_cast<std::int8_t>(c.collector);
    m.value = static_cast<std::uint8_t>(c.value);
    m.ackCount = static_cast<std::int8_t>(c.ackCount);
    m.epoch = static_cast<std::uint8_t>(c.epoch);
    m.flags = static_cast<std::uint8_t>(
        (c.isLock ? MF_LOCK : 0u) | (c.demotable ? MF_DEMOTABLE : 0u) |
        (c.demoted ? MF_DEMOTED : 0u) | (c.isAtomicOp ? MF_ATOMIC : 0u) |
        (c.earlyInvalidated ? MF_EARLY_INV : 0u) |
        (c.fromBigRouter ? MF_FROM_BR : 0u) |
        (c.ownerUpgrade ? MF_OWNER_UPGRADE : 0u));
    return m;
}

std::uint64_t
encodeMsg(const McMsg &m)
{
    return (static_cast<std::uint64_t>(m.kind) << 56) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(m.dst))
            << 48) |
           (static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(m.requester))
            << 40) |
           (static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(m.collector))
            << 32) |
           (static_cast<std::uint64_t>(m.value) << 24) |
           (static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(m.ackCount))
            << 16) |
           (static_cast<std::uint64_t>(m.epoch) << 8) |
           static_cast<std::uint64_t>(m.flags);
}

/** Abstract core operations (a subset of OpRecord's space). */
enum McOpKind : std::uint8_t {
    OP_LOAD = 0,
    OP_STORE = 1,
    OP_SWAP = 2,
    OP_FETCH_ADD = 3,
};

const char *
mcOpName(int k)
{
    static const char *const names[] = {"load", "store", "swap",
                                        "fetch-add"};
    return k >= 0 && k < 4 ? names[k] : "?";
}

/** The abstract operation a transaction performs. */
int
mcOpOf(const L1Txn &t)
{
    switch (t.kind) {
      case OpRecord::Kind::Load:
        return OP_LOAD;
      case OpRecord::Kind::Store:
        return OP_STORE;
      case OpRecord::Kind::Atomic:
        break;
    }
    return t.op == AtomicOp::FetchAdd ? OP_FETCH_ADD : OP_SWAP;
}

/** The checker's core set: a bitmask with the std::set calls the
 * shared directory actions make. */
class CoreMask
{
  public:
    class iterator
    {
      public:
        explicit iterator(unsigned rest) : bits(rest) {}
        CoreId operator*() const { return __builtin_ctz(bits); }
        iterator &
        operator++()
        {
            bits &= bits - 1;
            return *this;
        }
        bool operator!=(const iterator &o) const { return bits != o.bits; }

      private:
        unsigned bits;
    };

    void insert(CoreId c) { bits = static_cast<std::uint8_t>(bits | 1u << c); }
    std::size_t
    erase(CoreId c)
    {
        const std::size_t had = count(c);
        if (had)
            bits = static_cast<std::uint8_t>(bits & ~(1u << c));
        return had;
    }
    std::size_t count(CoreId c) const { return c >= 0 && (bits >> c & 1u); }
    bool empty() const { return bits == 0; }
    std::size_t size() const { return static_cast<std::size_t>(popcount8(bits)); }
    void clear() { bits = 0; }
    iterator begin() const { return iterator(bits); }
    iterator end() const { return iterator(0); }

    std::uint8_t bits = 0;
};

/** One abstract core: the shared L1 line state plus its program. */
struct McCore {
    L1Line line;
    L1Txn txn;
    std::vector<DeferredFwd> deferred;
    std::uint8_t pc = 0;    // program counter
    std::uint8_t hooks = 0; // LCO hook bits fired this transaction
};

/**
 * The abstract big router's one barrier and its EI list, with the
 * calls brAct makes. The abstract table never fills; the EI list holds
 * `capacity` entries.
 */
struct McBr {
    bool barrier = false;
    CoreMask eis;
    int capacity = 0;

    bool
    addEi(CoreId c)
    {
        if (!barrier || eis.count(c) ||
            static_cast<int>(eis.size()) >= capacity)
            return false;
        eis.insert(c);
        return true;
    }
    bool
    createBarrier()
    {
        barrier = true;
        return true;
    }
    bool completeEi(CoreId c) { return eis.erase(c) != 0; }
    void dropBarrier() { barrier = false; }
};

struct McState {
    std::array<McCore, MC_MAX_CORES> cores{};
    DirLine<CoreMask> dir;
    std::uint64_t epoch = 0; // the directory's transaction counter
    McBr br;
    std::uint8_t golden = 0; // golden-memory value of the lock word
    std::uint8_t nMsgs = 0;
    std::array<McMsg, MC_MAX_MSGS> msgs{};
};

void
sortMsgs(McState &st)
{
    std::sort(st.msgs.begin(), st.msgs.begin() + st.nMsgs,
              [](const McMsg &a, const McMsg &b) {
                  return encodeMsg(a) < encodeMsg(b);
              });
}

/** A renaming of core ids: core c becomes core perm[c]. */
using CorePerm = std::array<std::int8_t, MC_MAX_CORES>;

/**
 * Byte-serialize a state with its core ids renamed by `perm`: cores
 * listed in renamed order, ids and masks renamed, and the message
 * multiset re-sorted.
 */
std::string
encodeState(const McState &st, int num_cores, const CorePerm &perm)
{
    std::string out;
    out.reserve(128);
    auto b = [&out](long long v) {
        out.push_back(static_cast<char>(static_cast<std::uint8_t>(v)));
    };
    auto id = [&perm](int c) { return c >= 0 ? perm[c] : c; };
    auto mask = [&perm](const CoreMask &m) {
        CoreMask renamed;
        for (CoreId c : m)
            renamed.insert(perm[c]);
        return renamed.bits;
    };
    CorePerm from{};
    for (int c = 0; c < num_cores; ++c)
        from[perm[c]] = static_cast<std::int8_t>(c);
    for (int n = 0; n < num_cores; ++n) {
        const McCore &k = st.cores[from[n]];
        b(static_cast<int>(k.line.state));
        b(static_cast<long long>(k.line.value));
        b(id(k.line.forwardedTo));
        b(k.pc);
        b(k.hooks);
        b(k.txn.active);
        if (k.txn.active) {
            const L1Txn &p = k.txn;
            b(mcOpOf(p));
            b(static_cast<long long>(p.operandA));
            b((p.isLock << 0) | (p.exclusive << 1) | (p.demotable << 2) |
              (p.demoted << 3) | (p.hasData << 5) | (p.hasAckInfo << 6) |
              (p.invWhileFilling << 7));
            b(p.epochKnown);
            b(static_cast<long long>(p.data));
            b(p.ackCount);
            b(p.acksReceived);
            b(static_cast<long long>(p.myEpoch));
        }
        b(static_cast<long long>(k.deferred.size()));
        for (const DeferredFwd &d : k.deferred) {
            b(static_cast<int>(d.msg.kind));
            b(id(d.msg.requester));
            b(static_cast<long long>(d.msg.epoch));
            b(d.msg.isLock | d.msg.demoted << 1);
            b(static_cast<int>(d.arrival));
        }
    }
    b(id(st.dir.owner));
    b(mask(st.dir.sharers));
    b(static_cast<long long>(st.dir.value));
    b(static_cast<long long>(st.epoch));
    b(mask(st.dir.eiPending));
    b(st.br.barrier);
    b(mask(st.br.eis));
    b(st.golden);
    b(st.nMsgs);
    std::array<std::uint64_t, MC_MAX_MSGS> msgs{};
    for (int i = 0; i < st.nMsgs; ++i) {
        McMsg m = st.msgs[i];
        m.dst = static_cast<std::int8_t>(id(m.dst));
        m.requester = static_cast<std::int8_t>(id(m.requester));
        m.collector = static_cast<std::int8_t>(id(m.collector));
        msgs[i] = encodeMsg(m);
    }
    std::sort(msgs.begin(), msgs.begin() + st.nMsgs);
    for (int i = 0; i < st.nMsgs; ++i)
        for (int sh = 56; sh >= 0; sh -= 8)
            b(static_cast<long long>(msgs[i] >> sh));
    return out;
}

// ---------------------------------------------------------------------
// Scenario programs
// ---------------------------------------------------------------------

bool
coreRunsTas(McScenario s, int core)
{
    switch (s) {
      case McScenario::Tas:
      case McScenario::TasNd:
      case McScenario::TasHeld:
        return true;
      case McScenario::Counter:
        return false;
      case McScenario::Rw:
        return core == 0;
    }
    return false;
}

int
programLength(McScenario s, int core)
{
    if (coreRunsTas(s, core))
        return 4; // swap, retry-swap, release, trailing load
    return 2;     // fetch-add + load (Counter) or two loads (Rw)
}

bool
programDone(McScenario s, int core, int pc)
{
    return pc >= programLength(s, core);
}

/** The transaction a program instruction issues (line address 0). */
L1Txn
mcTxn(int kind, std::uint8_t operand, bool is_lock, bool demotable)
{
    L1Txn t;
    t.active = true;
    t.addr = 0;
    t.kind = kind == OP_LOAD    ? OpRecord::Kind::Load
             : kind == OP_STORE ? OpRecord::Kind::Store
                                : OpRecord::Kind::Atomic;
    t.op = kind == OP_FETCH_ADD ? AtomicOp::FetchAdd : AtomicOp::Swap;
    t.operandA = operand;
    t.isLock = is_lock;
    t.demotable = demotable;
    return t;
}

/** The instruction at (scenario, core, pc); pc must not be done. */
L1Txn
programOp(McScenario s, int core, int pc)
{
    if (coreRunsTas(s, core)) {
        switch (pc) {
          case 0:
            return mcTxn(OP_SWAP, 1, true,
                         s == McScenario::Tas || s == McScenario::TasHeld ||
                             s == McScenario::Rw);
          case 1:
            return mcTxn(OP_SWAP, 1, true, false);
          case 2:
            return mcTxn(OP_STORE, 0, true, false);
          default:
            return mcTxn(OP_LOAD, 0, false, false);
        }
    }
    if (s == McScenario::Counter && pc == 0)
        return mcTxn(OP_FETCH_ADD, 1, false, false);
    return mcTxn(OP_LOAD, 0, false, false); // Counter pc1 / Rw loads
}

/** Advance a core's pc after an op completes. */
int
programNext(McScenario s, int core, int pc, std::uint8_t observed,
            bool demoted)
{
    if (coreRunsTas(s, core)) {
        const bool acquired = observed == 0 && !demoted;
        switch (pc) {
          case 0:
            return acquired ? 2 : 1;
          case 1:
            return acquired ? 2 : 3; // give up after the second miss
          default:
            return pc + 1;
        }
    }
    return pc + 1;
}

/** Value the lock word must hold once every program quiesced. */
std::uint8_t
expectedFinalValue(const McConfig &cfg)
{
    switch (cfg.scenario) {
      case McScenario::Counter:
        return static_cast<std::uint8_t>(cfg.numCores);
      case McScenario::TasHeld:
        return 1; // held at init, never released
      default:
        return 0; // every successful acquire is released
    }
}

std::uint8_t
initialValue(const McConfig &cfg)
{
    return cfg.scenario == McScenario::TasHeld ? 1 : 0;
}

// ---------------------------------------------------------------------
// LCO hooks
// ---------------------------------------------------------------------

/** LCO hook names, bit i of a hook mask naming hookNames[i]. */
const char *const hookNames[] = {
    "opIssued",       "requestSent",   "dirArrived",   "dirServed",
    "responseArrived", "invAckArrived", "earlyInvSeen", "opCompleted",
};

enum : unsigned {
    HK_OP_ISSUED = 1u << 0,
    HK_REQUEST_SENT = 1u << 1,
    HK_DIR_ARRIVED = 1u << 2,
    HK_DIR_SERVED = 1u << 3,
    HK_RESPONSE_ARRIVED = 1u << 4,
    HK_INV_ACK_ARRIVED = 1u << 5,
    HK_OP_COMPLETED = 1u << 7,
};

unsigned
rowHookMask(const ProtoTransition &t)
{
    unsigned m = 0;
    for (const char *h : t.lcoHooks)
        for (unsigned i = 0; i < std::size(hookNames); ++i)
            if (std::strcmp(h, hookNames[i]) == 0)
                m |= 1u << i;
    return m;
}

bool
declares(const ProtoTransition &t, int next)
{
    return std::find(t.nexts.begin(), t.nexts.end(), next) != t.nexts.end();
}

unsigned
rowEmitMask(const ProtoTransition &t)
{
    unsigned m = 0;
    for (const ProtoEmit &e : t.emits)
        m |= 1u << static_cast<int>(e.kind);
    return m;
}

// ---------------------------------------------------------------------
// Steps
// ---------------------------------------------------------------------

enum McStepKind : std::uint8_t {
    STEP_ISSUE = 0,
    STEP_DELIVER = 1,
    STEP_TTL = 2,
};

struct McStep {
    std::uint8_t kind = STEP_ISSUE;
    std::int8_t core = 0;   // STEP_ISSUE only
    std::uint64_t msg = 0;  // STEP_DELIVER only (encoded message)
};

std::string
describeDst(int dst)
{
    return dst == MC_DIR  ? "dir"
           : dst == MC_BR ? "big-router"
                          : format("core %d", dst);
}

std::string describeMsg(const McMsg &m);

// ---------------------------------------------------------------------
// Table interpreter
// ---------------------------------------------------------------------

struct IViol {
    std::string invariant;
    std::string detail;
};

/** Counters and outbox the shared actions write into. The checker
 * reads the outbox and never looks at the counts. */
struct McScratch {
    L1Stats l1;
    DirStats dir;
    PacketGenStats gen;
    ProtoOutbox out;
};

/**
 * Applies one BFS step to a state. Classification, table lookup and
 * the protocol invariants are the checker's; the row actions are the
 * controllers' own (coh/protocol_actions.hh), run on the abstract
 * state. Reaching an undeclared or illegal pair, emitting an
 * undeclared message kind (dropped + counted), a fault the action
 * reports, or ending in a state outside the row's declared nexts is a
 * violation.
 */
class Interp
{
  public:
    Interp(const McConfig &config, const ProtoTableBase &l1_table,
           const ProtoTableBase &dir_table, const ProtoTableBase &br_table,
           McState &state, std::vector<std::string> *trace_out,
           McResult *result, McScratch &sinks)
        : cfg(config), l1(l1_table), dir(dir_table), br(br_table),
          st(state), trace(trace_out), res(result), scratch(sinks)
    {
    }

    std::optional<IViol> viol;

    /** Apply one step; false when a violation fired. */
    bool
    apply(const McStep &step)
    {
        switch (step.kind) {
          case STEP_ISSUE:
            note("step: core %d issues %s", step.core,
                 describeOp(step.core).c_str());
            issue(step.core);
            break;
          case STEP_DELIVER: {
            int idx = -1;
            for (int i = 0; i < st.nMsgs; ++i)
                if (encodeMsg(st.msgs[i]) == step.msg) {
                    idx = i;
                    break;
                }
            INPG_ASSERT(idx >= 0, "model checker: stale deliver step");
            McMsg m = st.msgs[idx];
            st.msgs[idx] = st.msgs[st.nMsgs - 1];
            --st.nMsgs;
            note("step: deliver %s -> %s", describeMsg(m).c_str(),
                 describeDst(m.dst).c_str());
            if (m.dst == MC_BR)
                deliverBigRouter(m);
            else if (m.dst == MC_DIR)
                deliverDirectory(m);
            else
                deliverL1(m.dst, m);
            break;
          }
          case STEP_TTL:
            note("step: big-router TTL expires");
            ttlExpire();
            break;
        }
        sortMsgs(st);
        return !viol.has_value();
    }

  private:
    const McConfig &cfg;
    const ProtoTableBase &l1;
    const ProtoTableBase &dir;
    const ProtoTableBase &br;
    McState &st;
    std::vector<std::string> *trace;
    McResult *res;
    McScratch &scratch;

    // -- plumbing ------------------------------------------------------

    void
    note(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        if (!trace)
            return;
        va_list ap;
        va_start(ap, fmt);
        trace->push_back(vformat(fmt, ap));
        va_end(ap);
    }

    void
    fail(const char *invariant, std::string detail)
    {
        if (!viol)
            viol = IViol{invariant, std::move(detail)};
    }

    /** Report a fault the shared action raised; true when it did. */
    bool
    faulted()
    {
        if (scratch.out.fault)
            fail(scratch.out.fault, scratch.out.faultDetail);
        return viol.has_value();
    }

    std::string
    describeOp(int core) const
    {
        const L1Txn op = programOp(cfg.scenario, core, st.cores[core].pc);
        std::string s = format("%s(operand=%d", mcOpName(mcOpOf(op)),
                              static_cast<int>(op.operandA));
        if (op.isLock)
            s += ", lock";
        if (op.demotable)
            s += ", demotable";
        s += ")";
        return s;
    }

    /** Table lookup with hole/illegal violations; nullptr on failure. */
    const ProtoTransition *
    row(const ProtoTableBase &t, int state, int event)
    {
        const ProtoTransition *tr = t.find(state, event);
        if (!tr) {
            fail("table-hole",
                 format("table %s reached undeclared pair (%s, %s)",
                       t.name(), t.stateName(state), t.eventName(event)));
            return nullptr;
        }
        if (!tr->legal()) {
            fail("table-illegal",
                 format("table %s reached illegal pair (%s, %s): %s",
                       t.name(), t.stateName(state), t.eventName(event),
                       tr->note ? tr->note : "declared impossible"));
            return nullptr;
        }
        const int table = &t == &l1 ? PROTO_TABLE_L1
                          : &t == &dir ? PROTO_TABLE_DIR
                                       : PROTO_TABLE_BR;
        res->rowsReached[table] |= 1ull << (state * t.numEvents() + event);
        note("  dispatch %s: (%s, %s) -> action %d", t.name(),
             t.stateName(state), t.eventName(event), tr->action);
        return tr;
    }

    /**
     * Inject a message if its kind is declared in the firing row's
     * emits; otherwise drop it (trace + counter), which is exactly what
     * a dropped-emit table bug does to the real system.
     */
    void
    sendChecked(const ProtoTransition *attributed, McMsg m)
    {
        if (attributed &&
            !(rowEmitMask(*attributed) &
              (1u << static_cast<int>(m.kind)))) {
            ++res->emitsDropped;
            note("  drop %s (kind not declared in row emits)",
                 describeMsg(m).c_str());
            return;
        }
        if (st.nMsgs >= MC_MAX_MSGS) {
            fail("state-overflow",
                 format("more than %d in-flight messages", MC_MAX_MSGS));
            return;
        }
        note("  send %s -> %s", describeMsg(m).c_str(),
             describeDst(m.dst).c_str());
        st.msgs[st.nMsgs++] = m;
    }

    /** Check golden-memory freshness of every created data response. */
    void
    checkSuppliedValue(const McMsg &m, const char *who)
    {
        if (m.value != st.golden)
            fail("supplied-stale-data",
                 format("%s supplied %s but golden memory holds %d", who,
                       describeMsg(m).c_str(), st.golden));
    }

    /** Next-state conformance: `state` must be one of the row's nexts
     * (the action itself checks the forwards it served from deferral
     * against their arrival rows). */
    void
    conform(int core, const ProtoTransition &tr, L1State state)
    {
        if (viol || declares(tr, static_cast<int>(state)))
            return;
        fail("undeclared-next",
             format("core %d ended in %s after l1 row (%s, %s)", core,
                    l1StateName(state), l1.stateName(tr.state),
                    l1.eventName(tr.event)));
    }

    void
    fireHooks(int core, const ProtoTransition *tr)
    {
        if (tr)
            st.cores[core].hooks |=
                static_cast<std::uint8_t>(rowHookMask(*tr));
    }

    // -- core issue and message delivery ---------------------------------

    void
    issue(int core)
    {
        McCore &k = st.cores[core];
        const L1Txn op = programOp(cfg.scenario, core, k.pc);
        const int ev = op.kind == OpRecord::Kind::Load
                           ? static_cast<int>(L1Event::CoreLoad)
                           : static_cast<int>(L1Event::CoreWrite);
        const ProtoTransition *tr =
            row(l1, static_cast<int>(k.line.state), ev);
        if (!tr)
            return;
        k.hooks = 0; // new transaction: fresh hook accounting
        fireHooks(core, tr);
        k.txn = op;
        runL1(core, *tr, nullptr);
    }

    // -- big router --------------------------------------------------------

    int
    brState() const
    {
        if (!st.br.barrier)
            return static_cast<int>(BrState::NoBarrier);
        return static_cast<int>(st.br.eis.empty() ? BrState::BarrierIdle
                                                  : BrState::BarrierArmed);
    }

    /** Run the big router's row for `ev` on `msg` and send what it
     * emits; false when a violation fired. */
    bool
    runBigRouter(BrEvent ev, CoherenceMsg &msg)
    {
        const ProtoTransition *tr =
            row(br, brState(), static_cast<int>(ev));
        if (!tr)
            return false;
        const CoreMask eis = st.br.eis;
        scratch.out.clear();
        brAct(*tr, st.br, &msg, MC_BR, 0, scratch.gen, scratch.out);
        if (faulted())
            return false;
        if (st.br.eis.bits != eis.bits)
            note("  ei-%s core %d",
                 st.br.eis.count(msg.requester) ? "open" : "close",
                 msg.requester);
        for (const ProtoSend &e : scratch.out.sends)
            sendChecked(e.row, toMc(e.msg, e.dst));
        return !viol;
    }

    void
    deliverBigRouter(const McMsg &m)
    {
        CoherenceMsg msg = toCoh(m);
        const bool lockAtomic = msg.kind == CohMsgKind::GetX &&
                                msg.isLock && msg.isAtomicOp;
        if (msg.kind == CohMsgKind::GetX) {
            // Arrival (RC stage) may stop the request; the transfer (ST
            // stage) installs or refreshes the barrier; the request
            // then continues to the home node.
            if (lockAtomic && !msg.earlyInvalidated &&
                !runBigRouter(BrEvent::LockGetXArrival, msg))
                return;
            if (lockAtomic && !runBigRouter(BrEvent::LockGetXTransfer, msg))
                return;
            sendChecked(nullptr, toMc(msg, MC_DIR));
        } else if (msg.kind == CohMsgKind::InvAck && msg.fromBigRouter) {
            runBigRouter(BrEvent::EarlyInvAck, msg);
        } else {
            fail("misrouted", format("big router cannot process %s",
                                     describeMsg(m).c_str()));
        }
    }

    void
    ttlExpire()
    {
        const ProtoTransition *tr =
            row(br, brState(), static_cast<int>(BrEvent::TtlExpire));
        if (tr && !brExpire(*tr, st.br))
            fail("bad-action", format("br ttl action %d", tr->action));
    }

    // -- directory ---------------------------------------------------------

    void
    deliverDirectory(const McMsg &m)
    {
        const CoherenceMsg req = toCoh(m);
        const int ev = dirEventOf(req);
        if (ev < 0) {
            fail("misrouted", format("directory cannot process %s",
                                     describeMsg(m).c_str()));
            return;
        }
        const int preState =
            static_cast<int>(dirStateOf(st.dir, m.requester));
        const ProtoTransition *tr = row(dir, preState, ev);
        if (!tr)
            return;
        fireHooks(m.requester, tr);

        const bool guarded = st.dir.eiPending.count(m.requester);
        scratch.out.clear();
        dirAct(*tr, st.dir, st.epoch, req, 0, scratch.dir, scratch.out);
        if (faulted())
            return;
        for (const ProtoSend &e : scratch.out.sends) {
            McMsg d = toMc(e.msg, e.dst);
            // The seeded off-by-one of the self-test, applied to what
            // the home announces (clamped at zero).
            if (e.msg.kind == CohMsgKind::DataExcl ||
                e.msg.kind == CohMsgKind::AckCount)
                d.ackCount = static_cast<std::int8_t>(
                    std::max(0, e.msg.ackCount + cfg.ackCountBias));
            if (e.msg.kind == CohMsgKind::Data ||
                e.msg.kind == CohMsgKind::DataExcl)
                checkSuppliedValue(d, "home");
            sendChecked(e.row, d);
            if (viol)
                return;
        }
        if (ev == static_cast<int>(DirEvent::EarlyInvAck))
            note(guarded ? "home trims sharer %d"
                         : "home ignores stale early ack from core %d",
                 m.requester);
        else if (m.flags & MF_EARLY_INV)
            note("home %s trim guard for core %d",
                 st.dir.eiPending.count(m.requester) ? "arms" : "disarms",
                 m.requester);
        // Derived-state conformance against the same requester.
        const int postState =
            static_cast<int>(dirStateOf(st.dir, m.requester));
        if (!declares(*tr, postState))
            fail("undeclared-next",
                 format("directory ended in %s after row (%s, %s)",
                       dir.stateName(postState), dir.stateName(preState),
                       dir.eventName(ev)));
    }

    // -- L1 -----------------------------------------------------------------

    void
    deliverL1(int core, const McMsg &m)
    {
        const ProtoTransition *tr = row(
            l1, static_cast<int>(st.cores[core].line.state),
            static_cast<int>(
                l1EventForMsgKind(static_cast<CohMsgKind>(m.kind))));
        if (!tr)
            return;
        fireHooks(core, tr);
        runL1(core, *tr, &m);
    }

    /**
     * Run an L1 row (`m` null for a core event) and check what the
     * action did: the early-Inv safety property, the deferral bound,
     * then its sends and its completion in the order they happened.
     */
    void
    runL1(int core, const ProtoTransition &tr, const McMsg *m)
    {
        McCore &k = st.cores[core];
        const L1State pre = k.line.state;
        const std::uint64_t preValue = k.line.value;
        const std::size_t deferredBefore = k.deferred.size();
        const CoherenceMsg msg = m ? toCoh(*m) : CoherenceMsg{};
        ProtoOutbox &out = scratch.out;
        out.clear();
        l1Act(l1, tr, L1LineState{core, k.line, k.txn, k.deferred},
              m ? &msg : nullptr, scratch.l1, out);
        if (faulted())
            return;

        // Paper safety property: an early (big-router) invalidation
        // must never take the line away from an owner whose dirty copy
        // IS the lock word -- the shipped table acks stale Invs on
        // M/E/O without touching the line.
        if (m && msg.kind == CohMsgKind::Inv && msg.fromBigRouter &&
            (pre == L1State::M || pre == L1State::O) && preValue != 0 &&
            k.line.state == L1State::I) {
            fail("early-inv-dirty-owner",
                 format("early Inv invalidated core %d holding the "
                       "dirty lock word (%s -> I, value=%d)",
                       core, l1StateName(pre),
                       static_cast<int>(preValue)));
            return;
        }
        if (k.deferred.size() > deferredBefore) {
            note("  defer %s (transaction pending, arrival state %s)",
                 describeMsg(*m).c_str(), l1StateName(pre));
            if (k.deferred.size() > MC_MAX_DEFER) {
                fail("defer-overflow",
                     format("core %d deferred more than %d forwards", core,
                           MC_MAX_DEFER));
                return;
            }
        }
        for (std::size_t i = 0; i <= out.sends.size() && !viol; ++i) {
            if (i == out.completedAt)
                complete(core, tr, m == nullptr);
            if (i < out.sends.size() && !viol)
                l1Send(core, tr, out.sends[i]);
        }
    }

    /** The forward a deferred-service send answers, for the trace. */
    static McMsg
    servedForward(McMsg m)
    {
        if (m.kind == static_cast<int>(CohMsgKind::Data) ||
            m.kind == static_cast<int>(CohMsgKind::DataExcl)) {
            m.kind = static_cast<std::uint8_t>(
                m.kind == static_cast<int>(CohMsgKind::Data)
                    ? CohMsgKind::FwdGetS
                    : CohMsgKind::FwdGetX);
            m.value = 0;
            m.ackCount = 0;
        }
        return m;
    }

    /** Send what row `tr` emitted, or a forward it served from
     * deferral (charged to that forward's arrival row). */
    void
    l1Send(int core, const ProtoTransition &tr, const ProtoSend &e)
    {
        McMsg m = toMc(e.msg, e.dst);
        // Lock-atomic GetX traverses the big router (iNPG); everything
        // else goes straight to the home.
        if (cfg.bigRouter && e.msg.kind == CohMsgKind::GetX &&
            e.msg.isLock && e.msg.isAtomicOp)
            m.dst = MC_BR;
        const bool deferred = e.row != &tr;
        if (deferred)
            note("  serve deferred %s (arrival state %s)",
                 describeMsg(servedForward(m)).c_str(),
                 e.row ? l1.stateName(e.row->state) : "?");
        // An L1 only supplies data as the owner serving a forward.
        if (e.msg.kind == CohMsgKind::Data ||
            e.msg.kind == CohMsgKind::DataExcl)
            checkSuppliedValue(
                m, format("core %d (owner serve %s)", core,
                         e.msg.kind == CohMsgKind::Data ? "FwdGetS"
                                                        : "FwdGetX")
                       .c_str());
        sendChecked(e.row, m);
        // A row's own send is its only step: the line stays as it left it.
        if (!deferred)
            conform(core, tr, st.cores[core].line.state);
    }

    /**
     * The pending operation completed under row `tr`: LCO tiling,
     * golden-memory check + update, end-state conformance, program
     * advance. A completion inside the issue step was a hit.
     */
    void
    complete(int core, const ProtoTransition &tr, bool hit)
    {
        McCore &k = st.cores[core];
        const L1Txn &op = scratch.out.done;
        const int kind = mcOpOf(op);

        // LCO tiling: the attribution hooks a completed transaction
        // must have fired (DESIGN.md section 13 invariant list).
        unsigned required = HK_OP_ISSUED | HK_OP_COMPLETED;
        if (!hit)
            required |= HK_REQUEST_SENT | HK_DIR_ARRIVED | HK_DIR_SERVED |
                        HK_RESPONSE_ARRIVED;
        if (op.acksReceived > 0)
            required |= HK_INV_ACK_ARRIVED;
        if ((k.hooks & required) != required) {
            fail("lco-tiling",
                 format("core %d completed %s with hook mask 0x%02x "
                       "(required 0x%02x)",
                       core, mcOpName(kind), k.hooks, required));
            return;
        }

        const bool isWrite = kind != OP_LOAD && !op.demoted;
        if (isWrite && op.exclusive && op.data != st.golden) {
            fail("golden-mismatch",
                 format("core %d completes exclusive %s observing %d "
                       "but golden memory holds %d",
                       core, mcOpName(kind), static_cast<int>(op.data),
                       st.golden));
            return;
        }
        conform(core, tr, scratch.out.doneState);
        if (viol)
            return;
        if (op.demoted) {
            note("  core %d completes %s demoted (observed=%d)", core,
                 mcOpName(kind), static_cast<int>(op.data));
        } else {
            if (isWrite) // the write serializes here
                st.golden = static_cast<std::uint8_t>(l1ResultValue(op));
            note("  core %d completes %s (observed=%d, line=%d, "
                 "golden=%d)",
                 core, mcOpName(kind), static_cast<int>(op.data),
                 static_cast<int>(k.line.value), st.golden);
        }
        k.pc = static_cast<std::uint8_t>(
            programNext(cfg.scenario, core, k.pc,
                        static_cast<std::uint8_t>(op.data), op.demoted));
        note("  core %d program advances to pc %d", core, k.pc);
    }
};

std::string
describeMsg(const McMsg &m)
{
    std::string s = cohMsgKindName(static_cast<CohMsgKind>(m.kind));
    s += format("[req=%d", m.requester);
    if (m.kind == static_cast<int>(CohMsgKind::Inv) ||
        m.kind == static_cast<int>(CohMsgKind::InvAck))
        s += format(" coll=%s", describeDst(m.collector).c_str());
    if (m.kind == static_cast<int>(CohMsgKind::Data) ||
        m.kind == static_cast<int>(CohMsgKind::DataExcl))
        s += format(" val=%d", m.value);
    if (m.kind == static_cast<int>(CohMsgKind::DataExcl) ||
        m.kind == static_cast<int>(CohMsgKind::AckCount))
        s += format(" acks=%d", m.ackCount);
    if (m.epoch)
        s += format(" epoch=%d", m.epoch);
    if (m.flags & MF_LOCK)
        s += " lock";
    if (m.flags & MF_DEMOTABLE)
        s += " demotable";
    if (m.flags & MF_DEMOTED)
        s += " demoted";
    if (m.flags & MF_ATOMIC)
        s += " atomic";
    if (m.flags & MF_EARLY_INV)
        s += " early-inv";
    if (m.flags & MF_FROM_BR)
        s += " from-br";
    if (m.flags & MF_OWNER_UPGRADE)
        s += " owner-upgrade";
    s += "]";
    return s;
}

// ---------------------------------------------------------------------
// Global state invariants (checked after every step)
// ---------------------------------------------------------------------

std::optional<IViol>
checkStateInvariants(const McConfig &cfg, const McState &st)
{
    // SWMR: at most one core in an owner state; a core in E or M means
    // every other core is I.
    int owners = 0, exclusiveOwner = -1;
    for (int c = 0; c < cfg.numCores; ++c) {
        const L1State s = st.cores[c].line.state;
        if (s == L1State::E || s == L1State::M || s == L1State::O)
            ++owners;
        if (s == L1State::E || s == L1State::M)
            exclusiveOwner = c;
    }
    if (owners > 1)
        return IViol{"swmr", format("%d cores hold owner states", owners)};
    if (exclusiveOwner >= 0) {
        for (int c = 0; c < cfg.numCores; ++c)
            if (c != exclusiveOwner && st.cores[c].line.state != L1State::I)
                return IViol{
                    "swmr",
                    format("core %d holds %s while core %d is exclusive",
                          c, l1StateName(st.cores[c].line.state),
                          exclusiveOwner)};
    }

    // Valid copies match golden memory.
    for (int c = 0; c < cfg.numCores; ++c) {
        const L1Line &l = st.cores[c].line;
        if (l.state != L1State::I && l.value != st.golden)
            return IViol{"valid-copy",
                         format("core %d holds %s value %d but golden "
                               "memory holds %d",
                               c, l1StateName(l.state),
                               static_cast<int>(l.value), st.golden)};
    }

    // Barrier-count conservation, home side: for every ack-collecting
    // transaction, outstanding acks == in-flight home Invs it collects
    // plus in-flight home InvAcks addressed to it.
    for (int c = 0; c < cfg.numCores; ++c) {
        const L1Txn &t = st.cores[c].txn;
        if (!t.active || !t.exclusive || !t.hasAckInfo)
            continue;
        int inFlight = 0;
        for (int i = 0; i < st.nMsgs; ++i) {
            const McMsg &m = st.msgs[i];
            if (m.flags & MF_FROM_BR)
                continue;
            if (m.kind == static_cast<int>(CohMsgKind::Inv) &&
                m.collector == c)
                ++inFlight;
            if (m.kind == static_cast<int>(CohMsgKind::InvAck) &&
                m.dst == c)
                ++inFlight;
        }
        const int outstanding = t.ackCount - t.acksReceived;
        if (outstanding != inFlight)
            return IViol{
                "ack-conservation",
                format("core %d expects %d more acks but %d home "
                      "Inv/InvAck messages are in flight",
                      c, outstanding, inFlight)};
    }

    // Barrier-count conservation, big-router side: every open EI entry
    // is matched by exactly one in-flight early Inv or returning ack.
    if (cfg.bigRouter) {
        int inFlight = 0;
        for (int i = 0; i < st.nMsgs; ++i) {
            const McMsg &m = st.msgs[i];
            if (!(m.flags & MF_FROM_BR))
                continue;
            if (m.kind == static_cast<int>(CohMsgKind::Inv))
                ++inFlight;
            if (m.kind == static_cast<int>(CohMsgKind::InvAck) &&
                m.dst == MC_BR)
                ++inFlight;
        }
        if (static_cast<int>(st.br.eis.size()) != inFlight)
            return IViol{
                "ei-conservation",
                format("%d open EI entries but %d early Inv/InvAck "
                      "messages in flight",
                      static_cast<int>(st.br.eis.size()), inFlight)};
    }
    return std::nullopt;
}

bool
isQuiesced(const McConfig &cfg, const McState &st)
{
    if (st.nMsgs != 0 || st.br.barrier || !st.br.eis.empty())
        return false;
    for (int c = 0; c < cfg.numCores; ++c) {
        const McCore &k = st.cores[c];
        if (k.txn.active || !k.deferred.empty() ||
            !programDone(cfg.scenario, c, k.pc))
            return false;
    }
    return true;
}

std::optional<IViol>
checkQuiescedInvariants(const McConfig &cfg, const McState &st)
{
    if (cfg.checkFinalValue &&
        st.golden != expectedFinalValue(cfg))
        return IViol{"final-value",
                     format("programs quiesced with lock word %d "
                           "(expected %d)",
                           st.golden, expectedFinalValue(cfg))};
    if (st.dir.owner >= 0) {
        const L1State s = st.cores[st.dir.owner].line.state;
        if (!(s == L1State::E || s == L1State::M || s == L1State::O))
            return IViol{"owner-lost-line",
                         format("directory records core %d as owner but "
                               "its line is %s",
                               st.dir.owner, l1StateName(s))};
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Successor enumeration
// ---------------------------------------------------------------------

std::vector<McStep>
enumerateSteps(const McConfig &cfg, const McState &st)
{
    std::vector<McStep> steps;
    if (cfg.bigRouter && st.br.barrier && st.br.eis.empty()) {
        McStep s;
        s.kind = STEP_TTL;
        steps.push_back(s);
    }
    for (int c = 0; c < cfg.numCores; ++c) {
        const McCore &k = st.cores[c];
        if (!k.txn.active && !programDone(cfg.scenario, c, k.pc)) {
            McStep s;
            s.kind = STEP_ISSUE;
            s.core = static_cast<std::int8_t>(c);
            steps.push_back(s);
        }
    }
    std::uint64_t last = 0;
    for (int i = 0; i < st.nMsgs; ++i) {
        const std::uint64_t e = encodeMsg(st.msgs[i]);
        if (i > 0 && e == last)
            continue; // multiset: identical messages are one step
        last = e;
        McStep s;
        s.kind = STEP_DELIVER;
        s.msg = e;
        steps.push_back(s);
    }
    return steps;
}

// ---------------------------------------------------------------------
// Canonicalization (symmetry reduction over interchangeable core ids)
// ---------------------------------------------------------------------

/**
 * Canonical hash key: minimum encoding over all program-preserving
 * core permutations. Rw pins core 0 (it runs a different program);
 * every other scenario's cores are fully interchangeable.
 */
std::string
canonicalKey(const McState &st, const McConfig &cfg)
{
    CorePerm perm{};
    for (int c = 0; c < cfg.numCores; ++c)
        perm[c] = static_cast<std::int8_t>(c);
    std::string best = encodeState(st, cfg.numCores, perm);
    if (!cfg.symmetry)
        return best;
    const int lo = cfg.scenario == McScenario::Rw ? 1 : 0;
    while (std::next_permutation(perm.begin() + lo,
                                 perm.begin() + cfg.numCores)) {
        std::string key = encodeState(st, cfg.numCores, perm);
        if (key < best)
            best = std::move(key);
    }
    return best;
}

// ---------------------------------------------------------------------
// BFS with witness reconstruction
// ---------------------------------------------------------------------

McState
initialState(const McConfig &cfg)
{
    McState st;
    st.golden = initialValue(cfg);
    st.dir.value = initialValue(cfg);
    st.br.capacity = cfg.eiCapacity;
    return st;
}

struct Rec {
    McState st;
    std::uint32_t parent = 0;
    McStep step;
    int depth = 0;
};

std::string
summarizeState(const McConfig &cfg, const McState &st)
{
    std::string out;
    for (int c = 0; c < cfg.numCores; ++c) {
        const McCore &k = st.cores[c];
        out += format("  core %d: state=%s value=%d pc=%d", c,
                     l1StateName(k.line.state),
                     static_cast<int>(k.line.value), k.pc);
        if (k.txn.active)
            out += format(
                " pending{%s excl=%d hasData=%d hasAck=%d acks=%d/%d}",
                mcOpName(mcOpOf(k.txn)), k.txn.exclusive, k.txn.hasData,
                k.txn.hasAckInfo, k.txn.acksReceived, k.txn.ackCount);
        if (!k.deferred.empty())
            out += format(" deferred=%d", static_cast<int>(k.deferred.size()));
        out += "\n";
    }
    out += format("  dir: owner=%d sharers=0x%02x value=%d epoch=%d "
                 "ei-pending=0x%02x\n",
                 st.dir.owner, st.dir.sharers.bits,
                 static_cast<int>(st.dir.value), static_cast<int>(st.epoch),
                 st.dir.eiPending.bits);
    if (cfg.bigRouter)
        out += format("  big-router: barrier=%d eis=0x%02x\n",
                     st.br.barrier, st.br.eis.bits);
    out += format("  golden=%d in-flight=%d", st.golden, st.nMsgs);
    for (int i = 0; i < st.nMsgs; ++i)
        out += format("\n    %s -> %s", describeMsg(st.msgs[i]).c_str(),
                     describeDst(st.msgs[i].dst).c_str());
    return out;
}

/**
 * Rebuild the flight-recorder-style witness: replay the BFS path with
 * the trace recorder on, then append the violation banner and the end
 * state.
 */
McViolation
buildWitness(const McConfig &cfg, const ProtoTableBase &l1,
             const ProtoTableBase &dirTable, const ProtoTableBase &br,
             const std::vector<Rec> &recs, std::uint32_t tail,
             const McStep *extraStep, const IViol &v)
{
    std::vector<McStep> steps;
    for (std::uint32_t i = tail; i != 0; i = recs[i].parent)
        steps.push_back(recs[i].step);
    std::reverse(steps.begin(), steps.end());
    if (extraStep)
        steps.push_back(*extraStep);

    McViolation out;
    out.invariant = v.invariant;
    out.detail = v.detail;

    McState st = initialState(cfg);
    McResult replay;
    McScratch scratch;
    int n = 0;
    for (const McStep &s : steps) {
        std::vector<std::string> lines;
        Interp it(cfg, l1, dirTable, br, st, &lines, &replay, scratch);
        it.apply(s);
        for (std::string &line : lines) {
            // Stamp the step number onto the step header lines.
            if (line.rfind("step:", 0) == 0)
                line = format("step %d:%s", n, line.c_str() + 5);
            out.trace.push_back(std::move(line));
        }
        ++n;
    }
    out.trace.push_back(
        format("VIOLATION %s: %s", v.invariant.c_str(), v.detail.c_str()));
    out.trace.push_back("end state:");
    out.trace.push_back(summarizeState(cfg, st));
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

std::string
McViolation::traceText() const
{
    std::string out;
    for (const std::string &line : trace) {
        out += line;
        out += "\n";
    }
    return out;
}

const char *
mcScenarioName(McScenario s)
{
    switch (s) {
      case McScenario::Tas:
        return "tas";
      case McScenario::TasNd:
        return "tas-nd";
      case McScenario::TasHeld:
        return "tas-held";
      case McScenario::Counter:
        return "counter";
      case McScenario::Rw:
        return "rw";
    }
    return "?";
}

std::optional<McScenario>
mcScenarioFromName(const std::string &name)
{
    for (McScenario s : mcAllScenarios())
        if (name == mcScenarioName(s))
            return s;
    return std::nullopt;
}

const std::vector<McScenario> &
mcAllScenarios()
{
    static const std::vector<McScenario> all = {
        McScenario::Tas, McScenario::TasNd, McScenario::TasHeld,
        McScenario::Counter, McScenario::Rw};
    return all;
}

McResult
runModelCheck(const McConfig &cfg, const McTables &tables)
{
    INPG_ASSERT(cfg.numCores >= 2 && cfg.numCores <= MC_MAX_CORES,
                "model checker supports 2..%d cores", MC_MAX_CORES);
    const ProtoTableBase &l1 =
        tables.l1 ? *tables.l1 : protocolTable(PROTO_TABLE_L1);
    const ProtoTableBase &dirTable =
        tables.dir ? *tables.dir : protocolTable(PROTO_TABLE_DIR);
    const ProtoTableBase &br =
        tables.br ? *tables.br : protocolTable(PROTO_TABLE_BR);

    McResult res;
    McScratch scratch;
    std::vector<Rec> recs;
    std::deque<std::uint32_t> frontier;
    std::unordered_set<std::string> visited;

    {
        Rec r;
        r.st = initialState(cfg);
        recs.push_back(r);
    }
    visited.insert(canonicalKey(recs[0].st, cfg));
    frontier.push_back(0);
    res.statesVisited = 1;

    while (!frontier.empty()) {
        const std::uint32_t idx = frontier.front();
        frontier.pop_front();
        // recs grows while we expand: copy the state out first.
        const McState cur = recs[idx].st;
        const int depth = recs[idx].depth;
        if (depth > res.maxDepth)
            res.maxDepth = depth;

        const std::vector<McStep> steps = enumerateSteps(cfg, cur);
        if (steps.empty()) {
            if (isQuiesced(cfg, cur)) {
                ++res.finalStates;
                if (auto v = checkQuiescedInvariants(cfg, cur)) {
                    res.violation = buildWitness(cfg, l1, dirTable, br,
                                                 recs, idx, nullptr, *v);
                    return res;
                }
            } else {
                IViol v{"deadlock",
                        "reachable non-final state has no enabled "
                        "transition"};
                res.violation = buildWitness(cfg, l1, dirTable, br, recs,
                                             idx, nullptr, v);
                return res;
            }
            continue;
        }
        if (cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
            res.complete = false;
            continue;
        }

        for (const McStep &s : steps) {
            McState next = cur;
            Interp it(cfg, l1, dirTable, br, next, nullptr, &res, scratch);
            ++res.transitions;
            if (!it.apply(s)) {
                res.violation = buildWitness(cfg, l1, dirTable, br, recs,
                                             idx, &s, *it.viol);
                return res;
            }
            if (auto v = checkStateInvariants(cfg, next)) {
                res.violation = buildWitness(cfg, l1, dirTable, br, recs,
                                             idx, &s, *v);
                return res;
            }
            std::string key = canonicalKey(next, cfg);
            if (!visited.insert(std::move(key)).second)
                continue;
            ++res.statesVisited;
            if (cfg.maxStates > 0 &&
                res.statesVisited > cfg.maxStates) {
                res.complete = false;
                return res;
            }
            Rec r;
            r.st = next;
            r.parent = idx;
            r.step = s;
            r.depth = depth + 1;
            recs.push_back(r);
            frontier.push_back(
                static_cast<std::uint32_t>(recs.size() - 1));
        }
    }
    return res;
}

} // namespace inpg
