/**
 * @file
 * Seeded-bug catalog for the model checker's --self-test harness.
 *
 * Each entry clones one production table through
 * ProtoTableBase::rows() / withRows(), applies a single realistic
 * edit (dropped emit, swapped next-state, dropped LCO hook, action
 * swap, off-by-one ack count) and names the invariant the checker
 * must trip. The harness also re-runs every configuration against
 * the *unmutated* tables and requires a clean pass, so a mutation
 * that "succeeds" by breaking the interpreter instead of the
 * protocol is caught too.
 *
 * Expected-invariant strings may list '|'-separated alternatives:
 * several of the seeded bugs are legitimately caught by more than
 * one invariant depending on which BFS layer the violating
 * interleaving lands in, and pinning one exact id would make the
 * self-test brittle against harmless exploration-order changes.
 */

#include <cstdio>

#include "coh/protocol_actions.hh"
#include "verify/model_check.hh"

namespace inpg {

namespace {

// Table-local int values (static_asserted against the enum so a
// renumbering cannot silently retarget an edit).
constexpr int L1_S = 1;
constexpr int L1_M = 3;
static_assert(L1_S == static_cast<int>(L1State::S) &&
                  L1_M == static_cast<int>(L1State::M),
              "mutation targets must match L1State");

ProtoTransition *
findRow(std::vector<ProtoTransition> &rows, int state, int event)
{
    for (ProtoTransition &t : rows)
        if (t.state == state && t.event == event)
            return &t;
    return nullptr;
}

void
editOwnedSelfGetXSelfForward(std::vector<ProtoTransition> &rows)
{
    // The historical (OwnedSelf, GetS) self-forward hang, re-seeded on
    // the reachable GetX row: the home "demotes via owner" when the
    // requester IS the owner, so the FwdGetS chases the requester's
    // own pending upgrade and is deferred forever.
    ProtoTransition *t =
        findRow(rows, static_cast<int>(DirState::OwnedSelf),
                static_cast<int>(DirEvent::GetX));
    t->action = static_cast<int>(DirAction::DemoteViaOwner);
    t->emits = {{CohMsgKind::FwdGetS, false}};
    t->nexts = {static_cast<int>(DirState::Owned),
                static_cast<int>(DirState::OwnedSelf)};
}

void
editL1SInvDropAck(std::vector<ProtoTransition> &rows)
{
    // Sharer invalidates its copy but forgets the InvAck.
    ProtoTransition *t = findRow(rows, L1_S,
                                 static_cast<int>(L1Event::Inv));
    t->emits.clear();
}

void
editL1MInvDropsDirtyOwner(std::vector<ProtoTransition> &rows)
{
    // Stale big-router Inv must NOT invalidate an owner that holds
    // the lock word dirty; force the next state to I.
    ProtoTransition *t = findRow(rows, L1_M,
                                 static_cast<int>(L1Event::Inv));
    t->nexts = {0 /* I */};
}

void
editDirUncachedGetXDropData(std::vector<ProtoTransition> &rows)
{
    // InvalidateAndGrant that never sends the DataExcl grant.
    ProtoTransition *t =
        findRow(rows, static_cast<int>(DirState::Uncached),
                static_cast<int>(DirEvent::GetX));
    std::vector<ProtoEmit> kept;
    for (const ProtoEmit &e : t->emits)
        if (e.kind != CohMsgKind::DataExcl)
            kept.push_back(e);
    t->emits = kept;
}

void
editL1WriteMissDropHook(std::vector<ProtoTransition> &rows)
{
    // BeginWriteMiss loses its requestSent attribution hook, so the
    // LCO tiling of every write-miss transaction has a gap.
    ProtoTransition *t = findRow(rows, 0 /* I */,
                                 static_cast<int>(L1Event::CoreWrite));
    t->lcoHooks = {"opIssued"};
}

void
editBrArmedAckKeepsEi(std::vector<ProtoTransition> &rows)
{
    // The big router relays the InvAck but never closes its EI entry.
    ProtoTransition *t =
        findRow(rows, static_cast<int>(BrState::BarrierArmed),
                static_cast<int>(BrEvent::EarlyInvAck));
    t->action = static_cast<int>(BrAction::RelayStale);
}

void
editBrIdleArrivalDropInv(std::vector<ProtoTransition> &rows)
{
    // StopAndInvalidate opens the EI entry but the early Inv itself
    // is no longer a declared emit (dropped in-network packet).
    ProtoTransition *t =
        findRow(rows, static_cast<int>(BrState::BarrierIdle),
                static_cast<int>(BrEvent::LockGetXArrival));
    t->emits.clear();
}

void
editDirOwnedEarlyAckIllegal(std::vector<ProtoTransition> &rows)
{
    // Declares a reachable pair impossible: an early InvAck relayed
    // to the home while some other core owns the line.
    ProtoTransition *t =
        findRow(rows, static_cast<int>(DirState::Owned),
                static_cast<int>(DirEvent::EarlyInvAck));
    t->action = PROTO_ILLEGAL;
    t->emits.clear();
    t->nexts.clear();
    t->note = "seeded: early ack under other-owner declared impossible";
}

void
editL1SInvKeepCopy(std::vector<ProtoTransition> &rows)
{
    // Invalidation acked but the shared copy is kept (next-state
    // swap back to S) -- the classic stale-sharer SWMR bug.
    ProtoTransition *t = findRow(rows, L1_S,
                                 static_cast<int>(L1Event::Inv));
    t->nexts = {L1_S};
}

McConfig
mcCfg(McScenario sc, bool bigRouter, bool symmetry = true)
{
    McConfig c;
    c.numCores = 2;
    c.scenario = sc;
    c.bigRouter = bigRouter;
    c.symmetry = symmetry;
    // Guard rail: a mutation that fails to trigger must terminate
    // with complete=false instead of exploring forever.
    c.maxStates = 500000;
    return c;
}

std::vector<McMutation>
buildCatalog()
{
    std::vector<McMutation> cat;
    cat.push_back({"ownedself-getx-selfforward",
                   "home self-forwards the owner's own upgrade "
                   "(the historical (OwnedSelf, GetS) hang class)",
                   "deadlock", PROTO_TABLE_DIR,
                   mcCfg(McScenario::Tas, false, /*symmetry=*/false),
                   &editOwnedSelfGetXSelfForward});
    cat.push_back({"l1-s-inv-drop-ack",
                   "sharer drops its copy but never sends the InvAck",
                   "ack-conservation|deadlock", PROTO_TABLE_L1,
                   mcCfg(McScenario::Tas, false), &editL1SInvDropAck});
    cat.push_back({"l1-m-inv-drops-dirty-owner",
                   "stale early-Inv invalidates an owner holding the "
                   "lock word dirty",
                   "early-inv-dirty-owner", PROTO_TABLE_L1,
                   mcCfg(McScenario::Tas, true),
                   &editL1MInvDropsDirtyOwner});
    {
        McMutation m{"dir-ackcount-off-by-one",
                     "home undercounts the Inv storm by one "
                     "(classic sharer-count off-by-one)",
                     "ack-conservation|over-collected|stray-invack|swmr",
                     -1, mcCfg(McScenario::Tas, false), nullptr};
        m.config.ackCountBias = -1;
        cat.push_back(m);
    }
    cat.push_back({"dir-uncached-getx-drop-dataexcl",
                   "exclusive grant whose DataExcl is never emitted",
                   "deadlock", PROTO_TABLE_DIR,
                   mcCfg(McScenario::TasNd, false),
                   &editDirUncachedGetXDropData});
    cat.push_back({"l1-i-corewrite-drop-requestsent",
                   "write-miss transition loses its requestSent LCO "
                   "hook (silent attribution gap)",
                   "lco-tiling", PROTO_TABLE_L1,
                   mcCfg(McScenario::Tas, false),
                   &editL1WriteMissDropHook});
    cat.push_back({"br-armed-ack-keeps-ei",
                   "big router relays the InvAck without closing the "
                   "early-invalidation entry",
                   "ei-conservation", PROTO_TABLE_BR,
                   mcCfg(McScenario::Tas, true),
                   &editBrArmedAckKeepsEi});
    cat.push_back({"br-idle-arrival-drop-inv",
                   "early-invalidation entry opened but the early Inv "
                   "packet is dropped",
                   "ei-conservation", PROTO_TABLE_BR,
                   mcCfg(McScenario::Tas, true),
                   &editBrIdleArrivalDropInv});
    cat.push_back({"dir-owned-earlyack-illegal",
                   "reachable (Owned, EarlyInvAck) pair declared "
                   "impossible",
                   "table-illegal", PROTO_TABLE_DIR,
                   mcCfg(McScenario::Tas, true),
                   &editDirOwnedEarlyAckIllegal});
    cat.push_back({"l1-s-inv-keep-copy",
                   "invalidation acked but the stale shared copy is "
                   "kept (SWMR break)",
                   "swmr|valid-copy", PROTO_TABLE_L1,
                   mcCfg(McScenario::Tas, false), &editL1SInvKeepCopy});
    return cat;
}

bool
expectMatches(const char *expect, const std::string &invariant)
{
    // '|'-separated alternatives, each matched as a prefix.
    const char *p = expect;
    while (*p) {
        const char *bar = p;
        while (*bar && *bar != '|')
            ++bar;
        const std::size_t len = static_cast<std::size_t>(bar - p);
        if (invariant.compare(0, len, p, len) == 0)
            return true;
        p = *bar ? bar + 1 : bar;
    }
    return false;
}

} // namespace

const std::vector<McMutation> &
mcMutationCatalog()
{
    static const std::vector<McMutation> catalog = buildCatalog();
    return catalog;
}

const McMutation *
mcFindMutation(const std::string &name)
{
    for (const McMutation &m : mcMutationCatalog())
        if (name == m.name)
            return &m;
    return nullptr;
}

McResult
runMutatedModelCheck(const McMutation &m)
{
    if (m.table < 0)
        return runModelCheck(m.config);
    const ProtoTableBase &prod = protocolTable(m.table);
    std::vector<ProtoTransition> rows = prod.rows();
    if (m.edit)
        m.edit(rows);
    // Deliberate rebuild: the mutation harness is the one place
    // that ships an intentionally broken table, so the checker
    // can prove it would catch the bug.
    const ProtoTableBase mutated =
        prod.withRows(rows); // lint:allow(table-row-outside-tables)
    McTables t;
    if (m.table == PROTO_TABLE_L1)
        t.l1 = &mutated;
    else if (m.table == PROTO_TABLE_DIR)
        t.dir = &mutated;
    else
        t.br = &mutated;
    return runModelCheck(m.config, t);
}

McSelfTestOutcome
runMcSelfTest(bool verbose, std::vector<std::string> *log)
{
    McSelfTestOutcome out;
    char line[256];
    auto emit = [&](const std::string &s) {
        if (log)
            log->push_back(s);
    };
    for (const McMutation &m : mcMutationCatalog()) {
        ++out.mutationsRun;

        // The same configuration against the *production* tables
        // must be clean (mutation 4 seeds through a config knob, so
        // neutralize it for the baseline run).
        McConfig clean = m.config;
        clean.ackCountBias = 0;
        McResult base = runModelCheck(clean);
        if (!base.ok()) {
            std::snprintf(line, sizeof line,
                          "FAIL %-34s baseline violated %s", m.name,
                          base.violation->invariant.c_str());
            emit(line);
            out.failures.push_back(line);
            continue;
        }
        if (!base.complete) {
            std::snprintf(line, sizeof line,
                          "FAIL %-34s baseline hit the state cap",
                          m.name);
            emit(line);
            out.failures.push_back(line);
            continue;
        }

        McResult res = runMutatedModelCheck(m);
        if (!res.violation.has_value()) {
            std::snprintf(line, sizeof line,
                          "FAIL %-34s not caught (%llu states, %s)",
                          m.name,
                          static_cast<unsigned long long>(
                              res.statesVisited),
                          res.complete ? "complete" : "truncated");
            emit(line);
            out.failures.push_back(line);
            continue;
        }
        const McViolation &v = *res.violation;
        if (!expectMatches(m.expect, v.invariant)) {
            std::snprintf(line, sizeof line,
                          "FAIL %-34s caught by '%s', expected '%s'",
                          m.name, v.invariant.c_str(), m.expect);
            emit(line);
            out.failures.push_back(line);
            continue;
        }
        if (v.trace.empty()) {
            std::snprintf(line, sizeof line,
                          "FAIL %-34s violation has no witness trace",
                          m.name);
            emit(line);
            out.failures.push_back(line);
            continue;
        }
        ++out.caught;
        std::snprintf(line, sizeof line,
                      "ok   %-34s caught by %-22s (%llu states, "
                      "%zu-line witness)",
                      m.name, v.invariant.c_str(),
                      static_cast<unsigned long long>(res.statesVisited),
                      v.trace.size());
        emit(line);
        if (verbose)
            for (const std::string &t : v.trace)
                emit("    " + t);
    }
    return out;
}

} // namespace inpg
