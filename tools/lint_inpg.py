#!/usr/bin/env python3
"""Determinism lint for the iNPG simulator sources (DESIGN.md Section 8).

Rules (numbered as DESIGN.md invariants 10-20):

  unordered-iteration  (inv. 10)
      No range-for over std::unordered_map / std::unordered_set in the
      simulation directories (src/sim, src/noc, src/coh, src/inpg).
      Hash-order iteration silently breaks the bit-identical
      determinism the fingerprint tests rely on.

  raw-flit-new         (inv. 11)
      No raw `new Flit` outside src/noc/flit_pool.cc. Flits are
      pool-recycled; a raw allocation leaks a flit past the pool's
      generation counters.

  nondeterminism       (inv. 12)
      No rand()/srand()/time() and no wall-clock reads
      (std::chrono::*_clock) in the simulation directories. All
      randomness flows through common/rng.hh; all time is Cycle.
      Host-side profiling may opt out per line.

  shared-ptr-flit      (inv. 13)
      No std::shared_ptr<Flit> anywhere in src/. The NoC hot paths
      moved to pooled raw pointers (PR 1); a shared_ptr regression
      reintroduces atomic refcount traffic per hop.

  unbounded-recording  (inv. 14)
      No unguarded push_back/emplace_back in the telemetry recording
      modules (flight recorder, timeseries sampler, trace sink, packet
      lifetime, LCO attribution). Per-event records must land in a
      bounded store -- a ring buffer or a capacity-capped vector with
      a drop counter -- or an hours-long run OOMs the host. A growth
      call passes when a capacity/size guard appears within the
      preceding 16 lines.

  threading-outside-parallel (inv. 16)
      No std::thread / std::mutex / std::atomic /
      std::condition_variable (or their headers) outside
      src/sim/parallel/ and src/harness/. Simulated components are
      single-threaded by construction -- the parallel kernel's barrier
      discipline is the only sanctioned cross-thread channel, and a
      stray atomic in a component silently turns a determinism bug
      into a data race. Host-side infrastructure (the recorder
      registry, the experiment ledger) must opt out per line.

  coordinate-arithmetic (inv. 17)
      No arithmetic on meshWidth / meshHeight (or mesh_w / mesh_h
      parameters) outside src/noc/topology.{hh,cc} and
      src/noc/routing.{hh,cc}. Grid geometry -- id <-> coordinate
      decomposition, wrap math, placement -- is the Topology layer's
      contract; a stray `id % meshWidth` elsewhere silently assumes a
      non-concentrated mesh and breaks on torus/cmesh fabrics. The
      config's own numRouters() product opts out per line.

  node-container-noc   (inv. 15)
      No std::deque / std::list / std::forward_list / std::map /
      std::set (or their multi variants) in src/noc. The NoC hot path
      is data-oriented: flit and credit queues are pow2 ring buffers,
      VC state is one contiguous block per VC. A node container
      reintroduces a heap allocation per enqueued element on the
      per-cycle path. Cold-path uses (if ever justified) must carry an
      explicit lint:allow.

  table-row-outside-tables (inv. 18)
      No direct construction of protocol transition-table rows --
      `TransitionTable<...>` instantiation, a `ProtoTransition{...}`
      row literal, or a `withRows(...)` rebuild -- outside
      src/coh/protocol_tables.cc (and the defining header
      src/coh/transition_table.hh). The shipped tables are the single
      source of protocol truth: protocol_check proves their static
      invariants and protocol_mc model-checks their composition, so a
      row built anywhere else ships unverified protocol behavior.
      Deliberate rebuilds (the model checker's seeded-mutation
      harness) must opt out per line.

  ad-hoc-json          (inv. 19)
      No hand-formatted JSON emission -- a `\\"key\\":` fragment inside
      a string literal -- in src/ outside src/telemetry/json.*. Every
      machine-readable document (stats snapshots, run records, hang
      reports) flows through JsonValue so schema versioning, escaping
      and the canonical round-trip guarantee hold; a stray fprintf of
      JSON text silently forks the schema. Scanned on RAW file text
      (string literals are exactly the evidence), so the historical
      Chrome-trace writer carries per-line lint:allow markers.

  action-dispatch-outside-actions (inv. 20)
      No `case L1Action::`, `case DirAction::` or `case BrAction::`
      outside src/coh/protocol_actions.{hh,cc}. Each table row's
      action has one body, there; the controllers and the model
      checker both call it. A switch on the action anywhere else is a
      second copy of the protocol that the checker does not explore.

A finding is suppressed by an end-of-line marker naming its rule:

    auto t0 = std::chrono::steady_clock::now();  // lint:allow(nondeterminism)

Exit status: 0 clean, 1 findings, 2 usage error. --self-test runs the
rules against embedded known-bad snippets and fails unless every rule
fires (and suppression works).
"""

import argparse
import re
import sys
from pathlib import Path

SIM_DIRS = ("src/sim", "src/noc", "src/coh", "src/inpg")
ALL_SRC = ("src",)
ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z\-,\s]+)\)")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*([^)]+)\)")
FINAL_IDENT_RE = re.compile(r"(\w+)\s*(?:\(\s*\))?\s*$")
RAW_FLIT_NEW_RE = re.compile(r"\bnew\s+Flit\b")
NONDET_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand)\s*\("
    r"|\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|\&|\))"
    r"|std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
)
SHARED_PTR_FLIT_RE = re.compile(r"std::shared_ptr\s*<\s*Flit\b")
NODE_CONTAINER_RE = re.compile(
    r"std::(?:deque|list|forward_list|map|set|multimap|multiset)\s*<"
    r"|#include\s*<(?:deque|list|forward_list|map|set)>")

THREADING_RE = re.compile(
    r"std::(?:thread|jthread|mutex|recursive_mutex|shared_mutex"
    r"|condition_variable|atomic)\b"
    r"|#include\s*<(?:thread|mutex|shared_mutex|atomic"
    r"|condition_variable)>")
# Directories where host-side threading primitives are sanctioned:
# the parallel kernel itself and the harness (sweep thread pool).
THREADING_OK_DIRS = ("src/sim/parallel", "src/harness")

# Grid-geometry identifiers whose arithmetic use marks coordinate
# math: the NocConfig members and the conventional parameter
# spellings. An arithmetic operator directly before or after the
# identifier is the signal; bare reads (assignment, argument passing,
# comparisons in min/max clamps) stay legal everywhere.
COORD_ARITH_RE = re.compile(
    r"[%*/+\-]\s*(?:\w+\s*(?:\.|->)\s*)?"
    r"mesh(?:Width|Height|_w(?:idth)?|_h(?:eight)?)\b"
    r"|\bmesh(?:Width|Height|_w(?:idth)?|_h(?:eight)?)\b\s*[%*/+\-]")
# Files that own grid geometry: the Topology implementations and the
# dimension-order routing helpers they are built on.
COORD_OK_PREFIXES = ("src/noc/topology", "src/noc/routing")

# Telemetry modules that record per-event data over a run (registries
# and build-only JSON values are out of scope).
RECORDING_STEMS = ("flight_recorder", "timeseries", "trace_event",
                   "packet_lifetime", "lco_attribution")
PUSH_RE = re.compile(r"\b(?:push_back|emplace_back)\s*\(")
# Evidence of a bounded store near a growth call: an explicit size
# comparison, a named cap, or a reserve sized from existing state.
GUARD_RE = re.compile(
    r"\.size\(\)\s*[<>]|maxRows|maxEvents|recordCap|capacity"
    r"|\.empty\(\)|\breserve\s*\(")
GUARD_WINDOW = 16


# Direct table-row construction: instantiating a TransitionTable,
# brace-initializing a ProtoTransition row, or rebuilding a table from
# an edited row vector. Reads (`const ProtoTransition &`, `find()`,
# `rows()`) stay legal everywhere -- only construction is fenced in.
TABLE_ROW_RE = re.compile(
    r"\bTransitionTable\s*<"
    r"|\bProtoTransition\s*\{"
    r"|(?:\.|->)\s*withRows\s*\(")
# The one verified home for row construction, plus the header that
# defines the table types themselves.
TABLE_OK_PREFIXES = ("src/coh/protocol_tables", "src/coh/transition_table")


# Dispatch on a row's action: the one place that may branch on it is
# the shared actions file, which both the controllers and the model
# checker run.
ACTION_DISPATCH_RE = re.compile(r"\bcase\s+(?:L1|Dir|Br)Action\s*::")
ACTION_OK_PREFIXES = ("src/coh/protocol_actions.",)


# Hand-formatted JSON emission: an escaped-quoted key followed by a
# colon (`\"key\":`) inside a string literal. This rule scans RAW file
# text -- strip_comments blanks string literals, and the literal is
# exactly the evidence here. JsonValue (src/telemetry/json.*) owns
# escaping, schema_version stamping and the canonical round-trip.
ADHOC_JSON_RE = re.compile(r'\\"[A-Za-z0-9_]+\\"\s*:')
ADHOC_JSON_OK_PREFIXES = ("src/telemetry/json",)


def strip_comments(text):
    """Blank out comments and string literals, preserving line structure
    and any lint:allow markers (kept so suppression still works)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comment = text[i:j]
            m = ALLOW_RE.search(comment)
            out.append(m.group(0) if m else "")
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(quote + quote)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def allowed(lines, lineno, rule):
    m = ALLOW_RE.search(lines[lineno - 1]) if lineno <= len(lines) else None
    if not m:
        return False
    rules = {r.strip() for r in m.group(1).split(",")}
    return rule in rules


def collect_unordered_names(files):
    """Names declared with an unordered container type anywhere in the
    scanned set (headers declare, .cc files iterate)."""
    names = set()
    for path, text in files:
        del path
        for m in UNORDERED_DECL_RE.finditer(text):
            names.add(m.group(1))
    return names


def check_unordered_iteration(files, names):
    findings = []
    for path, text in files:
        lines = text.splitlines()
        for m in RANGE_FOR_RE.finditer(text):
            expr = m.group(1).strip()
            ident = FINAL_IDENT_RE.search(expr)
            if not ident or ident.group(1) not in names:
                continue
            ln = line_of(text, m.start())
            if allowed(lines, ln, "unordered-iteration"):
                continue
            findings.append(Finding(
                "unordered-iteration", path, ln,
                "range-for over unordered container '%s': hash-order "
                "iteration breaks determinism; use FlatHashMap or sort "
                "the keys" % ident.group(1)))
    return findings


def check_raw_flit_new(files):
    findings = []
    for path, text in files:
        if path.as_posix().endswith("src/noc/flit_pool.cc"):
            continue
        lines = text.splitlines()
        for m in RAW_FLIT_NEW_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "raw-flit-new"):
                continue
            findings.append(Finding(
                "raw-flit-new", path, ln,
                "raw `new Flit` outside flit_pool.cc: flits are "
                "pool-recycled (FlitPool::make)"))
    return findings


def check_nondeterminism(files):
    findings = []
    for path, text in files:
        lines = text.splitlines()
        for m in NONDET_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "nondeterminism"):
                continue
            findings.append(Finding(
                "nondeterminism", path, ln,
                "'%s': sim code must draw randomness from common/rng.hh "
                "and time from the Cycle clock" % m.group(0).strip()))
    return findings


def check_shared_ptr_flit(files):
    findings = []
    for path, text in files:
        lines = text.splitlines()
        for m in SHARED_PTR_FLIT_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "shared-ptr-flit"):
                continue
            findings.append(Finding(
                "shared-ptr-flit", path, ln,
                "std::shared_ptr<Flit> regression: the NoC hot paths "
                "use pooled raw pointers"))
    return findings


def check_node_container_noc(files):
    findings = []
    for path, text in files:
        if "src/noc" not in path.as_posix():
            continue
        lines = text.splitlines()
        for m in NODE_CONTAINER_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "node-container-noc"):
                continue
            findings.append(Finding(
                "node-container-noc", path, ln,
                "'%s' in src/noc: the NoC hot path uses pow2 ring "
                "buffers and contiguous arrays, not node containers (see "
                "noc/ring_buffer.hh)" % m.group(0).strip()))
    return findings


def check_threading_scope(files):
    findings = []
    for path, text in files:
        posix = path.as_posix()
        if any(posix.startswith(d) for d in THREADING_OK_DIRS):
            continue
        lines = text.splitlines()
        for m in THREADING_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "threading-outside-parallel"):
                continue
            findings.append(Finding(
                "threading-outside-parallel", path, ln,
                "'%s' outside src/sim/parallel and src/harness: "
                "simulated components are single-threaded; cross-"
                "thread state belongs to the parallel kernel's barrier "
                "discipline" % m.group(0).strip()))
    return findings


def check_coordinate_arithmetic(files):
    findings = []
    for path, text in files:
        posix = path.as_posix()
        if any(posix.startswith(p) for p in COORD_OK_PREFIXES):
            continue
        lines = text.splitlines()
        for m in COORD_ARITH_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "coordinate-arithmetic"):
                continue
            findings.append(Finding(
                "coordinate-arithmetic", path, ln,
                "'%s': grid geometry (id <-> coordinate decomposition, "
                "wrap math, placement) belongs to src/noc/topology* / "
                "src/noc/routing*; ask the Topology object instead of "
                "doing width/height arithmetic here"
                % m.group(0).strip()))
    return findings


def check_unbounded_recording(files):
    findings = []
    for path, text in files:
        if "src/telemetry" not in path.as_posix():
            continue
        if not any(s in path.stem for s in RECORDING_STEMS):
            continue
        lines = text.splitlines()
        for m in PUSH_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "unbounded-recording"):
                continue
            window = "\n".join(lines[max(0, ln - GUARD_WINDOW):ln])
            if GUARD_RE.search(window):
                continue
            findings.append(Finding(
                "unbounded-recording", path, ln,
                "growth call in a telemetry recording module without a "
                "nearby capacity guard: per-event records must use a "
                "bounded store (ring buffer, or capped vector with a "
                "drop counter)"))
    return findings


def check_table_row_construction(files):
    findings = []
    for path, text in files:
        posix = path.as_posix()
        if any(posix.startswith(p) for p in TABLE_OK_PREFIXES):
            continue
        lines = text.splitlines()
        for m in TABLE_ROW_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "table-row-outside-tables"):
                continue
            findings.append(Finding(
                "table-row-outside-tables", path, ln,
                "'%s': protocol transition rows are built only in "
                "src/coh/protocol_tables.cc (protocol_check and "
                "protocol_mc verify that file); read tables via "
                "find()/require()/rows(), and carry an explicit "
                "lint:allow for deliberate test rebuilds"
                % m.group(0).strip()))
    return findings


def check_action_dispatch(files):
    findings = []
    for path, text in files:
        if path.as_posix().startswith(ACTION_OK_PREFIXES):
            continue
        lines = text.splitlines()
        for m in ACTION_DISPATCH_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "action-dispatch-outside-actions"):
                continue
            findings.append(Finding(
                "action-dispatch-outside-actions", path, ln,
                "'%s': a row's action has one body, in "
                "src/coh/protocol_actions.{hh,cc}; call l1Act/dirAct/"
                "brAct instead of switching on the action"
                % m.group(0).strip()))
    return findings


def check_adhoc_json(raw_files):
    """Operates on RAW text (gather with strip=False): strip_comments
    blanks string literals, which are this rule's evidence."""
    findings = []
    for path, text in raw_files:
        posix = path.as_posix()
        if any(posix.startswith(p) for p in ADHOC_JSON_OK_PREFIXES):
            continue
        lines = text.splitlines()
        for m in ADHOC_JSON_RE.finditer(text):
            ln = line_of(text, m.start())
            if allowed(lines, ln, "ad-hoc-json"):
                continue
            findings.append(Finding(
                "ad-hoc-json", path, ln,
                "'%s': hand-formatted JSON outside src/telemetry/json.* "
                "forks the schema; build a JsonValue and dump() it "
                "(escaping, schema_version and the round-trip guarantee "
                "live there)" % m.group(0).strip()))
    return findings


def gather(root, rel_dirs, strip=True):
    """strip=False keeps string literals intact for the raw-text rules
    (ad-hoc-json reads the literals as its evidence)."""
    files = []
    for rel in rel_dirs:
        base = root / rel
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cc", ".hh", ".cpp", ".hpp", ".h"):
                text = path.read_text(errors="replace")
                files.append((path.relative_to(root),
                              strip_comments(text) if strip else text))
    return files


def run_lint(root):
    sim_files = gather(root, SIM_DIRS)
    all_files = gather(root, ALL_SRC)
    findings = []
    findings += check_unordered_iteration(
        sim_files, collect_unordered_names(sim_files))
    findings += check_raw_flit_new(sim_files)
    findings += check_nondeterminism(sim_files)
    findings += check_shared_ptr_flit(all_files)
    findings += check_node_container_noc(all_files)
    findings += check_unbounded_recording(all_files)
    findings += check_threading_scope(all_files)
    findings += check_coordinate_arithmetic(all_files)
    findings += check_table_row_construction(all_files)
    findings += check_action_dispatch(all_files)
    findings += check_adhoc_json(gather(root, ALL_SRC, strip=False))
    findings.sort(key=lambda f: (str(f.path), f.line))
    return findings


SELF_TEST_BAD = """
#include <unordered_map>
std::unordered_map<int, int> table;
void f() {
    for (const auto &kv : table) { (void)kv; }
    Flit *raw = new Flit(pkt, HEAD, 0);
    int r = rand();
    auto t = std::chrono::steady_clock::now();
    std::shared_ptr<Flit> keep;
    std::deque<int> queue;
    std::atomic<int> racy{0};
    int x = id % cfg.meshWidth;
    TransitionTable<TS, TE> rogue(2, 2, {});
    ProtoTransition row{0, 0, PROTO_OK, {}, {}, {}, ""};
}
"""

SELF_TEST_SUPPRESSED = """
void g() {
    auto t = std::chrono::steady_clock::now(); // lint:allow(nondeterminism)
}
"""

SELF_TEST_BAD_RECORDING = """
void FlightRecorder::record(const Event &ev) {
    events.push_back(ev);
}
"""

SELF_TEST_BAD_JSON = r"""
void dumpStats(std::FILE *f) {
    std::fprintf(f, "{\"runs\": [], \"roi_cycles\": %llu}\n", cycles);
}
"""

SELF_TEST_ALLOWED_JSON = r"""
void writeTrace(std::string &out) {
    out += "{\"ph\":\"X\","; // lint:allow(ad-hoc-json) Chrome trace format
}
"""

SELF_TEST_GUARDED_RECORDING = """
void FlightRecorder::record(const Event &ev) {
    if (events.size() >= maxEvents) {
        ++dropped;
        return;
    }
    events.push_back(ev);
}
"""


def run_self_test():
    files = [(Path("src/noc/selftest.cc"), strip_comments(SELF_TEST_BAD))]
    findings = []
    findings += check_unordered_iteration(
        files, collect_unordered_names(files))
    findings += check_raw_flit_new(files)
    findings += check_nondeterminism(files)
    findings += check_shared_ptr_flit(files)
    findings += check_node_container_noc(files)
    findings += check_unbounded_recording(
        [(Path("src/telemetry/flight_recorder_bad.cc"),
          strip_comments(SELF_TEST_BAD_RECORDING))])
    findings += check_threading_scope(files)
    findings += check_coordinate_arithmetic(files)
    findings += check_table_row_construction(files)
    fired = {f.rule for f in findings}
    want = {"unordered-iteration", "raw-flit-new", "nondeterminism",
            "shared-ptr-flit", "node-container-noc",
            "unbounded-recording", "threading-outside-parallel",
            "coordinate-arithmetic", "table-row-outside-tables"}
    failures = want - fired
    for rule in sorted(want):
        status = "ok" if rule in fired else "MISSED"
        print("lint_inpg --self-test: %s: rule %s fires on the bad "
              "snippet" % (status, rule))

    sup = [(Path("src/noc/ok.cc"), strip_comments(SELF_TEST_SUPPRESSED))]
    leftover = check_nondeterminism(sup)
    if leftover:
        print("lint_inpg --self-test: MISSED: lint:allow suppression")
        failures.add("suppression")
    else:
        print("lint_inpg --self-test: ok: lint:allow suppresses a "
              "finding")

    # A capacity guard just above the growth call satisfies the
    # bounded-recording rule without a lint:allow marker.
    guarded = [(Path("src/telemetry/flight_recorder_ok.cc"),
                strip_comments(SELF_TEST_GUARDED_RECORDING))]
    if check_unbounded_recording(guarded):
        print("lint_inpg --self-test: MISSED: capacity guard exempts "
              "a growth call")
        failures.add("guarded-recording")
    else:
        print("lint_inpg --self-test: ok: capacity guard exempts a "
              "growth call")

    # Node containers stay legal outside src/noc (the coherence layer
    # keeps deques on its cold paths).
    coh = [(Path("src/coh/ok.cc"),
            strip_comments("std::deque<CohMsgPtr> deferred;\n"))]
    if check_node_container_noc(coh):
        print("lint_inpg --self-test: MISSED: node containers outside "
              "src/noc are exempt")
        failures.add("node-container-scope")
    else:
        print("lint_inpg --self-test: ok: node containers outside "
              "src/noc are exempt")

    # Threading primitives are legal inside the parallel kernel and
    # the harness thread pool.
    par = [(Path("src/sim/parallel/ok.hh"),
            strip_comments("std::atomic<bool> stopFlag{false};\n")),
           (Path("src/harness/ok.cc"),
            strip_comments("std::thread worker;\n"))]
    if check_threading_scope(par):
        print("lint_inpg --self-test: MISSED: threading inside "
              "src/sim/parallel and src/harness is exempt")
        failures.add("threading-scope")
    else:
        print("lint_inpg --self-test: ok: threading inside "
              "src/sim/parallel and src/harness is exempt")

    # Coordinate math is legal inside the Topology layer itself (the
    # decomposition in topology.cc and routing.cc is the one sanctioned
    # home for it).
    topo = [(Path("src/noc/topology.cc"),
             strip_comments("Coord c{id % cfg.meshWidth,"
                            " id / cfg.meshWidth};\n")),
            (Path("src/noc/routing.cc"),
             strip_comments("return c.y * meshWidth + c.x;\n"))]
    if check_coordinate_arithmetic(topo):
        print("lint_inpg --self-test: MISSED: coordinate math inside "
              "src/noc/topology* and src/noc/routing* is exempt")
        failures.add("coordinate-scope")
    else:
        print("lint_inpg --self-test: ok: coordinate math inside "
              "src/noc/topology* and src/noc/routing* is exempt")

    # Row construction is legal inside protocol_tables.cc itself (the
    # verified home) and in the header defining the table types.
    tables_home = [
        (Path("src/coh/protocol_tables.cc"),
         strip_comments("TransitionTable<L1State, L1Event> t(5, 9, {});"
                        "\nProtoTransition row{};\n")),
        (Path("src/coh/transition_table.hh"),
         strip_comments("TransitionTable<S, E> withRows(...) const;\n"))]
    if check_table_row_construction(tables_home):
        print("lint_inpg --self-test: MISSED: row construction inside "
              "src/coh/protocol_tables.cc is exempt")
        failures.add("table-row-scope")
    else:
        print("lint_inpg --self-test: ok: row construction inside "
              "src/coh/protocol_tables.cc is exempt")

    # ... and a deliberate rebuild elsewhere (the mutation harness)
    # passes with an explicit per-line opt-out.
    rebuild = [(Path("src/verify/ok.cc"), strip_comments(
        "auto t = prod.withRows(rows);"
        " // lint:allow(table-row-outside-tables)\n"))]
    if check_table_row_construction(rebuild):
        print("lint_inpg --self-test: MISSED: lint:allow exempts a "
              "deliberate withRows rebuild")
        failures.add("table-row-allow")
    else:
        print("lint_inpg --self-test: ok: lint:allow exempts a "
              "deliberate withRows rebuild")

    # A switch on a row's action is a finding in the model checker
    # (it would re-code the action) and legal in the shared actions.
    verify = [(Path("src/verify/model_check.cc"), strip_comments(
        "switch (a) {\n  case DirAction::TrimSharer:\n    break;\n}\n"))]
    if check_action_dispatch(verify):
        print("lint_inpg --self-test: ok: rule "
              "action-dispatch-outside-actions fires on a case "
              "DirAction:: in src/verify/")
    else:
        print("lint_inpg --self-test: MISSED: rule "
              "action-dispatch-outside-actions fires on a case "
              "DirAction:: in src/verify/")
        failures.add("action-dispatch-outside-actions")
    actions_home = [(Path("src/coh/protocol_actions.hh"), strip_comments(
        "switch (a) {\n  case DirAction::TrimSharer:\n    break;\n}\n"))]
    if check_action_dispatch(actions_home):
        print("lint_inpg --self-test: MISSED: "
              "src/coh/protocol_actions.* is exempt")
        failures.add("action-dispatch-scope")
    else:
        print("lint_inpg --self-test: ok: src/coh/protocol_actions.* is "
              "exempt")

    # Ad-hoc JSON emission fires on RAW text (the string literal is
    # the evidence) ...
    bad_json = [(Path("src/harness/bad_json.cc"), SELF_TEST_BAD_JSON)]
    if check_adhoc_json(bad_json):
        print("lint_inpg --self-test: ok: rule ad-hoc-json fires on "
              "the bad snippet")
    else:
        print("lint_inpg --self-test: MISSED: rule ad-hoc-json fires "
              "on the bad snippet")
        failures.add("ad-hoc-json")

    # ... stays legal inside the JsonValue implementation itself ...
    json_home = [(Path("src/telemetry/json.cc"), SELF_TEST_BAD_JSON)]
    if check_adhoc_json(json_home):
        print("lint_inpg --self-test: MISSED: src/telemetry/json.* is "
              "exempt from ad-hoc-json")
        failures.add("ad-hoc-json-scope")
    else:
        print("lint_inpg --self-test: ok: src/telemetry/json.* is "
              "exempt from ad-hoc-json")

    # ... and honors a per-line opt-out (the Chrome-trace writer emits
    # an externally specified format, not our schema).
    traced = [(Path("src/telemetry/trace_event_ok.cc"),
               SELF_TEST_ALLOWED_JSON)]
    if check_adhoc_json(traced):
        print("lint_inpg --self-test: MISSED: lint:allow exempts the "
              "Chrome-trace writer from ad-hoc-json")
        failures.add("ad-hoc-json-allow")
    else:
        print("lint_inpg --self-test: ok: lint:allow exempts the "
              "Chrome-trace writer from ad-hoc-json")

    # Comment text must never trip a rule (flit.hh documents the former
    # shared_ptr design in prose).
    commented = [(Path("src/noc/doc.hh"),
                  strip_comments("// drop-in for std::shared_ptr<Flit>\n"))]
    if check_shared_ptr_flit(commented):
        print("lint_inpg --self-test: MISSED: comments are exempt")
        failures.add("comments")
    else:
        print("lint_inpg --self-test: ok: comment text is exempt")

    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".",
                    help="repository root (contains src/)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the rules fire on embedded bad snippets "
                         "before linting")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print("lint_inpg: no src/ under %s" % root, file=sys.stderr)
        return 2

    if args.self_test and run_self_test() != 0:
        return 1

    findings = run_lint(root)
    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print("lint_inpg: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("lint_inpg: clean (%s)" % ", ".join(
        ("unordered-iteration", "raw-flit-new", "nondeterminism",
         "shared-ptr-flit", "node-container-noc",
         "unbounded-recording", "threading-outside-parallel",
         "coordinate-arithmetic", "table-row-outside-tables",
         "action-dispatch-outside-actions", "ad-hoc-json")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
