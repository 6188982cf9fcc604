/**
 * @file
 * Experiment-ledger tests: the JSON reader's round-trip guarantee
 * (parse(dump(x)).dump() == dump(x), signedness and escape handling),
 * the RunRecord canonical serialization contract, schema-version
 * refusal, configKey pairing semantics, torn-line-free concurrent
 * ledger appends, the determinism of the diff / regress reports built
 * on top, and the figures' seed-mean arithmetic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/figures.hh"
#include "telemetry/json.hh"
#include "telemetry/report.hh"
#include "telemetry/run_record.hh"

namespace inpg {
namespace {

/** A fully populated record; knobs cover the pairing identity. */
RunRecord
makeRecord(const std::string &mech, const std::string &lock,
           std::uint64_t seed, std::uint64_t roi_cycles)
{
    RunRecord rec;
    rec.gitSha = "abc1234";
    rec.gitDirty = true;
    rec.compiler = "test-compiler 1.0";
    rec.benchmark = "freq";
    rec.mechanism = mech;
    rec.lock = lock;
    rec.topology = "mesh:4x4";
    rec.cores = 16;
    rec.bigRouters = 1;
    rec.threads = 1;
    rec.seed = seed;
    rec.csScale = 0.05;
    rec.barrierEntries = 16;
    rec.eiEntries = 16;
    rec.barrierTtl = 128;
    rec.spinInterval = 16;
    rec.contextSwitchCost = 1500;
    rec.wakeupCost = 1500;
    rec.numLocks = 1;
    rec.roiCycles = roi_cycles;
    rec.csCompleted = 320;
    rec.parallelCycles = roi_cycles / 2;
    rec.cohCycles = roi_cycles / 8;
    rec.sleepCycles = 17;
    rec.cseCycles = 23;
    rec.lockCohCycles = roi_cycles / 16;
    rec.rttMean = 41.25;
    rec.rttMax = 96;
    rec.rttCount = 320;
    rec.earlyInvs = 7;
    rec.sleeps = 3;
    rec.wakeups = 3;
    return rec;
}

TEST(JsonReader, RoundTripPreservesEmittedForms)
{
    JsonValue doc = JsonValue::object();
    doc["escapes"] = "quote \" backslash \\ newline \n tab \t ctl \x01";
    doc["uint_max"] = static_cast<std::uint64_t>(18446744073709551615ull);
    doc["negative"] = -42;
    doc["zero"] = static_cast<std::uint64_t>(0);
    doc["fraction"] = 0.25;
    doc["tiny"] = 1e-3;
    doc["truth"] = true;
    doc["nothing"] = JsonValue();
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(1));
    arr.push(JsonValue("two"));
    JsonValue inner = JsonValue::object();
    inner["k"] = 3.5;
    arr.push(std::move(inner));
    doc["mixed"] = std::move(arr);

    for (int indent : {0, 2}) {
        const std::string text = doc.dump(indent);
        std::string err;
        JsonValue back = JsonValue::parse(text, &err);
        EXPECT_TRUE(err.empty()) << err;
        // Byte-identical re-serialization: unsigned stays unsigned,
        // doubles re-print identically, key order survives.
        EXPECT_EQ(back.dump(indent), text);
    }

    // Signedness is preserved, not collapsed to double.
    JsonValue back = JsonValue::parse(doc.dump(0));
    EXPECT_EQ(back.at("uint_max").type(), JsonValue::Kind::Uint);
    EXPECT_EQ(back.at("uint_max").asUint(), 18446744073709551615ull);
    EXPECT_EQ(back.at("negative").type(), JsonValue::Kind::Int);
    EXPECT_EQ(back.at("negative").asInt(), -42);
    EXPECT_EQ(back.at("escapes").asString(),
              doc.at("escapes").asString());
}

TEST(JsonReader, RejectsMalformedInput)
{
    const char *bad[] = {
        "{} trailing",     // trailing garbage
        "{\"a\":}",        // missing value
        "[1,",             // unterminated array
        "\"open string",   // unterminated string
        "{\"a\" 1}",       // missing colon
        "01",              // leading zero
        "",                // empty document
    };
    for (const char *text : bad) {
        std::string err;
        JsonValue v = JsonValue::parse(text, &err);
        EXPECT_TRUE(v.isNull()) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(RunRecord, CanonicalSerializationRoundTrips)
{
    RunRecord rec = makeRecord("iNPG", "QSL", 1, 1000000);
    rec.lco["acquires"] = static_cast<std::uint64_t>(320);
    rec.timeseries["samples"] = static_cast<std::uint64_t>(64);
    rec.stats["sim"]["roi_cycles"] = rec.roiCycles;

    const std::string line = rec.toJson().dump(0);
    std::string err;
    JsonValue doc = JsonValue::parse(line, &err);
    ASSERT_TRUE(err.empty()) << err;

    RunRecord back = RunRecord::fromJson(doc, &err);
    EXPECT_TRUE(err.empty()) << err;
    // serialize -> parse -> re-serialize is byte-identical (the
    // canonical fixed-key-order contract ledger diffs rely on).
    EXPECT_EQ(back.toJson().dump(0), line);
    EXPECT_EQ(back.configKey(), rec.configKey());
    EXPECT_EQ(back.seed, rec.seed);
    EXPECT_EQ(back.rttMean, rec.rttMean);
    EXPECT_EQ(back.stats.at("sim").at("roi_cycles").asUint(),
              rec.roiCycles);
}

TEST(RunRecord, RefusesForeignDocuments)
{
    // Wrong tag.
    JsonValue other = JsonValue::object();
    other["record"] = "something-else";
    other["schema_version"] = RUN_RECORD_SCHEMA_VERSION;
    std::string err;
    RunRecord rec = RunRecord::fromJson(other, &err);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(rec.benchmark, "");

    // Future schema version: refuse, never mis-parse.
    JsonValue future = makeRecord("iNPG", "QSL", 1, 100).toJson();
    future["schema_version"] = RUN_RECORD_SCHEMA_VERSION + 1;
    err.clear();
    RunRecord rec2 = RunRecord::fromJson(future, &err);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(rec2.benchmark, "");
}

TEST(RunRecord, SchemaVersionCompatibility)
{
    JsonValue doc = JsonValue::object();
    std::string why;
    EXPECT_FALSE(schemaVersionCompatible(doc, 1, &why));
    EXPECT_FALSE(why.empty());

    doc["schema_version"] = 2;
    EXPECT_FALSE(schemaVersionCompatible(doc, 1, &why));
    EXPECT_NE(why.find("2"), std::string::npos);

    doc["schema_version"] = 1;
    EXPECT_TRUE(schemaVersionCompatible(doc, 1));
}

TEST(RunRecord, ConfigKeyPairsAcrossThreadsAndSplitsFigureKnobs)
{
    RunRecord a = makeRecord("iNPG", "QSL", 1, 100);
    RunRecord b = a;
    // threads is documented bit-identical in simulated results, so it
    // is excluded from the pairing identity.
    b.threads = 4;
    EXPECT_EQ(a.configKey(), b.configKey());

    RunRecord c = a;
    c.seed = 2;
    EXPECT_NE(a.configKey(), c.configKey());
    RunRecord d = a;
    d.lock = "MCS";
    EXPECT_NE(a.configKey(), d.configKey());

    // Every knob a figure sweeps is part of the identity: Fig. 15's
    // table sizes and the ablations' TTL / spin / OS-cost points must
    // not collapse onto one key.
    std::vector<RunRecord> knobs(7, a);
    knobs[0].barrierEntries = 4;
    knobs[1].eiEntries = 4;
    knobs[2].barrierTtl = 512;
    knobs[3].spinInterval = 64;
    knobs[4].contextSwitchCost = 500;
    knobs[5].wakeupCost = 500;
    knobs[6].numLocks = 4;
    std::set<std::string> keys{a.configKey()};
    for (const RunRecord &k : knobs)
        keys.insert(k.configKey());
    EXPECT_EQ(keys.size(), knobs.size() + 1);

    // A pinned lock home (Fig. 10's tile (5,6)) splits the identity;
    // a record that never had the key reads back as "none" and pairs
    // with an unpinned run.
    RunRecord e = a;
    e.lockHome = "53";
    EXPECT_NE(a.configKey(), e.configKey());
    JsonValue doc = a.toJson();
    JsonValue cfg = JsonValue::object();
    for (const auto &[key, v] : doc.at("config").members())
        if (key != "lock_home")
            cfg[key] = v;
    doc["config"] = std::move(cfg);
    const RunRecord old = RunRecord::fromJson(doc);
    EXPECT_EQ(old.lockHome, "none");
    EXPECT_EQ(old.configKey(), a.configKey());
}

TEST(RunRecord, RttAndPhasesSectionsRoundTrip)
{
    RunRecord rec = makeRecord("iNPG", "TAS", 1, 5000);
    Histogram live(5, 4);
    for (std::uint64_t v : {3, 7, 7, 12, 19, 44, 250})
        live.add(v);
    rec.rtt = RunRtt{{12.5, 0, 1.0 / 3}, 4, 3, live};
    rec.phases = {{{0, 0}, {120, 1}, {180, 3}, {260, 4}},
                  {{0, 0}, {90, 2}}};

    const std::string line = rec.toJson().dump(0);
    std::string err;
    const RunRecord back =
        RunRecord::fromJson(JsonValue::parse(line), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.toJson().dump(0), line);

    ASSERT_TRUE(back.rtt.has_value());
    EXPECT_EQ(back.rtt->perCoreMean, rec.rtt->perCoreMean);
    EXPECT_EQ(back.rtt->earlyCount, 4u);
    EXPECT_EQ(back.rtt->homeCount, 3u);
    const Histogram &h = back.rtt->histogram;
    EXPECT_EQ(h.count(), live.count());
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.mean(), live.mean());
    EXPECT_EQ(h.min(), live.min());
    EXPECT_EQ(h.max(), live.max());
    EXPECT_EQ(h.percentile(0.95), live.percentile(0.95));
    EXPECT_EQ(h.render(), live.render());
    ASSERT_EQ(back.phases.size(), 2u);
    EXPECT_EQ(back.phases[0][2].at, 180u);
    EXPECT_EQ(back.phases[0][2].phase, 3);
    EXPECT_EQ(back.phases[1][1].phase, 2);

    // Absent sections are not emitted and read back absent.
    const JsonValue bare = makeRecord("iNPG", "TAS", 1, 5000).toJson();
    EXPECT_FALSE(bare.contains("rtt"));
    EXPECT_FALSE(bare.contains("phases"));
    const RunRecord bare_back = RunRecord::fromJson(bare);
    EXPECT_FALSE(bare_back.rtt.has_value());
    EXPECT_TRUE(bare_back.phases.empty());
}

TEST(ExperimentLedger, ConcurrentAppendsNeverTearLines)
{
    const std::string path = "test_run_record_ledger.jsonl";
    std::remove(path.c_str());
    {
        ExperimentLedger ledger(path);
        ASSERT_TRUE(ledger.ok());
        constexpr int WRITERS = 4;
        constexpr int PER_WRITER = 25;
        std::vector<std::thread> pool;
        for (int w = 0; w < WRITERS; ++w) {
            pool.emplace_back([&ledger, w] {
                for (int i = 0; i < PER_WRITER; ++i) {
                    const std::uint64_t seed =
                        static_cast<std::uint64_t>(w * PER_WRITER + i);
                    ledger.append(
                        makeRecord("iNPG", "QSL", seed, 1000 + seed));
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        EXPECT_EQ(ledger.appended(), 100u);
    }

    // Every line parses back as a full record (no torn writes) and
    // every seed arrived exactly once.
    std::string err;
    std::vector<RunRecord> records = ExperimentLedger::load(path, &err);
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_EQ(records.size(), 100u);
    std::set<std::uint64_t> seeds;
    for (const RunRecord &rec : records) {
        EXPECT_EQ(rec.benchmark, "freq");
        seeds.insert(rec.seed);
    }
    EXPECT_EQ(seeds.size(), 100u);
    std::remove(path.c_str());
}

TEST(Report, DiffPairsByConfigAndCatchesDeltas)
{
    std::vector<RunRecord> a = {makeRecord("Original", "TAS", 1, 5000),
                                makeRecord("iNPG", "TAS", 1, 4000),
                                makeRecord("iNPG", "QSL", 1, 3000)};
    std::vector<RunRecord> b = a;

    DiffResult same = diffLedgers(a, b);
    EXPECT_TRUE(same.identical());
    EXPECT_EQ(same.pairedConfigs, 3u);
    // Deterministic rendering: the same inputs produce the same text.
    EXPECT_EQ(same.render(), diffLedgers(a, b).render());

    b[1].roiCycles += 1;
    DiffResult changed = diffLedgers(a, b);
    ASSERT_EQ(changed.deltas.size(), 1u);
    EXPECT_EQ(changed.deltas[0].metric, "roi_cycles");
    EXPECT_EQ(changed.deltas[0].configKey, a[1].configKey());

    // Unpaired configurations are reported on both sides.
    b.pop_back();
    b.push_back(makeRecord("OCOR", "QSL", 1, 2500));
    DiffResult moved = diffLedgers(a, b);
    ASSERT_EQ(moved.onlyInA.size(), 1u);
    ASSERT_EQ(moved.onlyInB.size(), 1u);
    EXPECT_EQ(moved.onlyInA[0], a[2].configKey());
}

TEST(Report, RegressGatesFreshAgainstBaseline)
{
    std::vector<RunRecord> baseline = {
        makeRecord("Original", "TAS", 1, 5000),
        makeRecord("iNPG", "TAS", 1, 4000)};

    // Identical reproduction passes; extra fresh-only runs stay legal
    // (ledgers grow append-only).
    std::vector<RunRecord> fresh = baseline;
    fresh.push_back(makeRecord("iNPG", "QSL", 1, 3000));
    RegressResult pass = regressLedger(fresh, baseline);
    EXPECT_TRUE(pass.pass);
    EXPECT_NE(pass.render().find("PASS"), std::string::npos);

    // A metric delta fails the gate.
    fresh[0].lockCohCycles += 1;
    RegressResult delta = regressLedger(fresh, baseline);
    EXPECT_FALSE(delta.pass);
    EXPECT_NE(delta.render().find("FAIL"), std::string::npos);

    // A baseline configuration missing from the fresh ledger fails.
    std::vector<RunRecord> partial = {baseline[0]};
    EXPECT_FALSE(regressLedger(partial, baseline).pass);
}

TEST(Figures, LcoShareIsRatioOfSeedMeans)
{
    // Two seeds whose per-seed LCO shares are 10% and 3.33%: the mean
    // of the ratios would be 6.7%, the ratio of the seed means
    // 1600 / (2000 x 16) is 5.0%.
    std::vector<RunRecord> records = {
        makeRecord("Original", "TAS", 1, 1000),
        makeRecord("Original", "TAS", 2, 3000)};
    for (RunRecord &r : records)
        r.lockCohCycles = 1600;
    const std::vector<const RunRecord *> runs{&records[0], &records[1]};
    EXPECT_DOUBLE_EQ(lcoShare(runs), 0.05);
    EXPECT_DOUBLE_EQ(seedMean(runs, &RunRecord::roiCycles), 2000.0);
    // A member function averages like a member: COH is ROI / 8, CSE 23.
    EXPECT_DOUBLE_EQ(seedMean(runs, &RunRecord::csTotalCycles),
                     (125 + 23 + 375 + 23) / 2.0);
    EXPECT_EQ(seedMean({}, &RunRecord::roiCycles), 0.0);
    EXPECT_EQ(lcoShare({}), 0.0);
}

} // namespace
} // namespace inpg
