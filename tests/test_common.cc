/**
 * @file
 * Unit tests for the common substrate: RNG, histogram, configuration,
 * string utilities, statistics and logging.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "telemetry/stats_registry.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    std::uint64_t x = r.next();
    EXPECT_NE(x | r.next() | r.next(), 0u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(13), 13u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(9);
    bool seen[8] = {};
    for (int i = 0; i < 500; ++i)
        seen[r.nextBounded(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    bool lo = false;
    bool hi = false;
    for (int i = 0; i < 500; ++i) {
        auto v = r.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        lo |= v == 3;
        hi |= v == 6;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanApproximatelyHonored)
{
    Rng r(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.nextGeometric(100.0));
    double mean = sum / n;
    EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng r(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.nextGeometric(1.5), 1u);
    EXPECT_EQ(r.nextGeometric(1.0), 1u);
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(Histogram, BinsAndOverflow)
{
    Histogram h(10, 4); // bins [0-9] [10-19] [20-29] [30-39], overflow
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(39);
    h.add(40);
    h.add(1000);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 0u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, MeanOfEmptyAndFilled)
{
    Histogram h(5, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.add(10);
    h.add(20);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, PercentileAtBinGranularity)
{
    Histogram h(10, 10);
    for (int i = 0; i < 90; ++i)
        h.add(5); // bin 0
    for (int i = 0; i < 10; ++i)
        h.add(95); // bin 9
    EXPECT_EQ(h.percentile(0.5), 9u);   // upper edge of bin 0
    EXPECT_EQ(h.percentile(0.99), 99u); // upper edge of bin 9

    // Fewer than one sample's worth of rank still needs one sample.
    Histogram one(5, 40);
    one.add(37);
    EXPECT_EQ(one.percentile(0.5), 39u);
    Histogram ten(5, 40);
    for (int i = 0; i < 10; ++i)
        ten.add(100);
    EXPECT_EQ(ten.percentile(0.05), 104u);
}

TEST(Histogram, RenderListsNonEmptyBins)
{
    Histogram h(10, 4);
    h.add(5);
    h.add(100);
    std::string out = h.render();
    EXPECT_NE(out.find("[0-9]"), std::string::npos);
    EXPECT_NE(out.find(">"), std::string::npos);
    EXPECT_EQ(out.find("[10-19]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------

TEST(Config, ParseStringWithCommentsAndOverrides)
{
    Config c;
    c.loadString("a = 1\n# comment\nb = hello # trailing\n a = 2 \n");
    EXPECT_EQ(c.getInt("a", 0), 2);
    EXPECT_EQ(c.getString("b"), "hello");
    EXPECT_FALSE(c.has("comment"));
}

TEST(Config, TypedGettersAndFallbacks)
{
    Config c;
    c.loadString("i = 42\nd = 2.5\nt = true\nf = off\n");
    EXPECT_EQ(c.getInt("i", -1), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 2.5);
    EXPECT_TRUE(c.getBool("t", false));
    EXPECT_FALSE(c.getBool("f", true));
    EXPECT_EQ(c.getInt("missing", 7), 7);
}

TEST(Config, ArgsParsing)
{
    const char *argv[] = {"prog", "x=3", "verb", "y=z"};
    Config c;
    c.loadArgs(4, argv);
    EXPECT_EQ(c.getInt("x", 0), 3);
    EXPECT_EQ(c.getString("y"), "z");
    EXPECT_FALSE(c.has("verb"));
}

TEST(Config, ArgsDashedForms)
{
    // '=' form and space form must behave identically, bare switches
    // become "1", and dashes map to underscores.
    const char *argv[] = {"prog",        "--trace-out=run.json",
                          "--mesh-width", "4",
                          "--csv",        "--lock-home", "-1",
                          "x=3"};
    Config c;
    c.loadArgs(8, argv);
    EXPECT_EQ(c.getString("trace_out"), "run.json");
    EXPECT_EQ(c.getInt("mesh_width", 0), 4);
    EXPECT_TRUE(c.getBool("csv", false));
    EXPECT_EQ(c.getInt("lock_home", 0), -1);
    EXPECT_EQ(c.getInt("x", 0), 3);
}

TEST(Config, ArgsTrailingSwitchIsBoolean)
{
    const char *argv[] = {"prog", "--dump-stats"};
    Config c;
    c.loadArgs(2, argv);
    EXPECT_TRUE(c.getBool("dump_stats", false));
}

TEST(Config, ArgsStrictRejectsUnknownFlags)
{
    const std::vector<std::string> known = {"mesh_width", "csv"};
    {
        const char *argv[] = {"prog", "--mesh-width=4", "--csv"};
        Config c;
        c.loadArgs(3, argv, known); // all known: fine
        EXPECT_EQ(c.getInt("mesh_width", 0), 4);
    }
    {
        const char *argv[] = {"prog", "--mesh-widht=4"}; // typo
        Config c;
        EXPECT_THROW(c.loadArgs(2, argv, known), FatalError);
    }
    {
        const char *argv[] = {"prog", "stray"}; // positional
        Config c;
        EXPECT_THROW(c.loadArgs(2, argv, known), FatalError);
    }
}

TEST(Config, MalformedLineIsFatal)
{
    Config c;
    EXPECT_THROW(c.loadString("oops\n"), FatalError);
    EXPECT_THROW(c.loadFile("/nonexistent/path/cfg"), FatalError);
}

// ---------------------------------------------------------------------
// strutil
// ---------------------------------------------------------------------

TEST(StrUtil, TrimSplitLower)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("freqmine", "freq"));
    EXPECT_FALSE(startsWith("f", "freq"));
}

TEST(StrUtil, Padding)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("abcdef", 3), "abc");
}

TEST(StrUtil, Parsers)
{
    EXPECT_EQ(parseInt("0x10"), 16);
    EXPECT_EQ(parseInt(" -5 "), -5);
    EXPECT_DOUBLE_EQ(parseDouble("1.5e2"), 150.0);
    EXPECT_TRUE(parseBool("Yes"));
    EXPECT_THROW(parseInt("12abc"), FatalError);
    EXPECT_THROW(parseDouble(""), FatalError);
    EXPECT_THROW(parseBool("maybe"), FatalError);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/** A stat group declared out of name order. */
struct ToyStats : StatGroup {
    Counter misses{*this, "misses"};
    Counter hits{*this, "hits"};
    Sample lat{*this, "lat"};
    Sample idle{*this, "idle"};
};

TEST(Stats, CountersAndSamples)
{
    ToyStats g;
    const auto listed = [&g] {
        return StatsRegistry::groupToJson(g).dump();
    };
    // Nothing is listed until it has been bumped.
    EXPECT_EQ(listed(), "{\"counters\":{},\"samples\":{}}");

    ++g.misses;
    g.misses += 2;
    EXPECT_EQ(g.misses, 3u);
    EXPECT_EQ(g.value("misses"), 3u);
    EXPECT_EQ(g.value("hits"), 0u);
    EXPECT_EQ(listed(), "{\"counters\":{\"misses\":3},\"samples\":{}}");
    ++g.hits;
    EXPECT_EQ(listed(),
              "{\"counters\":{\"hits\":1,\"misses\":3},\"samples\":{}}");

    g.lat.add(10);
    g.lat.add(30);
    EXPECT_DOUBLE_EQ(g.sampleValue("lat").mean(), 20.0);
    EXPECT_DOUBLE_EQ(g.sampleValue("lat").min(), 10.0);
    EXPECT_DOUBLE_EQ(g.sampleValue("lat").max(), 30.0);
    EXPECT_EQ(listed(), "{\"counters\":{\"hits\":1,\"misses\":3},"
                        "\"samples\":{\"lat\":{\"count\":2,\"sum\":40,"
                        "\"mean\":20,\"min\":10,\"max\":30}}}");

    // Every declared stat is enumerated in name order, zero or not.
    std::string names;
    for (const auto &e : g.entries())
        names += std::string(e.name) + (e.counter ? "," : ";");
    EXPECT_EQ(names, "hits,idle;lat;misses,");

    // Undeclared names (and names of the other kind) read as zero.
    EXPECT_EQ(g.value("absent"), 0u);
    EXPECT_EQ(g.value("lat"), 0u);
    EXPECT_EQ(g.sampleValue("nothing").count(), 0u);
    EXPECT_EQ(g.sampleValue("hits").count(), 0u);
}

TEST(Stats, DeclaringANameTwiceIsFatal)
{
    struct Twice : StatGroup {
        Counter a{*this, "x"};
        Sample b{*this, "x"};
    };
    EXPECT_DEATH({ Twice t; }, "stat 'x' declared twice");
}

TEST(Stats, RegisteringANameTwiceIsFatal)
{
    struct One : StatGroup {
        Counter a{*this, "a"};
    } g;
    StatsRegistry reg;
    reg.addGroup("l1.0", &g);
    reg.addScalar("l1.0", [] { return 1.0; }); // another section: fine
    EXPECT_DEATH(reg.addGroup("l1.0", &g), "group 'l1.0' registered twice");
    EXPECT_DEATH(reg.addScalar("l1.0", [] { return 2.0; }),
                 "scalar 'l1.0' registered twice");
}

TEST(Logging, FatalThrowsPanicKillsNot)
{
    EXPECT_THROW(fatal("bad user input %d", 1), FatalError);
    try {
        fatal("code %d", 42);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
    }
}

} // namespace
} // namespace inpg
