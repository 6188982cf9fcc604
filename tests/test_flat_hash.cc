/**
 * @file
 * FlatHashMap tests: randomized differential check against the
 * standard containers under the address distribution the directory
 * actually sees (line-aligned, hot-set skew), growth/rehash behavior,
 * backward-shift deletion, and an end-to-end golden-memory run whose
 * coherence results are pinned against tests/golden/.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "coh/coherent_system.hh"
#include "coh/golden_memory.hh"
#include "common/flat_hash_map.hh"
#include "common/rng.hh"
#include "golden.hh"
#include "sim/simulator.hh"

namespace inpg {
namespace {

/** Line-aligned address with a hot working set, as the directory sees. */
Addr
skewedLineAddr(Rng &rng, Addr line_size)
{
    const std::uint64_t line = rng.chance(0.75)
        ? rng.nextBounded(24)        // hot set
        : rng.nextBounded(4096);     // long cold tail
    return static_cast<Addr>(line) * line_size;
}

TEST(FlatHash, MirrorsUnorderedMapUnderSkewedAddrs)
{
    FlatHashMap<Addr, std::uint64_t> flat;
    std::unordered_map<Addr, std::uint64_t> mirror;
    Rng rng(2024);
    for (int op = 0; op < 200000; ++op) {
        const Addr a = skewedLineAddr(rng, 128);
        const std::uint64_t kind = rng.nextBounded(10);
        if (kind < 5) {
            const std::uint64_t v = rng.next();
            flat[a] = v;
            mirror[a] = v;
        } else if (kind < 8) {
            const std::uint64_t *f = flat.find(a);
            auto it = mirror.find(a);
            ASSERT_EQ(f != nullptr, it != mirror.end()) << "addr " << a;
            if (f)
                ASSERT_EQ(*f, it->second) << "addr " << a;
        } else {
            ASSERT_EQ(flat.erase(a), mirror.erase(a) != 0) << "addr " << a;
        }
        ASSERT_EQ(flat.size(), mirror.size());
    }
    // Full sweep both ways: every mirror entry is in the flat map with
    // the same value, and forEach visits exactly the mirror's entries.
    for (const auto &[k, v] : mirror) {
        const std::uint64_t *f = flat.find(k);
        ASSERT_NE(f, nullptr) << "addr " << k;
        ASSERT_EQ(*f, v) << "addr " << k;
    }
    std::size_t visited = 0;
    flat.forEach([&](const Addr &k, const std::uint64_t &v) {
        auto it = mirror.find(k);
        ASSERT_NE(it, mirror.end()) << "addr " << k;
        ASSERT_EQ(it->second, v) << "addr " << k;
        ++visited;
    });
    EXPECT_EQ(visited, mirror.size());
}

TEST(FlatHash, GrowthRehashPreservesEntries)
{
    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    EXPECT_EQ(flat.capacity(), 0u);
    const std::uint64_t n = 20000;
    for (std::uint64_t i = 0; i < n; ++i)
        flat[i * 128] = i;
    EXPECT_EQ(flat.size(), n);
    EXPECT_GT(flat.rehashes(), 0u);
    // Load factor stays at or under 3/4 after growth.
    EXPECT_GE(flat.capacity() * 3, flat.size() * 4);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t *v = flat.find(i * 128);
        ASSERT_NE(v, nullptr) << i;
        ASSERT_EQ(*v, i);
    }
    EXPECT_EQ(flat.find(n * 128), nullptr);
}

TEST(FlatHash, EraseBackwardShiftKeepsLookupsExact)
{
    // Erase every other entry, then every remaining entry, verifying
    // lookups after each deletion (backward-shift must never strand a
    // displaced key).
    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    std::map<std::uint64_t, std::uint64_t> mirror;
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
        // Clustered keys maximize probe-chain overlap.
        const std::uint64_t k = rng.nextBounded(512) * 128;
        flat[k] = k + 1;
        mirror[k] = k + 1;
    }
    bool toggle = false;
    for (auto it = mirror.begin(); it != mirror.end();) {
        toggle = !toggle;
        if (toggle) {
            ASSERT_TRUE(flat.erase(it->first));
            it = mirror.erase(it);
        } else {
            ++it;
        }
        if (mirror.size() % 16 == 0)
            for (const auto &[k, v] : mirror)
                ASSERT_NE(flat.find(k), nullptr) << "addr " << k;
    }
    for (const auto &[k, v] : mirror)
        ASSERT_TRUE(flat.erase(k));
    EXPECT_TRUE(flat.empty());
}

/** One run of randomized coherent traffic; everything it may differ in. */
struct TrafficResult {
    std::string goldenErr;
    std::size_t goldenLines = 0;
    Cycle finalCycle = 0;
    std::vector<std::uint64_t> loadedValues;
    std::map<std::string, std::uint64_t> cohCounters;
    std::map<std::string, std::uint64_t> nodeCounters;
};

TrafficResult
runCoherentTraffic()
{
    NocConfig nocCfg;
    nocCfg.meshWidth = 4;
    nocCfg.meshHeight = 4;
    CohConfig cohCfg;
    Simulator sim;
    CoherentSystem sys(nocCfg, cohCfg, sim);
    GoldenMemory golden;
    sys.setOpLog([&](const OpRecord &r) { golden.record(r); });

    TrafficResult res;
    Rng rng(4242);
    const int cores = sys.numCores();
    int outstanding = 0;
    for (int round = 0; round < 60; ++round) {
        // One op per core per round keeps every L1 at one pending op
        // while still racing cores against each other on the hot set.
        for (CoreId c = 0; c < cores; ++c) {
            const Addr a = skewedLineAddr(rng, cohCfg.lineSize);
            ++outstanding;
            if (rng.chance(0.5)) {
                sys.l1(c).issueLoad(a, false, [&res, &outstanding](
                                                  std::uint64_t v) {
                    res.loadedValues.push_back(v);
                    --outstanding;
                });
            } else {
                sys.l1(c).issueStore(a, rng.next(), false,
                                     [&outstanding](std::uint64_t) {
                                         --outstanding;
                                     });
            }
        }
        const bool ok =
            sim.runUntil([&] { return outstanding == 0; }, 2000000);
        EXPECT_TRUE(ok) << "round " << round << " timed out";
        if (!ok)
            break;
    }

    res.goldenErr = golden.verify();
    res.goldenLines = golden.size();
    res.finalCycle = sim.now();
    res.cohCounters = {{"early_inv_ack_rtt", sys.cohStats().rttEarly.count()},
                       {"home_inv_ack_rtt", sys.cohStats().rttHome.count()}};
    const auto collect = [&res](const std::string &prefix,
                                const StatGroup &g) {
        for (const auto &e : g.entries())
            if (e.counter)
                res.nodeCounters[prefix + e.name] += *e.counter;
    };
    for (CoreId c = 0; c < cores; ++c)
        collect("l1" + std::to_string(c) + ".", sys.l1(c).stats);
    for (NodeId n = 0; n < nocCfg.numNodes(); ++n)
        collect("dir" + std::to_string(n) + ".", sys.directory(n).stats);
    return res;
}

TEST(FlatHash, CoherentTrafficMatchesGolden)
{
    // Racing loads/stores over a skewed line set on a 4x4 mesh: the
    // directory and L1 line tables take every insert/lookup/erase path.
    const TrafficResult r = runCoherentTraffic();
    EXPECT_EQ(r.goldenErr, "");
    std::ostringstream os;
    os << "golden_lines " << r.goldenLines << "\n"
       << "final_cycle " << r.finalCycle << "\n"
       << "loads " << r.loadedValues.size() << "\n";
    std::string loaded;
    for (std::uint64_t v : r.loadedValues)
        loaded += std::to_string(v) + ",";
    os << "loaded_values_fnv1a " << std::hex << fnv1a64(loaded) << std::dec
       << "\n";
    for (const auto &[k, v] : r.cohCounters)
        if (v)
            os << "coh." << k << " " << v << "\n";
    for (const auto &[k, v] : r.nodeCounters)
        if (v)
            os << k << " " << v << "\n";
    expectMatchesGolden("flat_hash_coherent_traffic.txt", os.str());
}

} // namespace
} // namespace inpg
