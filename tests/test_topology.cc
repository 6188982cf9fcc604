/**
 * @file
 * Topology-layer tests: spec parsing and the config surface (incl. the
 * deprecated mesh= shim and named presets), torus dateline routing
 * properties, channel-dependency acyclicity across fabrics with the
 * no-escape-VC torus as the negative control, big-router placement,
 * determinism fingerprints for torus and cmesh under both kernels, and
 * the 32x32 (1024-core) big-router-placement sweep end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coh/protocol_verify.hh"
#include "common/config.hh"
#include "harness/presets.hh"
#include "harness/sweep_runner.hh"
#include "harness/system.hh"
#include "noc/topology.hh"
#include "workload/benchmark_profile.hh"
#include "workload/workload.hh"

namespace inpg {
namespace {

// ---------------------------------------------------------------------
// TopologySpec parsing
// ---------------------------------------------------------------------

TEST(TopologySpec, ParsesAllThreeForms)
{
    TopologySpec mesh = TopologySpec::parse("mesh:16x16");
    EXPECT_EQ(mesh.kind, TopologyKind::Mesh);
    EXPECT_EQ(mesh.width, 16);
    EXPECT_EQ(mesh.height, 16);
    EXPECT_EQ(mesh.concentration, 1);

    TopologySpec torus = TopologySpec::parse("torus:8x8");
    EXPECT_EQ(torus.kind, TopologyKind::Torus);
    EXPECT_EQ(torus.width, 8);
    EXPECT_EQ(torus.height, 8);

    TopologySpec cmesh = TopologySpec::parse("cmesh:8x8x4");
    EXPECT_EQ(cmesh.kind, TopologyKind::CMesh);
    EXPECT_EQ(cmesh.width, 8);
    EXPECT_EQ(cmesh.height, 8);
    EXPECT_EQ(cmesh.concentration, 4);
}

TEST(TopologySpec, BareGeometryIsAMesh)
{
    TopologySpec spec = TopologySpec::parse("4x6");
    EXPECT_EQ(spec.kind, TopologyKind::Mesh);
    EXPECT_EQ(spec.width, 4);
    EXPECT_EQ(spec.height, 6);
    EXPECT_EQ(spec.canonical(), "mesh:4x6");
}

TEST(TopologySpec, StrictUnknownValueErrors)
{
    EXPECT_THROW(TopologySpec::parse("ring:4x4"), FatalError);
    EXPECT_THROW(TopologySpec::parse("mesh:0x4"), FatalError);
    EXPECT_THROW(TopologySpec::parse("mesh:4"), FatalError);
    EXPECT_THROW(TopologySpec::parse("mesh:4x4x2"), FatalError);
    EXPECT_THROW(TopologySpec::parse("cmesh:4x4"), FatalError);
    EXPECT_THROW(TopologySpec::parse("cmesh:4x4x0"), FatalError);
    EXPECT_THROW(TopologySpec::parse("torus:axb"), FatalError);
    EXPECT_THROW(TopologySpec::parse(""), FatalError);
}

TEST(TopologySpec, CanonicalRoundTrips)
{
    for (const char *s : {"mesh:8x8", "torus:8x8", "cmesh:8x8x4"}) {
        TopologySpec spec = TopologySpec::parse(s);
        EXPECT_EQ(spec.canonical(), s);
        TopologySpec again = TopologySpec::parse(spec.canonical());
        EXPECT_EQ(again.kind, spec.kind);
        EXPECT_EQ(again.width, spec.width);
        EXPECT_EQ(again.concentration, spec.concentration);
    }
}

// ---------------------------------------------------------------------
// Config surface (topology=, the mesh= shim, presets)
// ---------------------------------------------------------------------

Config
makeConfig(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"test"};
    for (const auto &a : args)
        argv.push_back(a.c_str());
    Config cfg;
    cfg.loadArgs(static_cast<int>(argv.size()), argv.data());
    return cfg;
}

TEST(TopologyConfig, LoadArgsAllThreeForms)
{
    {
        SystemConfig sc;
        sc.applyOverrides(makeConfig({"topology=mesh:16x16"}));
        EXPECT_EQ(sc.noc.topology, TopologyKind::Mesh);
        EXPECT_EQ(sc.noc.meshWidth, 16);
        EXPECT_EQ(sc.numCores(), 256);
    }
    {
        SystemConfig sc;
        sc.applyOverrides(makeConfig({"topology=torus:8x8"}));
        EXPECT_EQ(sc.noc.topology, TopologyKind::Torus);
        EXPECT_EQ(sc.numCores(), 64);
        EXPECT_TRUE(sc.noc.escapeVcs);
    }
    {
        SystemConfig sc;
        sc.applyOverrides(makeConfig({"topology=cmesh:8x8x4"}));
        EXPECT_EQ(sc.noc.topology, TopologyKind::CMesh);
        EXPECT_EQ(sc.noc.concentration, 4);
        EXPECT_EQ(sc.numCores(), 256);
    }
}

TEST(TopologyConfig, UnknownTopologyIsFatal)
{
    SystemConfig sc;
    EXPECT_THROW(sc.applyOverrides(makeConfig({"topology=ring:4x4"})),
                 FatalError);
}

TEST(TopologyConfig, PresetsExpand)
{
    ASSERT_NE(lookupTopologyPreset("32x32"), nullptr);
    EXPECT_EQ(lookupTopologyPreset("not-a-preset"), nullptr);
    SystemConfig sc;
    sc.applyOverrides(makeConfig({"topology=32x32"}));
    EXPECT_EQ(sc.numCores(), 1024);
    SystemConfig cm;
    cm.applyOverrides(makeConfig({"topology=1024c"}));
    EXPECT_EQ(cm.noc.topology, TopologyKind::CMesh);
    EXPECT_EQ(cm.numCores(), 1024);
    EXPECT_EQ(cm.noc.meshWidth, 16);
}

TEST(TopologyConfig, ConcentrationRequiresCmesh)
{
    SystemConfig sc;
    sc.noc.concentration = 4; // without topology=cmesh
    EXPECT_THROW(sc.finalize(), FatalError);
}

TEST(TopologyConfig, TorusEscapeVcsNeedEvenVcs)
{
    SystemConfig sc;
    sc.applyOverrides(makeConfig({"topology=torus:4x4"}));
    sc.noc.vcsPerVnet = 3;
    EXPECT_THROW(sc.finalize(), FatalError);
}

TEST(TopologyConfig, BadVcShapesAreFatal)
{
    // Rejected at config time, before any router is built.
    for (const char *arg :
         {"vcs_per_vnet=0", "vcs_per_vnet=9", "vc_depth=0", "vc_depth=65",
          "vc_depth=100000000"}) {
        SystemConfig sc;
        EXPECT_THROW(sc.applyOverrides(makeConfig({arg})), FatalError)
            << arg;
    }
    SystemConfig deepest;
    EXPECT_NO_THROW(deepest.applyOverrides(makeConfig({"vc_depth=64"})));
    SystemConfig sc;
    sc.noc.numVnets = 1;
    sc.noc.vcsPerVnet = 33;
    EXPECT_THROW(sc.finalize(), FatalError);
}

TEST(TopologyConfig, ThirtyTwoVcsPerPortRun)
{
    // 4 vnets x 8 VCs fills the router's 32-bit per-port VC masks.
    SystemConfig sc;
    sc.applyOverrides(
        makeConfig({"topology=mesh:4x4", "vcs_per_vnet=8", "lock=tas"}));
    ASSERT_EQ(sc.noc.totalVcs(), 32);
    System system(sc);
    Workload::Params wp;
    wp.profile = benchmarkByName("ferret");
    wp.threads = sc.numCores();
    wp.csScale = 0.02;
    wp.lockKind = sc.lockKind;
    Workload w(wp, system.coherent(), system.locks(), system.sim());
    w.start();
    system.runUntil([&] { return w.done(); });
    EXPECT_EQ(w.csCompleted(),
              static_cast<std::uint64_t>(w.csTargetPerThread()) *
                  static_cast<std::uint64_t>(sc.numCores()));
}

// ---------------------------------------------------------------------
// Topology object: geometry, links, placement
// ---------------------------------------------------------------------

NocConfig
nocFor(const char *spec_text)
{
    NocConfig cfg;
    TopologySpec::parse(spec_text).applyTo(cfg);
    return cfg;
}

TEST(TopologyObject, TorusNeighborsWrap)
{
    auto topo = makeTopology(nocFor("torus:4x4"));
    EXPECT_EQ(topo->neighbor(0, Direction::West), 3);
    EXPECT_EQ(topo->neighbor(0, Direction::North), 12);
    EXPECT_EQ(topo->neighbor(3, Direction::East), 0);
    EXPECT_EQ(topo->neighbor(15, Direction::South), 3);
    // Wrap halves the worst-case distance.
    EXPECT_EQ(topo->hopDistance(0, 15), 2);
    EXPECT_EQ(topo->hopDistance(0, 3), 1);
}

TEST(TopologyObject, TorusLinkEnumerationHasWrapEdges)
{
    auto topo = makeTopology(nocFor("torus:4x4"));
    int wraps = 0;
    for (const TopoLink &l : topo->links()) {
        if (l.wrap)
            ++wraps;
        EXPECT_EQ(topo->neighbor(l.from, l.dir), l.to);
    }
    // One wrap per row (East) plus one per column (South).
    EXPECT_EQ(wraps, 8);
    // 2 links per router in the canonical {East, South} enumeration.
    EXPECT_EQ(topo->links().size(), 32u);
}

TEST(TopologyObject, MeshLinksMatchLegacyChannelOrder)
{
    auto topo = makeTopology(nocFor("mesh:3x3"));
    // Ascending router id x {East, South}, no wraps, edge routers
    // simply skip absent directions -- the exact order the
    // pre-Topology mesh builder wired channels in.
    const auto links = topo->links();
    ASSERT_EQ(links.size(), 12u);
    EXPECT_EQ(links[0].from, 0);
    EXPECT_EQ(links[0].dir, Direction::East);
    EXPECT_EQ(links[1].from, 0);
    EXPECT_EQ(links[1].dir, Direction::South);
    for (const TopoLink &l : links)
        EXPECT_FALSE(l.wrap);
}

TEST(TopologyObject, CmeshNodeMapping)
{
    auto topo = makeTopology(nocFor("cmesh:4x4x4"));
    EXPECT_EQ(topo->numRouters(), 16);
    EXPECT_EQ(topo->numNodes(), 64);
    EXPECT_EQ(topo->routerOf(0), 0);
    EXPECT_EQ(topo->routerOf(3), 0);
    EXPECT_EQ(topo->routerOf(4), 1);
    EXPECT_EQ(topo->firstNodeOf(5), 20);
}

TEST(TopologyObject, SmallTorusIsRejected)
{
    EXPECT_THROW(makeTopology(nocFor("torus:2x2"))->makeRouting(),
                 FatalError);
}

TEST(TopologyObject, EvenPlacementCheckerboardAtHalf)
{
    // count = n/2: the paper Figure 3 checkerboard.
    int marked = 0;
    for (NodeId r = 0; r < 16; ++r) {
        const bool big = evenPlacementSite(r, 4, 4, 8);
        const int x = r % 4, y = r / 4;
        EXPECT_EQ(big, (x + y) % 2 == 1);
        marked += big;
    }
    EXPECT_EQ(marked, 8);
    // Bresenham stride hits the exact count for any count.
    for (int count : {1, 3, 5, 7, 11, 16}) {
        int n = 0;
        for (NodeId r = 0; r < 16; ++r)
            n += evenPlacementSite(r, 4, 4, count);
        EXPECT_EQ(n, count) << "count " << count;
    }
}

// ---------------------------------------------------------------------
// Torus routing: dateline discipline
// ---------------------------------------------------------------------

TEST(TorusRouting, EveryPairReachesInMinimalHops)
{
    NocConfig cfg = nocFor("torus:5x4");
    auto topo = makeTopology(cfg);
    auto routing = topo->makeRouting();
    for (NodeId s = 0; s < topo->numRouters(); ++s) {
        for (NodeId d = 0; d < topo->numRouters(); ++d) {
            NodeId here = s;
            int hops = 0;
            while (here != d) {
                const RouteEntry e = routing->routeEntry(here, d);
                ASSERT_NE(e.dir, Direction::Local);
                here = topo->neighbor(here, e.dir);
                ASSERT_NE(here, INVALID_NODE);
                ASSERT_LE(++hops, topo->hopDistance(s, d));
            }
            EXPECT_EQ(hops, topo->hopDistance(s, d));
            EXPECT_EQ(routing->routeEntry(d, d).dir, Direction::Local);
        }
    }
}

TEST(TorusRouting, DatelineClassesNeverChainBackward)
{
    // Along any route, the VC class per dimension may only go 0 -> 1
    // (crossing the dateline), never 1 -> 0: that monotonicity is the
    // acyclicity argument the verifier checks structurally.
    NocConfig cfg = nocFor("torus:5x5");
    auto topo = makeTopology(cfg);
    auto routing = topo->makeRouting();
    for (NodeId s = 0; s < topo->numRouters(); ++s) {
        for (NodeId d = 0; d < topo->numRouters(); ++d) {
            NodeId here = s;
            int last_class_x = -1, last_class_y = -1;
            while (here != d) {
                const RouteEntry e = routing->routeEntry(here, d);
                ASSERT_NE(e.vcClass, VC_CLASS_ANY);
                int &last = (e.dir == Direction::East ||
                             e.dir == Direction::West)
                                ? last_class_x
                                : last_class_y;
                ASSERT_GE(static_cast<int>(e.vcClass), last);
                last = e.vcClass;
                here = topo->neighbor(here, e.dir);
            }
        }
    }
}

TEST(TorusRouting, NoEscapeVcsLeavesClassAny)
{
    NocConfig cfg = nocFor("torus:4x4");
    cfg.escapeVcs = false;
    auto routing = makeTopology(cfg)->makeRouting();
    EXPECT_EQ(routing->routeEntry(0, 3).vcClass, VC_CLASS_ANY);
}

TEST(MeshRouting, RouteEntriesStayClassAny)
{
    // The port of the mesh onto Topology must be bit-identical: every
    // mesh route entry keeps the full vnet VC range (VC_CLASS_ANY).
    auto routing = makeTopology(nocFor("mesh:4x4"))->makeRouting();
    for (NodeId s = 0; s < 16; ++s)
        for (NodeId d = 0; d < 16; ++d)
            EXPECT_EQ(routing->routeEntry(s, d).vcClass, VC_CLASS_ANY);
}

TEST(RouteTable, EveryRouterNodePairMatchesRouteEntry)
{
    // The per-router separable table must reproduce the routing
    // function for every (router, node) pair, on non-square grids (a
    // swapped column/row index shows), both torus VC disciplines and
    // concentrated meshes (node -> router mapping).
    struct Case {
        const char *spec;
        bool escapeVcs;
    };
    for (const Case &c : {Case{"mesh:5x3", true}, Case{"mesh:8x8", true},
                          Case{"torus:5x4", true}, Case{"torus:5x4", false},
                          Case{"torus:3x3", true}, Case{"cmesh:4x4x2", true},
                          Case{"cmesh:3x5x4", true}}) {
        NocConfig cfg = nocFor(c.spec);
        cfg.escapeVcs = c.escapeVcs;
        auto topo = makeTopology(cfg);
        auto routing = topo->makeRouting();
        for (NodeId here = 0; here < topo->numRouters(); ++here) {
            const RouteTable table = routing->routeTable(here);
            EXPECT_EQ(table.size(), static_cast<std::size_t>(
                                        cfg.meshWidth + cfg.meshHeight))
                << c.spec;
            for (NodeId dst = 0; dst < topo->numNodes(); ++dst) {
                const RouteEntry want = routing->routeEntry(here, dst);
                const RouteEntry got = table.lookup(dst);
                EXPECT_TRUE(got == want)
                    << c.spec << " escape_vcs=" << c.escapeVcs
                    << " router " << here << " -> node " << dst << ": "
                    << directionName(got.dir) << "/" << int(got.vcClass)
                    << " != " << directionName(want.dir) << "/"
                    << int(want.vcClass);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Channel-dependency verifier
// ---------------------------------------------------------------------

TEST(ChannelDeps, MeshTorusCmeshAreAcyclic)
{
    for (const char *spec : {"mesh:8x8", "torus:8x8", "cmesh:4x4x4"}) {
        auto topo = makeTopology(nocFor(spec));
        EXPECT_TRUE(verifyChannelDeps(*topo).empty()) << spec;
    }
}

TEST(ChannelDeps, CmeshDependenciesMatchRouterGridMesh)
{
    // Check-5 witness for the concentrated mesh: concentration lives
    // entirely at the NIs, so the router-level channel-dependency
    // graph of cmesh:WxHxC must be exactly the plain mesh:WxH graph
    // -- same channels in the same canonical order, same edges. A
    // routing or link-enumeration change that made the concentrated
    // fabric diverge from the verified mesh structure fails here.
    auto cmesh = makeTopology(nocFor("cmesh:4x4x4"));
    auto mesh = makeTopology(nocFor("mesh:4x4"));
    const ChannelDepGraph cg = cmesh->channelDependencies();
    const ChannelDepGraph mg = mesh->channelDependencies();
    ASSERT_EQ(cg.nodes.size(), mg.nodes.size());
    for (std::size_t i = 0; i < cg.nodes.size(); ++i) {
        EXPECT_EQ(cg.nodes[i].from, mg.nodes[i].from) << i;
        EXPECT_EQ(cg.nodes[i].to, mg.nodes[i].to) << i;
        EXPECT_EQ(cg.nodes[i].dir, mg.nodes[i].dir) << i;
        EXPECT_EQ(cg.nodes[i].vcClass, mg.nodes[i].vcClass) << i;
    }
    ASSERT_EQ(cg.edges.size(), mg.edges.size());
    for (std::size_t i = 0; i < cg.edges.size(); ++i)
        EXPECT_EQ(cg.edges[i], mg.edges[i]) << "adjacency of channel "
                                            << cg.describe(i);
    // Every channel is an inter-ROUTER link: concentration must not
    // leak core ids (>= numRouters) into the dependency graph.
    for (const ChannelDepGraph::Node &n : cg.nodes) {
        EXPECT_LT(n.from, cmesh->numRouters());
        EXPECT_LT(n.to, cmesh->numRouters());
    }
}

TEST(ChannelDeps, CmeshXyRoutingNeverTurnsBackToRowTraffic)
{
    // The XY argument for deadlock freedom, checked structurally on
    // the concentrated fabric: a column (N/S) channel may never
    // depend on a row (E/W) channel. Non-square shape on purpose.
    auto topo = makeTopology(nocFor("cmesh:8x2x2"));
    EXPECT_TRUE(verifyChannelDeps(*topo).empty());
    const ChannelDepGraph g = topo->channelDependencies();
    ASSERT_FALSE(g.nodes.empty());
    auto vertical = [](Direction d) {
        return d == Direction::North || d == Direction::South;
    };
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        if (!vertical(g.nodes[i].dir))
            continue;
        for (std::int32_t succ : g.edges[i])
            EXPECT_TRUE(
                vertical(g.nodes[static_cast<std::size_t>(succ)].dir))
                << g.describe(i) << " depends on "
                << g.describe(static_cast<std::size_t>(succ));
    }
}

TEST(ChannelDeps, TorusWithoutEscapeVcsHasCycleWitness)
{
    NocConfig cfg = nocFor("torus:4x4");
    cfg.escapeVcs = false;
    auto topo = makeTopology(cfg);
    const ChannelDepGraph g = topo->channelDependencies();
    const auto cycle = findChannelDepCycle(g);
    ASSERT_FALSE(cycle.empty());
    // The witness is a closed channel path.
    EXPECT_EQ(cycle.front(), cycle.back());
    ASSERT_GE(cycle.size(), 2u);
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
        const auto &out = g.edges[static_cast<std::size_t>(cycle[i])];
        EXPECT_NE(std::find(out.begin(), out.end(), cycle[i + 1]),
                  out.end())
            << "witness step " << i << " is not a graph edge";
    }
    // And the verifier turns it into a diagnostic naming the cycle.
    const auto diags = verifyChannelDeps(*topo);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("channel dependency cycle"),
              std::string::npos);
    EXPECT_EQ(diags[0].check, "channel-deps");
}

TEST(ChannelDeps, SystemConstructionRejectsNoEscapeTorus)
{
    SystemConfig sc;
    sc.applyOverrides(makeConfig({"topology=torus:4x4",
                                  "escape_vcs=0"}));
    try {
        System system(sc);
        FAIL() << "no-escape-VC torus must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("channel dependency cycle"),
                  std::string::npos);
    }
    // The dateline configuration builds fine.
    SystemConfig ok;
    ok.applyOverrides(makeConfig({"topology=torus:4x4"}));
    EXPECT_NO_THROW(System system(ok));
}

// ---------------------------------------------------------------------
// Determinism fingerprints on the new fabrics
// ---------------------------------------------------------------------

struct Fingerprint {
    Cycle simCycles = 0;
    Cycle roiCycles = 0;
    std::uint64_t csCompleted = 0;
    std::uint64_t earlyInvs = 0;
    std::uint64_t flitsSent = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return simCycles == o.simCycles && roiCycles == o.roiCycles &&
               csCompleted == o.csCompleted &&
               earlyInvs == o.earlyInvs && flitsSent == o.flitsSent;
    }
};

Fingerprint
runFabric(const char *topology, int threads)
{
    SystemConfig cfg;
    cfg.applyOverrides(makeConfig({std::string("topology=") + topology}));
    cfg.mechanism = Mechanism::Inpg;
    cfg.inpg.numBigRouters = cfg.noc.numRouters() / 2;
    cfg.threads = threads;
    cfg.finalize();

    System system(cfg);
    Workload::Params wp;
    wp.profile = benchmarkByName("ferret");
    wp.threads = cfg.numCores();
    wp.csScale = 0.1;
    wp.lockKind = cfg.lockKind;
    wp.seed = cfg.seed;
    Workload workload(wp, system.coherent(), system.locks(),
                      system.sim());
    workload.start();
    system.runUntil([&] { return workload.done(); });

    Fingerprint f;
    f.simCycles = system.sim().now();
    f.roiCycles = workload.roiFinish();
    f.csCompleted = workload.csCompleted();
    f.earlyInvs = system.totalEarlyInvs();
    for (NodeId n = 0; n < system.coherent().network().numRouters();
         ++n)
        f.flitsSent += system.coherent().network().router(n)
                           .stats.flitsSent;
    return f;
}

TEST(FabricDeterminism, TorusReproducesAndMatchesParallel)
{
    Fingerprint serial = runFabric("torus:4x4", 1);
    EXPECT_GT(serial.csCompleted, 0u);
    EXPECT_GT(serial.flitsSent, 0u);
    EXPECT_TRUE(serial == runFabric("torus:4x4", 1))
        << "serial torus run is not reproducible";
    for (int t : {2, 4}) {
        EXPECT_TRUE(serial == runFabric("torus:4x4", t))
            << "torus threads=" << t
            << " diverges from the serial kernel";
    }
}

TEST(FabricDeterminism, CmeshReproducesAndMatchesParallel)
{
    Fingerprint serial = runFabric("cmesh:4x4x4", 1);
    EXPECT_GT(serial.csCompleted, 0u);
    EXPECT_GT(serial.flitsSent, 0u);
    EXPECT_TRUE(serial == runFabric("cmesh:4x4x4", 1))
        << "serial cmesh run is not reproducible";
    for (int t : {2, 4}) {
        EXPECT_TRUE(serial == runFabric("cmesh:4x4x4", t))
            << "cmesh threads=" << t
            << " diverges from the serial kernel";
    }
}

// ---------------------------------------------------------------------
// 32x32 placement sweep end to end
// ---------------------------------------------------------------------

TEST(PlacementSweep, GridCoversFabricsByCounts)
{
    RunConfig base;
    const auto grid = buildPlacementSweep(
        base, {"torus:8x8", "cmesh:4x4x4"}, {0, 8, 32});
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid[0].system.noc.topology, TopologyKind::Torus);
    EXPECT_EQ(grid[0].system.inpg.numBigRouters, 0);
    EXPECT_EQ(grid[2].system.inpg.numBigRouters, 32);
    EXPECT_EQ(grid[3].system.noc.topology, TopologyKind::CMesh);
    EXPECT_EQ(grid[3].system.noc.concentration, 4);
    // Preset names resolve too.
    const auto preset = buildPlacementSweep(base, {"32x32"}, {16});
    ASSERT_EQ(preset.size(), 1u);
    EXPECT_EQ(preset[0].system.noc.meshWidth, 32);
}

TEST(PlacementSweep, Runs32x32EndToEnd)
{
    // The acceptance bar: a 1024-core preset completes a big-router
    // placement sweep through the sweep runner. Two placement points
    // keep the test inside a CI budget; csScale trims the CS count.
    RunConfig base;
    base.profile = benchmarkByName("freq");
    base.system.mechanism = Mechanism::Inpg;
    base.csScale = 0.001;
    const auto grid = buildPlacementSweep(base, {"32x32"}, {16, 512});
    ASSERT_EQ(grid.size(), 2u);
    const auto results = runSweep(grid);
    ASSERT_EQ(results.size(), 2u);
    for (const RunRecord &r : results) {
        EXPECT_GT(r.roiCycles, 0u);
        EXPECT_GT(r.csCompleted, 0u);
    }
    // 512 big routers on a 32x32 grid is the checkerboard; iNPG must
    // actually have fired there.
    EXPECT_GT(results[1].earlyInvs, 0u);
}

} // namespace
} // namespace inpg
