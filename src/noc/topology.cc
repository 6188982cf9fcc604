#include "noc/topology.hh"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace inpg {

const char *
topologyKindName(TopologyKind k)
{
    switch (k) {
      case TopologyKind::Mesh:
        return "mesh";
      case TopologyKind::Torus:
        return "torus";
      case TopologyKind::CMesh:
        return "cmesh";
    }
    return "?";
}

TopologyKind
parseTopologyKind(const std::string &name)
{
    if (name == "mesh")
        return TopologyKind::Mesh;
    if (name == "torus")
        return TopologyKind::Torus;
    if (name == "cmesh")
        return TopologyKind::CMesh;
    fatal("unknown topology kind '%s' (want mesh, torus or cmesh)",
          name.c_str());
}

namespace {

/** Parse a strictly positive integer; -1 on malformed input. */
int
parseDim(const std::string &text)
{
    if (text.empty())
        return -1;
    int value = 0;
    for (char ch : text) {
        if (ch < '0' || ch > '9')
            return -1;
        value = value * 10 + (ch - '0');
        if (value > 1 << 20)
            return -1;
    }
    return value > 0 ? value : -1;
}

[[noreturn]] void
badSpec(const std::string &text)
{
    fatal("bad topology '%s' (want mesh:WxH, torus:WxH or cmesh:WxHxC, "
          "e.g. topology=torus:8x8 or topology=cmesh:8x8x4)",
          text.c_str());
}

} // namespace

TopologySpec
TopologySpec::parse(const std::string &text)
{
    TopologySpec spec;
    std::string geometry = text;
    const std::size_t colon = text.find(':');
    if (colon != std::string::npos) {
        spec.kind = parseTopologyKind(text.substr(0, colon));
        geometry = text.substr(colon + 1);
    }
    const std::vector<std::string> dims = split(geometry, 'x');
    const bool wants_conc = spec.kind == TopologyKind::CMesh;
    if (dims.size() != (wants_conc ? 3u : 2u))
        badSpec(text);
    spec.width = parseDim(dims[0]);
    spec.height = parseDim(dims[1]);
    spec.concentration = wants_conc ? parseDim(dims[2]) : 1;
    if (spec.width < 0 || spec.height < 0 || spec.concentration < 0)
        badSpec(text);
    return spec;
}

std::string
TopologySpec::canonical() const
{
    if (kind == TopologyKind::CMesh)
        return format("cmesh:%dx%dx%d", width, height, concentration);
    return format("%s:%dx%d", topologyKindName(kind), width, height);
}

void
TopologySpec::applyTo(NocConfig &cfg) const
{
    cfg.topology = kind;
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    cfg.concentration = concentration;
}

std::string
ChannelDepGraph::describe(std::size_t node_index) const
{
    const Node &n = nodes[node_index];
    std::string label = format("%d->%d %s", n.from, n.to,
                               directionName(n.dir).c_str());
    if (n.vcClass != VC_CLASS_ANY)
        label += format(" class %d", static_cast<int>(n.vcClass));
    return label;
}

std::vector<std::int32_t>
findChannelDepCycle(const ChannelDepGraph &g)
{
    // Iterative DFS with tri-color marking; on a back edge the explicit
    // stack holds the cycle, which we return closed (first == last).
    enum : std::uint8_t { White, Grey, Black };
    std::vector<std::uint8_t> color(g.nodes.size(), White);
    std::vector<std::int32_t> path;
    struct Frame {
        std::int32_t node;
        std::size_t next_edge;
    };
    std::vector<Frame> stack;
    for (std::size_t root = 0; root < g.nodes.size(); ++root) {
        if (color[root] != White)
            continue;
        stack.push_back({static_cast<std::int32_t>(root), 0});
        color[root] = Grey;
        path.push_back(static_cast<std::int32_t>(root));
        while (!stack.empty()) {
            Frame &top = stack.back();
            const auto &out = g.edges[static_cast<std::size_t>(top.node)];
            if (top.next_edge < out.size()) {
                const std::int32_t next = out[top.next_edge++];
                if (color[static_cast<std::size_t>(next)] == Grey) {
                    // Back edge: trim the path to the cycle and close it.
                    auto start = std::find(path.begin(), path.end(), next);
                    std::vector<std::int32_t> cycle(start, path.end());
                    cycle.push_back(next);
                    return cycle;
                }
                if (color[static_cast<std::size_t>(next)] == White) {
                    color[static_cast<std::size_t>(next)] = Grey;
                    stack.push_back({next, 0});
                    path.push_back(next);
                }
            } else {
                color[static_cast<std::size_t>(top.node)] = Black;
                stack.pop_back();
                path.pop_back();
            }
        }
    }
    return {};
}

bool
evenPlacementSite(NodeId router, int grid_w, int grid_h, int count)
{
    const int n = grid_w * grid_h;
    if (count <= 0)
        return false;
    if (count >= n)
        return true;
    // Checkerboard interleave for the half-populated case (paper
    // Figure 3); otherwise evenly strided marks.
    if (count * 2 == n) {
        int x = router % grid_w;
        int y = router / grid_w;
        return (x + y) % 2 == 1;
    }
    // router k is big iff floor((k+1)*count/n) > floor(k*count/n)
    long long prev = static_cast<long long>(router) * count / n;
    long long cur = (static_cast<long long>(router) + 1) * count / n;
    return cur > prev;
}

Topology::Topology(const NocConfig &noc_cfg)
    : cfg(noc_cfg), grid(noc_cfg.meshWidth, noc_cfg.meshHeight)
{
    if (cfg.concentration < 1)
        fatal("concentration must be >= 1 (got %d)", cfg.concentration);
}

int
Topology::hopDistance(NodeId router_a, NodeId router_b) const
{
    return grid.hopDistance(router_a, router_b);
}

std::vector<TopoLink>
Topology::links() const
{
    // Canonical order: ascending router id, East before South --
    // exactly the order the pre-Topology mesh builder wired channels,
    // so mesh channel enumeration (allChannels()) is unchanged. Every
    // undirected link is the East (resp. South) link of exactly one
    // router, wrap links included.
    std::vector<TopoLink> out;
    for (NodeId r = 0; r < numRouters(); ++r) {
        for (Direction d : {Direction::East, Direction::South}) {
            const NodeId nb = neighbor(r, d);
            if (nb == INVALID_NODE)
                continue;
            const Coord from_c = grid.coordOf(r);
            const Coord to_c = grid.coordOf(nb);
            const bool wrap = d == Direction::East ? to_c.x < from_c.x
                                                   : to_c.y < from_c.y;
            out.push_back({r, d, nb, wrap});
        }
    }
    return out;
}

ChannelDepGraph
Topology::channelDependencies() const
{
    ChannelDepGraph g;
    // Channel key: (from router, to router, vc class). The direction
    // is implied by the endpoints but kept on the node for labels.
    std::unordered_map<std::uint64_t, std::int32_t> index;
    auto key = [](NodeId from, NodeId to, std::uint8_t cls) {
        return (static_cast<std::uint64_t>(from) << 34) |
               (static_cast<std::uint64_t>(to) << 4) | cls % 16;
    };
    auto channel = [&](NodeId from, Direction dir,
                       std::uint8_t cls) -> std::int32_t {
        const NodeId to = neighbor(from, dir);
        INPG_ASSERT(to != INVALID_NODE, "route into missing link");
        auto it = index.find(key(from, to, cls));
        if (it != index.end())
            return it->second;
        const auto idx = static_cast<std::int32_t>(g.nodes.size());
        index.emplace(key(from, to, cls), idx);
        g.nodes.push_back({from, to, dir, cls});
        g.edges.emplace_back();
        return idx;
    };

    const std::unique_ptr<RoutingAlgorithm> routing = makeRouting();
    for (NodeId dst = 0; dst < numNodes(); ++dst) {
        for (NodeId r = 0; r < numRouters(); ++r) {
            const RouteEntry hop = routing->routeEntry(r, dst);
            if (hop.dir == Direction::Local)
                continue;
            const std::int32_t a = channel(r, hop.dir, hop.vcClass);
            const NodeId nb = g.nodes[static_cast<std::size_t>(a)].to;
            const RouteEntry next = routing->routeEntry(nb, dst);
            if (next.dir == Direction::Local)
                continue;
            const std::int32_t b = channel(nb, next.dir, next.vcClass);
            auto &out = g.edges[static_cast<std::size_t>(a)];
            if (std::find(out.begin(), out.end(), b) == out.end())
                out.push_back(b);
        }
    }
    return g;
}

namespace {

/** Rectangular mesh: the paper's baseline fabric. */
class MeshTopology : public Topology
{
  public:
    using Topology::Topology;

    std::string
    name() const override
    {
        return format("mesh:%dx%d", grid.width(), grid.height());
    }

    NodeId
    neighbor(NodeId router, Direction d) const override
    {
        return grid.neighbor(router, d);
    }

    std::unique_ptr<RoutingAlgorithm>
    makeRouting() const override
    {
        return std::make_unique<XYRouting>(grid, cfg.concentration);
    }
};

/** Torus: mesh + wraparound links, dateline escape VCs. */
class TorusTopology : public Topology
{
  public:
    using Topology::Topology;

    std::string
    name() const override
    {
        return format("torus:%dx%d", grid.width(), grid.height());
    }

    NodeId
    neighbor(NodeId router, Direction d) const override
    {
        Coord c = grid.coordOf(router);
        const int w = grid.width();
        const int h = grid.height();
        switch (d) {
          case Direction::North:
            c.y = (c.y + h - 1) % h;
            break;
          case Direction::South:
            c.y = (c.y + 1) % h;
            break;
          case Direction::East:
            c.x = (c.x + 1) % w;
            break;
          case Direction::West:
            c.x = (c.x + w - 1) % w;
            break;
          case Direction::Local:
            return router;
        }
        return grid.idOf(c);
    }

    int
    hopDistance(NodeId router_a, NodeId router_b) const override
    {
        const Coord ca = grid.coordOf(router_a);
        const Coord cb = grid.coordOf(router_b);
        const int dx = std::abs(ca.x - cb.x);
        const int dy = std::abs(ca.y - cb.y);
        return std::min(dx, grid.width() - dx) +
               std::min(dy, grid.height() - dy);
    }

    std::unique_ptr<RoutingAlgorithm>
    makeRouting() const override
    {
        return std::make_unique<TorusRouting>(grid, cfg.escapeVcs,
                                              cfg.concentration);
    }
};

/** Concentrated mesh: `concentration` cores share each router. */
class CMeshTopology : public Topology
{
  public:
    using Topology::Topology;

    std::string
    name() const override
    {
        return format("cmesh:%dx%dx%d", grid.width(), grid.height(),
                      cfg.concentration);
    }

    NodeId
    neighbor(NodeId router, Direction d) const override
    {
        return grid.neighbor(router, d);
    }

    std::unique_ptr<RoutingAlgorithm>
    makeRouting() const override
    {
        return std::make_unique<XYRouting>(grid, cfg.concentration);
    }
};

} // namespace

std::unique_ptr<Topology>
makeTopology(const NocConfig &cfg)
{
    switch (cfg.topology) {
      case TopologyKind::Mesh:
        if (cfg.concentration != 1)
            fatal("mesh topology requires concentration 1 (got %d); "
                  "use cmesh:WxHxC",
                  cfg.concentration);
        return std::make_unique<MeshTopology>(cfg);
      case TopologyKind::Torus:
        if (cfg.concentration != 1)
            fatal("torus topology requires concentration 1 (got %d)",
                  cfg.concentration);
        return std::make_unique<TorusTopology>(cfg);
      case TopologyKind::CMesh:
        return std::make_unique<CMeshTopology>(cfg);
    }
    panic("bad topology kind");
}

} // namespace inpg
