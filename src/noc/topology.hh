/**
 * @file
 * Topology: first-class fabric abstraction behind the NoC builder.
 *
 * A Topology owns the machine's shape: how many routers exist, how
 * cores (nodes) map onto routers, which router neighbors which, the
 * canonical link enumeration the Network wires channels from, the
 * routing-algorithm factory that fills the precomputed route tables,
 * and the channel-dependency graph the protocol verifier walks for
 * its topology-aware deadlock-freedom check.
 *
 * Three fabrics:
 *  - mesh:WxH    -- the paper's baseline. XY dimension-order
 *                   routing, no wraparound, every route entry carries
 *                   VC_CLASS_ANY (so the port onto this interface is
 *                   bit-identical to the pre-Topology mesh).
 *  - torus:WxH   -- mesh plus wraparound links. Wrap links close the
 *                   ring dependency cycle, so dimension-order routing
 *                   alone deadlocks; the dateline rule below splits
 *                   each vnet's VCs into two classes to cut the cycle.
 *  - cmesh:WxHxC -- concentrated mesh, C cores per router. Node ids
 *                   are router-major (node = router*C + k); one shared
 *                   NetworkInterface per router arbitrates the C
 *                   cores' traffic into the local port (fan-in through
 *                   the per-vnet inject queues).
 *
 * Dateline rule (torus escape VCs): the VC class of a hop is a pure
 * function of (here, dst) -- "is the wrap edge still ahead on this
 * dimension?". Going East, class = (x > dx) ? 0 : 1: a packet that
 * still must cross the x = W-1 -> 0 wrap edge travels in class 0, and
 * every hop after the wrap (x < dx) is class 1. West/South/North are
 * symmetric. Class-0 edges increase monotonically toward the wrap
 * edge, the wrap edge itself is only ever used in class 0, and its
 * successor hop is always class 1, so each class's dependency
 * subgraph is acyclic and classes only chain 0 -> 1 -- the standard
 * dateline argument, checked structurally by channelDependencies() +
 * findChannelDepCycle().
 */

#ifndef INPG_NOC_TOPOLOGY_HH
#define INPG_NOC_TOPOLOGY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/noc_config.hh"
#include "noc/routing.hh"

namespace inpg {

/**
 * Parsed "topology=" specification: `mesh:16x16`, `torus:8x8`,
 * `cmesh:8x8x4` (WxHxC). A bare "WxH" is accepted as a mesh.
 */
struct TopologySpec {
    TopologyKind kind = TopologyKind::Mesh;
    int width = 8;
    int height = 8;
    int concentration = 1;

    /** Parse a spec string; fatal() on malformed or unknown forms. */
    static TopologySpec parse(const std::string &text);

    /** Canonical "kind:WxH[xC]" rendering. */
    std::string canonical() const;

    /** Write the spec into a NocConfig's topology fields. */
    void applyTo(NocConfig &cfg) const;
};

/** One inter-router link of the canonical enumeration. */
struct TopoLink {
    NodeId from = INVALID_NODE;
    Direction dir = Direction::Local; ///< output port at `from`
    NodeId to = INVALID_NODE;
    bool wrap = false; ///< torus wraparound edge (the dateline)
};

/**
 * Channel-dependency graph: one node per (directed link, VC class)
 * pair actually used by some route, one edge per "holding channel A
 * may wait for channel B" relation induced by the routing function.
 * Acyclicity of this graph is the static deadlock-freedom argument
 * for the fabric (the verifier's topology-aware check).
 */
struct ChannelDepGraph {
    struct Node {
        NodeId from = INVALID_NODE;
        NodeId to = INVALID_NODE;
        Direction dir = Direction::Local;
        std::uint8_t vcClass = VC_CLASS_ANY;
    };
    std::vector<Node> nodes;
    std::vector<std::vector<std::int32_t>> edges; ///< adjacency lists

    /** "3->7 E class 0" style label for diagnostics. */
    std::string describe(std::size_t node_index) const;
};

/**
 * Find one dependency cycle; the returned node-index path starts and
 * ends on the same channel (the witness). Empty when acyclic.
 */
std::vector<std::int32_t> findChannelDepCycle(const ChannelDepGraph &g);

/**
 * Even distribution of `count` big-router sites over a w x h router
 * grid: checkerboard at half population (paper Figure 3), Bresenham
 * stride otherwise. Grid math lives here so deployment code needs no
 * coordinate arithmetic of its own.
 */
bool evenPlacementSite(NodeId router, int grid_w, int grid_h, int count);

/** Fabric abstraction: shape, links, routing factory, dependencies. */
class Topology
{
  public:
    explicit Topology(const NocConfig &cfg);
    virtual ~Topology() = default;

    const NocConfig &config() const { return cfg; }

    /** Canonical spec name ("torus:8x8", "cmesh:8x8x4"). */
    virtual std::string name() const = 0;

    int numRouters() const { return grid.numNodes(); }
    int concentration() const { return cfg.concentration; }
    int numNodes() const { return numRouters() * concentration(); }

    /** Router grid geometry (row-major router ids). */
    const MeshShape &routerGrid() const { return grid; }

    /** Router serving a node (identity when concentration == 1). */
    NodeId
    routerOf(NodeId node) const
    {
        return node / cfg.concentration;
    }

    /** First node attached to a router. */
    NodeId
    firstNodeOf(NodeId router) const
    {
        return router * cfg.concentration;
    }

    /** Neighbor router out of port `d`; INVALID_NODE when absent. */
    virtual NodeId neighbor(NodeId router, Direction d) const = 0;

    /** Router-grid hop distance between two routers. */
    virtual int hopDistance(NodeId router_a, NodeId router_b) const;

    /** Dimension-order (X then Y) routing algorithm for this fabric. */
    virtual std::unique_ptr<RoutingAlgorithm> makeRouting() const = 0;

    /**
     * Every inter-router link, in the canonical order the Network
     * wires channels: ascending router id, East before South (the
     * exact order the pre-Topology mesh builder used, so mesh wiring
     * -- and therefore allChannels() -- is unchanged).
     */
    std::vector<TopoLink> links() const;

    /**
     * The channel-dependency graph induced by makeRouting() over
     * links(), for the verifier's acyclicity check.
     */
    ChannelDepGraph channelDependencies() const;

    /** True when the router hosts one of `count` evenly placed big
     *  routers (iNPG deployment). */
    bool
    bigRouterSite(NodeId router, int count) const
    {
        return evenPlacementSite(router, grid.width(), grid.height(),
                                 count);
    }

  protected:
    NocConfig cfg;
    MeshShape grid;
};

/** Build the Topology described by cfg (fatal on bad parameters). */
std::unique_ptr<Topology> makeTopology(const NocConfig &cfg);

/** Parse "mesh" / "torus" / "cmesh"; fatal otherwise. */
TopologyKind parseTopologyKind(const std::string &name);

/** "mesh" / "torus" / "cmesh". */
const char *topologyKindName(TopologyKind k);

} // namespace inpg

#endif // INPG_NOC_TOPOLOGY_HH
