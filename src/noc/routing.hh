/**
 * @file
 * Routing: port naming, the XY dimension-order algorithm used by
 * the paper's target architecture (deadlock-free on a mesh with no
 * turnaround), and the torus variant whose route entries carry the
 * dateline VC class that keeps wraparound links deadlock-free.
 *
 * A route decision is a RouteEntry: the output port plus the VC class
 * the packet must allocate on the downstream input. Mesh and cmesh
 * entries always carry VC_CLASS_ANY (any VC of the message's vnet),
 * which keeps the VA stage byte-for-byte identical to the
 * pre-Topology code on those fabrics.
 */

#ifndef INPG_NOC_ROUTING_HH
#define INPG_NOC_ROUTING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/noc_config.hh"

namespace inpg {

/**
 * Router port directions. Local attaches the tile's NI. One byte, so a
 * RouteEntry is two; cast to int before printing.
 */
enum class Direction : std::uint8_t {
    Local = 0,
    North = 1,
    East = 2,
    South = 3,
    West = 4,
};

/** Number of ports on a mesh router. */
inline constexpr int NUM_PORTS = 5;

/**
 * "Any VC of the vnet": the route imposes no dateline class. All mesh
 * and cmesh entries use this, as do torus hops that have already
 * crossed (or never cross) the wrap edge of their dimension.
 */
inline constexpr std::uint8_t VC_CLASS_ANY = 0xff;

/**
 * One routing decision: the output port and the downstream VC class
 * restriction (VC_CLASS_ANY, 0, or 1).
 */
struct RouteEntry {
    Direction dir = Direction::Local;
    std::uint8_t vcClass = VC_CLASS_ANY;

    bool
    operator==(const RouteEntry &o) const
    {
        return dir == o.dir && vcClass == o.vcClass;
    }
};

static_assert(sizeof(RouteEntry) == 2, "a route decision is two bytes");

/** Short name ("L","N","E","S","W"). */
std::string directionName(Direction d);

/** Opposite direction; Local maps to Local. */
Direction opposite(Direction d);

/** (x, y) coordinates of a node on a width x height mesh. */
struct Coord {
    int x = 0;
    int y = 0;

    bool operator==(const Coord &o) const { return x == o.x && y == o.y; }
};

/**
 * Geometry of a rectangular mesh: node-id <-> coordinate mapping.
 * Node ids are row-major: id = y * width + x.
 */
class MeshShape
{
  public:
    MeshShape(int mesh_width, int mesh_height);

    int width() const { return meshWidth; }
    int height() const { return meshHeight; }
    int numNodes() const { return meshWidth * meshHeight; }

    Coord coordOf(NodeId id) const;
    NodeId idOf(Coord c) const;
    bool contains(Coord c) const;

    /** Neighbor node in the given direction; INVALID_NODE at the edge. */
    NodeId neighbor(NodeId id, Direction d) const;

    /** Manhattan hop distance between two nodes. */
    int hopDistance(NodeId a, NodeId b) const;

  private:
    int meshWidth;
    int meshHeight;
};

/**
 * One router's route decisions, split by dimension. Every algorithm
 * here is dimension-order: while a destination's column differs from
 * this router's, the route depends only on that column (the X hop);
 * once aligned, only on the destination row (the Y hop or Local). So
 * route computation reads the destination's router coordinates from
 * the node map its RoutingAlgorithm shares with every router, then one
 * of width + height entries: `entries[x]` for a column,
 * `entries[width + y]` for a row of this column.
 */
class RouteTable
{
  public:
    RouteEntry
    lookup(NodeId dst) const
    {
        const Coord c = cells[static_cast<std::size_t>(dst)];
        return entries[static_cast<std::size_t>(
            c.x != hereCol ? c.x : rowBase + c.y)];
    }

    /** Entries held: grid width + height. */
    std::size_t size() const { return entries.size(); }

  private:
    friend class RoutingAlgorithm;

    /** The routing algorithm's node map (outlives every router). */
    const Coord *cells = nullptr;
    int hereCol = 0;
    /** Index of row 0's entry: the grid width. */
    int rowBase = 0;
    std::vector<RouteEntry> entries;
};

/**
 * Strategy interface: pick the output port (and downstream VC class)
 * toward a destination node. `here` is always a router id; `dst` is a
 * node (core) id -- under concentration several nodes share a router,
 * so the algorithm maps dst to its router before comparing
 * coordinates.
 */
class RoutingAlgorithm
{
  public:
    RoutingAlgorithm(MeshShape router_grid, int concentration);
    virtual ~RoutingAlgorithm() = default;

    /**
     * @param here router evaluating the route
     * @param dst  final destination node
     * @return port to take from `here` (Local when dst attaches here)
     *         plus the VC class restriction for the next hop.
     */
    virtual RouteEntry routeEntry(NodeId here, NodeId dst) const = 0;

    /**
     * Router `here`'s decisions as a RouteTable, so the RC pipeline
     * stage replaces the virtual call with two array loads. The table
     * reads this object's node map: it must not outlive it.
     */
    RouteTable routeTable(NodeId here) const;

  protected:
    /** Router serving a destination node. */
    NodeId dstRouter(NodeId dst) const { return dst / conc; }

    MeshShape shape;
    int conc;

  private:
    /** Node id -> its router's coordinates, shared by all routers. */
    std::vector<Coord> nodeCells;
};

/** X-first-then-Y dimension-order routing. */
class XYRouting : public RoutingAlgorithm
{
  public:
    explicit XYRouting(MeshShape mesh_shape, int concentration = 1)
        : RoutingAlgorithm(mesh_shape, concentration)
    {}

    RouteEntry routeEntry(NodeId here, NodeId dst) const override;
};

/**
 * Torus dimension-order routing: minimal-path per dimension (wrapping
 * when the wrap direction is shorter; ties break toward East/South),
 * X before Y. With
 * escape VCs enabled each hop carries a dateline class -- class 0
 * while the dimension's wrap edge is still ahead, class 1 after it --
 * which is what makes the wraparound rings acyclic (see
 * noc/topology.hh). With escape VCs disabled every entry is
 * VC_CLASS_ANY: deliberately deadlock-prone, for negative verifier
 * tests.
 */
class TorusRouting : public RoutingAlgorithm
{
  public:
    TorusRouting(MeshShape mesh_shape, bool escape_vcs,
                 int concentration = 1);

    RouteEntry routeEntry(NodeId here, NodeId dst) const override;

  private:
    /** Decision for one dimension; Local when already aligned. */
    RouteEntry routeDim(int here_c, int dst_c, int extent,
                        Direction inc_dir, Direction dec_dir) const;

    bool escapeVcs;
};

} // namespace inpg

#endif // INPG_NOC_ROUTING_HH
