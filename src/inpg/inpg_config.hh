/**
 * @file
 * iNPG deployment and big-router configuration (paper Table 1 / Sec. 4).
 */

#ifndef INPG_INPG_INPG_CONFIG_HH
#define INPG_INPG_INPG_CONFIG_HH

#include <cstddef>

#include "common/types.hh"

namespace inpg {

/** Parameters of the iNPG mechanism. */
struct InpgConfig {
    /** Lock barrier entries per big router (paper default 16). */
    std::size_t barrierEntries = 16;

    /** EI entries per lock barrier (paper default 16). */
    std::size_t eiEntries = 16;

    /** Barrier time-to-live in cycles (paper default 128). */
    Cycle barrierTtl = 128;

    /**
     * Number of big routers deployed, distributed evenly over the mesh
     * (paper default: 32 of 64, interleaved checkerboard).
     */
    int numBigRouters = 32;

    bool operator==(const InpgConfig &) const = default;
};

/**
 * Even distribution of `count` big routers over a w x h mesh.
 * count == n/2 yields the checkerboard of paper Figure 3; count == n
 * upgrades every router.
 *
 * @return true when the node hosts a big router.
 */
bool isBigRouterNode(NodeId node, int mesh_w, int mesh_h, int count);

} // namespace inpg

#endif // INPG_INPG_INPG_CONFIG_HH
