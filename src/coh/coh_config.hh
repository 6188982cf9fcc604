/**
 * @file
 * Cache hierarchy parameters (paper Table 1 defaults) and the
 * address-to-home mapping.
 */

#ifndef INPG_COH_COH_CONFIG_HH
#define INPG_COH_COH_CONFIG_HH

#include "common/types.hh"

namespace inpg {

/** Memory-system configuration shared by L1s and directories. */
struct CohConfig {
    /** Cache block size in bytes (Table 1: 128 B). */
    Addr lineSize = 128;

    /** Private L1 access latency in cycles (Table 1: 2). */
    Cycle l1Latency = 2;

    /** Shared L2 / directory access latency in cycles (Table 1: 6). */
    Cycle l2Latency = 6;

    /** Directory occupancy for pure bookkeeping messages (InvAck). */
    Cycle dirAckLatency = 1;

    /** Extra latency charged on a cold (first-touch) L2 miss to DRAM. */
    Cycle memLatency = 50;

    /** Number of L2 banks == number of nodes (one bank per tile). */
    int numNodes = 64;

    /**
     * Test-only hang seeder: when non-zero, every directory silently
     * drops the N-th message it sends (counting from 1, counted per
     * directory, deterministically). The lost response wedges the
     * requester's MSHR and, through deferred forwards, the line --
     * exactly the failure mode the progress watchdog exists to
     * diagnose. 0 (the default) disables the knob; it must never be
     * set outside watchdog tests (`drop_dir_response` override).
     */
    std::uint64_t dropDirResponseNth = 0;

    /** Line-aligned base of an address. */
    Addr lineBase(Addr a) const { return a & ~(lineSize - 1); }

    /** Home node (L2 bank / directory) of an address: line interleave. */
    NodeId
    homeOf(Addr a) const
    {
        return static_cast<NodeId>((a / lineSize) %
                                   static_cast<Addr>(numNodes));
    }

    /**
     * Pick the n-th line address homed at a specific node (used by the
     * workload layer to place locks, e.g. Fig. 10 hosts the contended
     * lock at tile (5,6)).
     */
    Addr
    lineHomedAt(NodeId home, Addr n = 0) const
    {
        return (static_cast<Addr>(home) +
                n * static_cast<Addr>(numNodes)) * lineSize;
    }

    bool operator==(const CohConfig &) const = default;
};

} // namespace inpg

#endif // INPG_COH_COH_CONFIG_HH
