/**
 * @file
 * NoC parameters (paper Table 1 defaults).
 *
 * The paper lists "6 VCs per port, 4 flits per VC, 4 virtual networks";
 * VCs must partition evenly across virtual networks in a Garnet-style
 * design, so we expose vcsPerVnet (default 2, i.e. 8 VCs/port) as the
 * closest even partition and make it configurable.
 */

#ifndef INPG_NOC_NOC_CONFIG_HH
#define INPG_NOC_NOC_CONFIG_HH

#include "common/types.hh"

namespace inpg {

/** Fabric selector; see noc/topology.hh for the full contract. */
enum class TopologyKind {
    Mesh,  ///< rectangular mesh (paper baseline)
    Torus, ///< mesh + wraparound links, dateline escape VCs
    CMesh, ///< concentrated mesh: `concentration` cores per router
};

/** Switch-allocation policy selector. */
enum class SwitchPolicy {
    RoundRobin, ///< baseline Garnet-style fair arbitration
    Priority,   ///< OCOR: packet priority + aging
};

/** Static NoC configuration shared by routers, NIs and the builder. */
struct NocConfig {
    /**
     * Router-grid dimensions. With concentration == 1 (mesh/torus)
     * routers and cores coincide; a cmesh hangs `concentration` cores
     * off each router, so numNodes() = meshWidth * meshHeight *
     * concentration.
     */
    int meshWidth = 8;
    int meshHeight = 8;

    /** Fabric kind; geometry interpretation lives in noc/topology.cc. */
    TopologyKind topology = TopologyKind::Mesh;

    /** Cores per router (1 for mesh/torus, typically 4 for cmesh). */
    int concentration = 1;

    /**
     * Torus dateline escape VCs: split each vnet's VC range into two
     * classes and restrict wrap-crossing traffic to class 0 (see
     * noc/topology.hh for the acyclicity argument). Turning this off
     * on a torus is a deliberate negative-testing knob -- the protocol
     * verifier rejects that configuration with a cycle witness.
     */
    bool escapeVcs = true;

    /** Message classes; see coh/coherence_msg.hh for the assignment. */
    int numVnets = 4;

    /**
     * VCs per port per virtual network. numVnets x vcsPerVnet is the
     * VC count of a port and must stay <= 32, the width of the router's
     * per-port candidate masks (validated in SystemConfig).
     */
    int vcsPerVnet = 2;

    /** Buffer depth per VC in flits. */
    int vcDepth = 4;

    /** Flits in a cache-block-carrying packet (128B / 128-bit = 8). */
    int dataPacketFlits = 8;

    /** Flits in a coherence control packet. */
    int ctrlPacketFlits = 1;

    /** Switch allocation policy (Priority enables OCOR arbitration). */
    SwitchPolicy switchPolicy = SwitchPolicy::RoundRobin;

    /** Cycles of waiting per +1 effective priority under Priority. */
    Cycle agingQuantum = 64;

    int totalVcs() const { return numVnets * vcsPerVnet; }

    /** First VC index belonging to a vnet. */
    VcId vnetVcLo(VnetId v) const { return v * vcsPerVnet; }

    /** Last VC index belonging to a vnet. */
    VcId vnetVcHi(VnetId v) const { return (v + 1) * vcsPerVnet - 1; }

    /** Vnet that owns a VC index. */
    VnetId vnetOfVc(VcId vc) const { return vc / vcsPerVnet; }

    /**
     * First VC of a vnet's dateline class (0 or 1): the vnet's VC
     * range split in half. Requires an even vcsPerVnet >= 2 when a
     * torus runs with escape VCs (validated in SystemConfig).
     */
    VcId
    classVcLo(VnetId v, int cls) const
    {
        return vnetVcLo(v) + cls * (vcsPerVnet / 2);
    }

    /** Last VC of a vnet's dateline class. */
    VcId
    classVcHi(VnetId v, int cls) const
    {
        return classVcLo(v, cls) + vcsPerVnet / 2 - 1;
    }

    /** Routers in the fabric (the router grid; the config owns it). */
    int numRouters() const { return meshWidth * meshHeight; } // lint:allow(coordinate-arithmetic)

    /** Cores / network endpoints (routers x concentration). */
    int numNodes() const { return numRouters() * concentration; }

    bool operator==(const NocConfig &) const = default;
};

} // namespace inpg

#endif // INPG_NOC_NOC_CONFIG_HH
