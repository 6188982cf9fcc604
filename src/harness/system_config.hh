/**
 * @file
 * Top-level system configuration: the paper's Table 1 in one struct,
 * plus the mechanism and lock primitive selectors.
 */

#ifndef INPG_HARNESS_SYSTEM_CONFIG_HH
#define INPG_HARNESS_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "coh/coh_config.hh"
#include "common/config.hh"
#include "harness/mechanism.hh"
#include "inpg/inpg_config.hh"
#include "noc/noc_config.hh"
#include "sync/sync_config.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

/** Everything needed to build one simulated system. */
struct SystemConfig {
    NocConfig noc;   ///< mesh, VCs, router pipeline
    CohConfig coh;   ///< caches, directory, memory latencies
    InpgConfig inpg; ///< big-router deployment and table sizing
    SyncConfig sync; ///< spin/sleep behaviour, OCOR parameters

    Mechanism mechanism = Mechanism::Original;
    LockKind lockKind = LockKind::Qsl;

    TelemetryConfig telemetry; ///< instrumentation; all off by default

    /**
     * Host worker threads for the simulation kernel. 1 (the default)
     * runs the classic serial loop; >1 attaches the parallel kernel
     * (src/sim/parallel), which shards plain routers across worker
     * threads, one barrier per cycle. Simulated results are
     * bit-identical for every value. finalize() clamps to [1, 64].
     */
    int threads = 1;

    std::uint64_t seed = 1;

    /**
     * Normalize derived fields (the coherence layer's node count, the
     * NoC switch policy + sync OCOR flag from the mechanism, the
     * big-router clamp) and reject shapes the simulator cannot build:
     * FatalError for a bad VC count or depth, concentration without
     * cmesh, or a torus whose escape VCs cannot split.
     */
    void finalize();

    /** Apply "key=value" overrides (topology, mechanism, lock, ...). */
    void applyOverrides(const Config &cfg);

    /**
     * Every key applyOverrides() reads: the SystemConfig half of a
     * strict driver's known-key list (Config::loadArgs).
     */
    static const std::vector<std::string> &overrideKeys();

    /** Table 1-style multi-line description. */
    std::string describe() const;

    int numCores() const { return noc.numNodes(); }

    bool operator==(const SystemConfig &) const = default;
};

/** Parse a mechanism name ("original", "ocor", "inpg", "inpg+ocor"). */
Mechanism parseMechanism(const std::string &name);

/** Parse a lock kind ("tas", "ttl", "abql", "mcs", "qsl"). */
LockKind parseLockKind(const std::string &name);

} // namespace inpg

#endif // INPG_HARNESS_SYSTEM_CONFIG_HH
