/**
 * @file
 * Synchronization-layer configuration: spin behaviour, QSL sleep costs,
 * and the OCOR switch.
 */

#ifndef INPG_SYNC_SYNC_CONFIG_HH
#define INPG_SYNC_SYNC_CONFIG_HH

#include "common/types.hh"
#include "ocor/ocor_policy.hh"

namespace inpg {

/** Lock primitive selector (paper Section 2.1). */
enum class LockKind {
    Tas,    ///< test-and-set spin lock
    Ticket, ///< ticket lock (TTL)
    Abql,   ///< array-based queuing lock
    Mcs,    ///< Mellor-Crummey & Scott list lock
    Qsl,    ///< queue spin-lock: bounded spin, then sleep (Linux 4.2)
};

/** Short name ("TAS", "TTL", ...). */
const char *lockKindName(LockKind kind);

/** Parameters of the lock primitives and the QSL sleep path. */
struct SyncConfig {
    /** Cycles between spin polls ("short spin interval", Sec. 2.1). */
    Cycle spinInterval = 16;

    /** QSL: spin retries before yielding to sleep (Table 1: 128). */
    int qslRetryLimit = 128;

    /** QSL: context-switch cost paid when entering the sleep phase. */
    Cycle contextSwitchCost = 1500;

    /** QSL: cost from wakeup signal to the thread running again. */
    Cycle wakeupCost = 1500;

    /** OCOR: stamp RTR-derived priorities on lock request packets. */
    bool ocorEnabled = false;

    /** OCOR RTR -> priority mapping parameters. */
    OcorConfig ocor;

    bool operator==(const SyncConfig &) const = default;
};

} // namespace inpg

#endif // INPG_SYNC_SYNC_CONFIG_HH
