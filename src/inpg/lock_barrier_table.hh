/**
 * @file
 * Locking barrier table of a big router (paper Section 4.1, Figure 6).
 *
 * Each barrier tracks one lock address. Under a barrier, one early
 * invalidation (EI) entry exists per stopped GetX, from the ST cycle
 * that generates its Inv and forwards the GetX until the InvAck for
 * that Inv is relayed home. A barrier's TTL (default 128 cycles)
 * counts down only while the barrier has no EI entries and resets
 * whenever one is created; at zero the barrier is reclaimed.
 */

#ifndef INPG_INPG_LOCK_BARRIER_TABLE_HH
#define INPG_INPG_LOCK_BARRIER_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/flat_hash_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "telemetry/json.hh"

namespace inpg {

/** A lock barrier table's statistics (snapshot group `inpg.table.N`). */
struct BarrierTableStats : StatGroup {
    Counter barrierTableFull{*this, "barrier_table_full"};
    Counter barriersCreated{*this, "barriers_created"};
    Counter barriersExpired{*this, "barriers_expired"};
    Counter eiListFull{*this, "ei_list_full"};
    Counter eisCompleted{*this, "eis_completed"};
    Counter eisOpened{*this, "eis_opened"};
    Sample eiLifetime{*this, "ei_lifetime"};
};

/** The locking barrier table of one big router. */
class LockBarrierTable
{
  public:
    /**
     * @param max_barriers lock barrier entries (paper default 16)
     * @param max_eis      EI entries per barrier (paper default 16)
     * @param ttl          barrier time-to-live in cycles (default 128)
     */
    LockBarrierTable(std::size_t max_barriers, std::size_t max_eis,
                     Cycle ttl);

    /** True if a (live) barrier exists for the lock address. */
    bool hasBarrier(Addr addr, Cycle now);

    /**
     * Install a barrier when the first GetX for the lock traverses.
     * @return false when the table is full (requests pass through).
     */
    bool createBarrier(Addr addr, Cycle now);

    /**
     * Open an EI entry for a stopped GetX: its early Inv is generated
     * and the GetX forwarded home in the same ST cycle.
     * @return false when the barrier is missing or its EI list is full.
     */
    bool addEi(Addr addr, CoreId core, Cycle now);

    /**
     * Free the EI entry of (addr, core) when the InvAck for its early
     * Inv arrives and is relayed home; restarts the barrier's TTL
     * countdown when it was the last live entry.
     * @return false when no such EI entry exists (stale ack).
     */
    bool completeEi(Addr addr, CoreId core, Cycle now);

    /** Reclaim barriers whose TTL elapsed. Call once per cycle. */
    void expire(Cycle now);

    /** Remove the barrier of a lock address (TTL reclaim). */
    void dropBarrier(Addr addr);

    std::size_t numBarriers() const { return barriers.size(); }

    /**
     * Lower bound on the earliest cycle any idle barrier can expire
     * (CYCLE_NEVER: none can); expire() returns immediately before it.
     * May be stale-low (a barrier that regained EI entries keeps its
     * old candidate), in which case the full scan removes nothing and
     * recomputes it. The table changes only through its own calls, so
     * until one of them, no expiry happens before this cycle.
     */
    Cycle nextExpiry() const { return nextExpiryCycle; }

    /**
     * True if a barrier entry exists for the lock address, without
     * running TTL expiry (const view; `hasBarrier` expires first).
     */
    bool contains(Addr addr) const { return slotIndex.find(addr) != nullptr; }

    /** Live EI entries under a barrier (0 when absent). */
    std::size_t numEis(Addr addr) const;

    /**
     * Table contents for the hang report: every barrier with its EI
     * entries (core, age), in slot order (deterministic).
     */
    JsonValue debugJson(Cycle now) const;

    BarrierTableStats stats;

  private:
    struct EiEntry {
        CoreId core = INVALID_CORE;
        Cycle openedAt = 0;
    };

    struct Barrier {
        Addr addr = INVALID_ADDR;
        std::vector<EiEntry> eis;
        /** Cycle the TTL countdown (re)started; live while eis busy. */
        Cycle idleSince = 0;
    };

    Barrier *find(Addr addr);
    void eraseSlot(std::size_t slot);
    void recomputeNextExpiry();

    std::size_t barrierCapacity;
    std::size_t eiCapacity;
    Cycle ttl;
    std::vector<Barrier> barriers;

    /** Lock address -> slot in `barriers` (maintained on swap-erase). */
    FlatHashMap<Addr, std::size_t> slotIndex;

    /** See nextExpiry(). */
    Cycle nextExpiryCycle = CYCLE_NEVER;
};

/**
 * One lock address's barrier and EI list, in the shape the shared
 * big-router actions (brAct in coh/protocol_actions.hh) operate on.
 */
struct BarrierRef {
    LockBarrierTable &table;
    Addr addr;
    Cycle now;

    bool addEi(CoreId core) { return table.addEi(addr, core, now); }
    bool createBarrier() { return table.createBarrier(addr, now); }
    bool completeEi(CoreId core) { return table.completeEi(addr, core, now); }
    void dropBarrier() { table.dropBarrier(addr); }
};

} // namespace inpg

#endif // INPG_INPG_LOCK_BARRIER_TABLE_HH
