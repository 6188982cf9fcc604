/**
 * @file
 * Output unit of a router port: downstream VC bookkeeping (credit counts
 * and VC allocation state) plus the outgoing channel reference.
 */

#ifndef INPG_NOC_OUTPUT_UNIT_HH
#define INPG_NOC_OUTPUT_UNIT_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace inpg {

class Channel;

/** Credit return delay in cycles. */
constexpr Cycle CREDIT_DELAY = 1;

/**
 * Tracks, for each VC of the downstream input port, whether it is bound
 * to an in-flight packet and how many buffer slots remain.
 *
 * Storage is fixed-width and inline in the owner: a packed busy
 * bitmask plus per-VC credit counts of one byte each (a VC holds at
 * most 64 flits), probed per candidate VC in the VA and SA stages
 * every cycle. The mask makes isVcFree() a single bit test and lets
 * the free-VC scan skip an entirely-busy vnet range in one compare.
 *
 * Returned credits are stamped counters, not queued tokens: the
 * downstream consumer lands a credit by bumping its `landing` count and
 * stamping the unit with the landing cycle, and a read at cycle `now`
 * counts the landings only from landing cycle + CREDIT_DELAY. Landings
 * of an older cycle fold into `settled` on the next landing or
 * decrement. So credits need no per-tick drain, and a producer that
 * slept through a landing reads the same count as one that ticked.
 */
class OutputUnit
{
  public:
    /** VCs per port: the width of the busy mask. */
    static constexpr int MAX_VCS = 32;

    /**
     * @param num_vcs  VCs on the downstream input port
     * @param vc_depth downstream buffer depth (initial credits per VC)
     */
    OutputUnit(int num_vcs, int vc_depth);

    /** Attach the physical channel this port drives (not owned). */
    void connect(Channel *out_channel) { channel = out_channel; }

    Channel *outChannel() const { return channel; }

    /**
     * True if the VC is unbound and can be granted to a new packet.
     * Inline: probed per candidate VC in the VA stage every cycle.
     */
    bool
    isVcFree(VcId vc) const
    {
        checkVc(vc);
        return !(busyMask & bit(vc));
    }

    /** Bind a VC to a packet (VC allocation). */
    void allocateVc(VcId vc);

    /** Release a VC binding (tail flit traversed the switch). */
    void freeVc(VcId vc);

    /**
     * Credits usable on a VC at cycle `now`. Inline: probed per SA
     * candidate.
     */
    int
    credits(VcId vc, Cycle now) const
    {
        checkVc(vc);
        const Credit &c = credit[static_cast<std::size_t>(vc)];
        return c.settled + (landedAt + CREDIT_DELAY <= now ? c.landing : 0);
    }

    /** Consume one credit at cycle `now` (a flit was sent on this VC). */
    void decrementCredit(VcId vc, Cycle now);

    /**
     * Land a credit returned at cycle `now`; it counts from
     * now + CREDIT_DELAY. Landings arrive in nondecreasing cycle order.
     */
    void land(VcId vc, Cycle now);

    /**
     * Find a free VC within [lo, hi] starting the scan after the last
     * grant (round-robin); INVALID_VC if none.
     */
    VcId findFreeVcInRange(VcId lo, VcId hi);

    int numVcs() const { return vcs; }

  private:
    /** Add the landings of cycle `landedAt` to the settled counts. */
    void settle();

    /** One VC's credits: a read touches both counts on one line. */
    struct Credit {
        /** Credits usable regardless of the reading cycle. */
        std::int8_t settled;
        /** Credits landed at cycle `landedAt`. */
        std::int8_t landing;
    };

    Channel *channel = nullptr;
    int vcs;
    int depth;
    VcId scanPointer = 0;

    /** Busy VCs as a packed mask (bit == VC index). */
    std::uint32_t busyMask = 0;

    /** VCs with a nonzero landing count. */
    std::uint32_t landingMask = 0;

    /** Cycle of the landings in `credit[].landing`. */
    Cycle landedAt = 0;

    std::array<Credit, MAX_VCS> credit{};

    static std::uint32_t
    bit(VcId vc)
    {
        return 1u << static_cast<std::uint32_t>(vc);
    }

    void
    checkVc(VcId vc) const
    {
        INPG_ASSERT(vc >= 0 && vc < vcs, "VC id %d out of range", vc);
    }
};

} // namespace inpg

#endif // INPG_NOC_OUTPUT_UNIT_HH
