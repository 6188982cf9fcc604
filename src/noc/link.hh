/**
 * @file
 * Point-to-point channels between clocked NoC components.
 *
 * A channel is the only path between two NoC components, and one hop
 * touches only the memory of the two it joins. The consumer owns the
 * channel: a flit pushed at cycle t waits in the consumer's delivery
 * slot for cycle t + FLIT_DELAY, with that port's bit set in the
 * consumer's due mask for the slot, and the push wakes the consumer
 * for that cycle. A credit returned at cycle t lands as a stamped
 * counter in the producer's OutputUnit and counts from
 * t + CREDIT_DELAY. Both delays are at least 1, so intra-cycle tick
 * order is unobservable and hop timing is explicit.
 */

#ifndef INPG_NOC_LINK_HH
#define INPG_NOC_LINK_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/output_unit.hh"
#include "sim/ticking.hh"

namespace inpg {

/**
 * Flit delay of one hop in cycles: the sender's switch traversal (ST)
 * plus the 1-cycle link, completing the paper's 2-stage router +
 * 1-cycle link hop timing.
 */
constexpr Cycle FLIT_DELAY = 2;

/**
 * Delivery slots per channel: a flit for cycle c waits in slot
 * c % FLIT_SLOTS. A power of two above FLIT_DELAY, so the consumer
 * takes a slot's flit (at its delivery cycle) before the push that
 * reuses the slot.
 */
constexpr Cycle FLIT_SLOTS = 4;

static_assert(std::has_single_bit(FLIT_SLOTS) && FLIT_DELAY < FLIT_SLOTS,
              "delivery slots must outlast the flit delay");
static_assert(FLIT_DELAY < ActiveSet::WAKE_RING,
              "the flit delay must fit the wake calendar");

/** Delivery slot of cycle `c`. */
inline std::size_t
flitSlot(Cycle c)
{
    return static_cast<std::size_t>(c & (FLIT_SLOTS - 1));
}

/**
 * A consumer's due-port masks, one per delivery slot: bit p of mask
 * flitSlot(c) is set while a flit for cycle c waits on input port p.
 */
using DueMasks = std::array<std::uint32_t, FLIT_SLOTS>;

/** True while a flit waits in any delivery slot. */
inline bool
anyDue(const DueMasks &due)
{
    std::uint32_t any = 0;
    for (std::uint32_t m : due)
        any |= m;
    return any != 0;
}

/**
 * Diversion mailbox for a cross-domain channel (parallel kernel
 * only). While installed on a Channel, pushes are appended here --
 * stamped with their push cycle, FIFO per direction -- instead of
 * reaching the consumer's slots or the producer's credit counters, so
 * a producer on one thread never touches the other endpoint's state
 * mid-cycle. The coordinator drains the box at the cycle's barrier
 * through Channel::deliverFlit and Channel::landCredit with the
 * original cycles, which reproduces the serial delivery schedule
 * exactly.
 *
 * The two directions have disjoint single writers: flits are pushed
 * by the credit sink's domain, credits by the flit sink's domain, and
 * the two differ (that is what makes the channel a boundary). The
 * first push of a cycle into an empty direction appends the box to
 * that producer's dirty list, so the merge visits only boxes that
 * carry traffic. Each dirty list also has one writer, so neither the
 * box nor the lists need a lock or an atomic.
 */
struct ChannelOutbox {
    /** Boundary index; the merge drains boxes in this order. */
    std::size_t index = 0;
    std::vector<std::pair<Cycle, FlitPtr>> flits;
    std::vector<std::pair<Cycle, VcId>> credits;
    /** Dirty lists of the flit producer's and credit producer's domains. */
    std::vector<ChannelOutbox *> *flitDirty = nullptr;
    std::vector<ChannelOutbox *> *creditDirty = nullptr;

    void
    pushFlit(FlitPtr flit, Cycle now)
    {
        if (flits.empty())
            flitDirty->push_back(this);
        flits.emplace_back(now, std::move(flit));
    }

    void
    pushCredit(VcId vc, Cycle now)
    {
        if (credits.empty())
            creditDirty->push_back(this);
        credits.emplace_back(now, vc);
    }

    bool empty() const { return flits.empty() && credits.empty(); }
};

/**
 * One direction of a router-to-router (or NI-to-router) channel, owned
 * by its flit consumer: the delivery slots of one input port
 * downstream, and a reference to the OutputUnit upstream that its
 * credits land in. A channel carries at most one flit per cycle.
 */
class Channel
{
  public:
    Channel() = default;
    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /**
     * Bind the owning consumer (construction time): the component
     * woken for each delivery, its due masks and the input port this
     * channel feeds.
     */
    void
    bindConsumer(Ticking *sink, DueMasks *due_masks, int port)
    {
        INPG_ASSERT(port >= 0 && port < 32, "bad input port %d", port);
        flitSink = sink;
        due = due_masks;
        portBit = 1u << static_cast<std::uint32_t>(port);
    }

    /**
     * Attach the producer: the component that drives the flits and
     * the OutputUnit its returned credits land in.
     */
    void
    connectProducer(Ticking *producer, OutputUnit *unit)
    {
        INPG_ASSERT(!creditUnit, "channel connected twice");
        creditSink = producer;
        creditUnit = unit;
        unit->connect(this);
    }

    /** Registered endpoints (parallel-kernel domain classification). */
    Ticking *flitSinkComponent() const { return flitSink; }
    Ticking *creditSinkComponent() const { return creditSink; }

    /**
     * Install (or remove with nullptr) a cross-domain diversion box;
     * see ChannelOutbox. Serial runs never install one, so the only
     * overhead off the parallel path is one predictable branch.
     */
    void setOutbox(ChannelOutbox *box) { outbox = box; }

    /**
     * Inject a flit at cycle `now`; the consumer may sleep until it
     * becomes deliverable at now + FLIT_DELAY.
     */
    void
    pushFlit(FlitPtr flit, Cycle now)
    {
        if (outbox) {
            outbox->pushFlit(std::move(flit), now);
            return;
        }
        deliverFlit(std::move(flit), now);
    }

    /**
     * Store a flit pushed at `now` in the slot of its delivery cycle,
     * mark the port due there and wake the consumer for that cycle.
     */
    void
    deliverFlit(FlitPtr flit, Cycle now)
    {
        const Cycle at = now + FLIT_DELAY;
        FlitPtr &slot = slots[flitSlot(at)];
        INPG_ASSERT(!slot, "second flit on one channel in cycle %llu",
                    static_cast<unsigned long long>(now));
        slot = std::move(flit);
        (*due)[flitSlot(at)] |= portBit;
        flitSink->sleepToken().wakeAt(at);
    }

    /**
     * Take the flit deliverable at `now`; the consumer calls this for
     * the ports whose due bit it found set (and cleared).
     */
    FlitPtr
    takeFlit(Cycle now)
    {
        FlitPtr &slot = slots[flitSlot(now)];
        INPG_ASSERT(slot, "no flit due at cycle %llu",
                    static_cast<unsigned long long>(now));
        return std::move(slot);
    }

    /**
     * Return a credit for `vc` at cycle `now`. It wakes nobody (see
     * Ticking's activity contract).
     */
    void
    pushCredit(VcId vc, Cycle now)
    {
        if (outbox) {
            outbox->pushCredit(vc, now);
            return;
        }
        landCredit(vc, now);
    }

    /** Land a credit returned at `now` in the producer's OutputUnit. */
    void landCredit(VcId vc, Cycle now) { creditUnit->land(vc, now); }

  private:
    std::array<FlitPtr, FLIT_SLOTS> slots;
    Ticking *flitSink = nullptr;
    DueMasks *due = nullptr;
    std::uint32_t portBit = 0;
    Ticking *creditSink = nullptr;
    OutputUnit *creditUnit = nullptr;
    ChannelOutbox *outbox = nullptr;
};

} // namespace inpg

#endif // INPG_NOC_LINK_HH
