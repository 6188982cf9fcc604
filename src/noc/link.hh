/**
 * @file
 * Fixed-latency point-to-point links for flits and credits.
 *
 * Links are the only channel between clocked NoC components; they latch
 * items with a delivery cycle in the future, making intra-cycle tick
 * order unobservable and hop timing explicit.
 */

#ifndef INPG_NOC_LINK_HH
#define INPG_NOC_LINK_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/credit.hh"
#include "noc/flit.hh"
#include "noc/ring_buffer.hh"
#include "sim/ticking.hh"

namespace inpg {

/**
 * FIFO pipe delivering items `latency` cycles after push.
 *
 * Items pushed at cycle t become poppable at cycle t + latency. Pushes
 * within one cycle stay ordered.
 *
 * Storage is a pow2 RingBuffer: this queue sits on every link hop, so
 * ready()/pop() must be a flat-array index, and a deque's lazy chunk
 * allocation on growth is exactly the steady-state heap traffic the
 * flit path forbids. The initial capacity covers the typical in-flight
 * window (latency + a burst of same-cycle pushes); deeper transients
 * grow the ring once and never allocate again.
 */
template <typename T>
class DelayLine
{
  public:
    explicit DelayLine(Cycle link_latency) : latency(link_latency)
    {
        INPG_ASSERT(link_latency >= 1, "link latency must be >= 1");
    }

    /** Enqueue an item at cycle `now`. */
    void
    push(T item, Cycle now)
    {
        queue.push_back({now + latency, std::move(item)});
    }

    /** True if an item is deliverable at cycle `now`. */
    bool
    ready(Cycle now) const
    {
        return !queue.empty() && queue.front().first <= now;
    }

    /** Pop the next deliverable item; ready(now) must be true. */
    T
    pop(Cycle now)
    {
        INPG_ASSERT(ready(now), "pop on non-ready link");
        T item = std::move(queue.front().second);
        queue.pop_front();
        return item;
    }

    /** Items in flight (delivered or not). */
    std::size_t size() const { return queue.size(); }

    bool empty() const { return queue.empty(); }

    Cycle linkLatency() const { return latency; }

  private:
    Cycle latency;
    RingBuffer<std::pair<Cycle, T>, 8> queue;
};

/**
 * Diversion mailbox for a cross-domain channel (parallel kernel
 * only). While installed on a Channel, pushes are appended here --
 * stamped with their push cycle, FIFO per direction -- instead of
 * entering the DelayLines, so a producer on one thread never touches
 * the consumer's state mid-cycle. The coordinator drains the box at
 * the cycle's barrier by re-pushing with the original cycles, which
 * reproduces the serial delivery schedule exactly.
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
    std::vector<std::pair<Cycle, Credit>> credits;
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
    pushCredit(Credit credit, Cycle now)
    {
        if (credits.empty())
            creditDirty->push_back(this);
        credits.emplace_back(now, credit);
    }

    bool empty() const { return flits.empty() && credits.empty(); }
};

/**
 * Flit delay of one hop in cycles: the sender's switch traversal (ST)
 * plus the 1-cycle link, completing the paper's 2-stage router +
 * 1-cycle link hop timing.
 */
constexpr Cycle FLIT_DELAY = 2;

/** Credit return delay in cycles. */
constexpr Cycle CREDIT_DELAY = 1;

static_assert(FLIT_DELAY < ActiveSet::WAKE_RING,
              "the flit delay must fit the wake calendar");

/**
 * One direction of a router-to-router (or NI-to-router) channel:
 * a flit pipe downstream (FLIT_DELAY) and a credit pipe upstream
 * (CREDIT_DELAY). Both delays are at least 1, which is what lets the
 * parallel kernel merge cross-domain traffic at the end of each cycle.
 */
class Channel
{
  public:
    Channel() : flits(FLIT_DELAY), credits(CREDIT_DELAY) {}

    /**
     * Register the component that drains each pipe. Senders must inject
     * through pushFlit()/pushCredit(): a flit push wakes a sleeping
     * flit sink for the cycle the flit becomes deliverable.
     */
    void setFlitSink(Ticking *sink) { flitSink = sink; }
    void setCreditSink(Ticking *sink) { creditSink = sink; }

    /** Registered consumers (parallel-kernel domain classification). */
    Ticking *flitSinkComponent() const { return flitSink; }
    Ticking *creditSinkComponent() const { return creditSink; }

    /**
     * Install (or remove with nullptr) a cross-domain diversion box;
     * see ChannelOutbox. Serial runs never install one, so the only
     * overhead off the parallel path is one predictable branch.
     */
    void setOutbox(ChannelOutbox *box) { outbox = box; }

    /**
     * Inject a flit and wake the downstream consumer for its delivery
     * cycle; the consumer may sleep until then.
     */
    void
    pushFlit(FlitPtr flit, Cycle now)
    {
        if (outbox) {
            outbox->pushFlit(std::move(flit), now);
            return;
        }
        flits.push(std::move(flit), now);
        if (flitSink)
            flitSink->sleepToken().wakeAt(now + FLIT_DELAY);
    }

    /**
     * Latch a credit. It wakes nobody: the upstream consumer reads
     * credits only while awake and drains every ready one at the
     * start of each tick (see Ticking's activity contract).
     */
    void
    pushCredit(Credit credit, Cycle now)
    {
        if (outbox) {
            outbox->pushCredit(credit, now);
            return;
        }
        credits.push(credit, now);
    }

    DelayLine<FlitPtr> flits;
    DelayLine<Credit> credits;

  private:
    Ticking *flitSink = nullptr;
    Ticking *creditSink = nullptr;
    ChannelOutbox *outbox = nullptr;
};

} // namespace inpg

#endif // INPG_NOC_LINK_HH
