/**
 * @file
 * Interface for components clocked by the Simulator, plus the
 * activity contract that lets idle components leave the tick loop.
 */

#ifndef INPG_SIM_TICKING_HH
#define INPG_SIM_TICKING_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace inpg {

/**
 * A packed active set (bit i = slot i) plus its wake calendar.
 *
 * The calendar is a ring of WAKE_RING bitmaps, one bucket per cycle,
 * indexed by cycle mod WAKE_RING. A timed wake sets the slot's bit in
 * its cycle's bucket; the kernel ORs the bucket into the active set at
 * the start of that cycle, before the sweep. Each bucket keeps a list
 * of the words it dirtied, so applying a bucket touches only those
 * words. The serial kernel owns one set and every fabric domain of the
 * parallel kernel owns another.
 */
class ActiveSet
{
  public:
    /**
     * Calendar length in cycles: a power of two larger than every
     * single timed-wake distance (link.hh asserts the flit delay
     * fits; SleepToken::sleepUntil chains longer waits).
     */
    static constexpr Cycle WAKE_RING = 8;

    /** Append a slot, active or not; returns its index. */
    std::size_t
    addSlot(bool active)
    {
        const std::size_t idx = slots++;
        if ((idx >> 6) >= bits.size()) {
            bits.push_back(0);
            for (std::size_t b = 0; b < WAKE_RING; ++b) {
                ring[b].push_back(0);
                dirty[b].reserve(bits.size());
            }
        }
        if (active)
            activate(idx >> 6, bitOf(idx));
        return idx;
    }

    /** Set a bit in the active bitmap (idempotent). */
    void
    activate(std::size_t word, std::uint64_t bit)
    {
        if (!(bits[word] & bit)) {
            bits[word] |= bit;
            ++count;
        }
    }

    /** Clear a bit in the active bitmap (idempotent). */
    void
    deactivate(std::size_t word, std::uint64_t bit)
    {
        if (bits[word] & bit) {
            bits[word] &= ~bit;
            --count;
        }
    }

    /** Set a bit in the bucket of cycle `when`. */
    void
    activateAt(Cycle when, std::size_t word, std::uint64_t bit)
    {
        const std::size_t b = static_cast<std::size_t>(when & (WAKE_RING - 1));
        std::uint64_t &w = ring[b][word];
        if (!w) {
            dirty[b].push_back(static_cast<std::uint32_t>(word));
            ++pendingWords;
        }
        w |= bit;
    }

    /** OR the wakes timed for cycle `now` into the active bitmap. */
    void
    applyWakes(Cycle now)
    {
        const std::size_t b = static_cast<std::size_t>(now & (WAKE_RING - 1));
        std::vector<std::uint32_t> &words = dirty[b];
        if (words.empty())
            return;
        for (std::uint32_t w : words) {
            std::uint64_t &pending = ring[b][w];
            count += static_cast<std::size_t>(
                std::popcount(pending & ~bits[w]));
            bits[w] |= pending;
            pending = 0;
        }
        pendingWords -= words.size();
        words.clear();
    }

    /** Active slots. */
    std::size_t activeCount() const { return count; }

    /** True when nothing is active and no timed wake is pending. */
    bool quiescent() const { return count == 0 && pendingWords == 0; }

    /**
     * Call `tick(i)` for every active slot i, in ascending slot order:
     * the one sweep of the serial kernel, the host-profiled kernel and
     * every parallel domain. The live word is re-read before every
     * pick, so a tick that wakes a HIGHER slot makes it run this same
     * sweep, while the cursor mask retires the picked bit and every
     * bit below it, so a backward wake waits for the next cycle: each
     * slot is examined once, with its state as of the moment the scan
     * reaches it. Components only ever suspend themselves, so a bit
     * the cursor has not reached can vanish only with its tick already
     * unnecessary. A template, not std::function, so the unprofiled
     * callable inlines into the loop.
     */
    template <typename Tick>
    void
    sweep(Tick &&tick) const
    {
        for (std::size_t w = 0; w < bits.size(); ++w) {
            std::uint64_t eligible = ~std::uint64_t{0};
            std::uint64_t m;
            while ((m = bits[w] & eligible) != 0) {
                const std::size_t b =
                    static_cast<std::size_t>(std::countr_zero(m));
                eligible &= ~std::uint64_t{0} << 1 << b;
                tick((w << 6) + b);
            }
        }
    }

    bool
    isActive(std::size_t idx) const
    {
        return (bits[idx >> 6] & bitOf(idx)) != 0;
    }

    /** True when a timed wake for `idx` sits in any bucket. */
    bool
    wakePending(std::size_t idx) const
    {
        for (std::size_t b = 0; b < WAKE_RING; ++b)
            if (ring[b][idx >> 6] & bitOf(idx))
                return true;
        return false;
    }

    /**
     * Move slot `from_idx` of `from` into slot `to_idx` of `to`: its
     * active bit and every pending timed wake (bucket for bucket, so
     * each wake keeps its cycle). Both sets must step the same cycles.
     */
    static void
    moveSlot(ActiveSet &from, std::size_t from_idx, ActiveSet &to,
             std::size_t to_idx)
    {
        const std::size_t fw = from_idx >> 6, tw = to_idx >> 6;
        const std::uint64_t fb = bitOf(from_idx), tb = bitOf(to_idx);
        if (from.bits[fw] & fb) {
            from.deactivate(fw, fb);
            to.activate(tw, tb);
        }
        for (std::size_t b = 0; b < WAKE_RING; ++b) {
            std::uint64_t &w = from.ring[b][fw];
            if (!(w & fb))
                continue;
            w &= ~fb;
            if (!w) {
                // Unlist the emptied word so applying the bucket
                // never visits a word it no longer owns.
                std::vector<std::uint32_t> &list = from.dirty[b];
                for (std::size_t i = 0; i < list.size(); ++i) {
                    if (list[i] == fw) {
                        list[i] = list.back();
                        list.pop_back();
                        break;
                    }
                }
                --from.pendingWords;
            }
            to.activateAt(static_cast<Cycle>(b), tw, tb);
        }
    }

    static std::uint64_t
    bitOf(std::size_t idx)
    {
        return std::uint64_t{1} << (idx & 63);
    }

  private:
    std::size_t slots = 0;
    std::vector<std::uint64_t> bits;
    std::size_t count = 0;
    std::array<std::vector<std::uint64_t>, WAKE_RING> ring;
    /** Per bucket: the words it has nonzero, each listed once. */
    std::array<std::vector<std::uint32_t>, WAKE_RING> dirty;
    /** Listed (bucket, word) pairs across the calendar. */
    std::size_t pendingWords = 0;
};

/**
 * Handle a registered component uses to enter and leave an active
 * set. Unbound tokens (component never registered, e.g. unit tests
 * ticking by hand) make every operation a no-op.
 *
 * The token names its set and its slot's word and bit, so wake and
 * suspend are a bit test and a store, and a set that grows (its
 * vectors reallocate) needs no re-bind.
 */
class SleepToken
{
  public:
    SleepToken() = default;

    /** Re-enter the active set now (idempotent). */
    void
    wake()
    {
        if (set)
            set->activate(word, bit);
    }

    /**
     * Re-enter the active set at the start of cycle `when`, before
     * that cycle's sweep. `when` must lie after the current cycle and
     * less than ActiveSet::WAKE_RING cycles ahead of it.
     */
    void
    wakeAt(Cycle when)
    {
        if (set)
            set->activateAt(when, word, bit);
    }

    /** Leave the active set (idempotent). */
    void
    suspend()
    {
        if (set)
            set->deactivate(word, bit);
    }

    /**
     * Leave the active set until cycle `due` (CYCLE_NEVER: until the
     * next wake). A due cycle past the wake calendar is reached in a
     * chain of hops: the timed wake lands at the furthest cycle the
     * calendar holds, and the woken tick, finding `due` still ahead,
     * calls this again. A due cycle at or before `now` wakes at
     * now + 1.
     */
    void
    sleepUntil(Cycle due, Cycle now)
    {
        suspend();
        if (due != CYCLE_NEVER)
            wakeAt(std::clamp(due, now + 1, now + ActiveSet::WAKE_RING - 1));
    }

    bool bound() const { return set != nullptr; }

    /** In the active set now (diagnostics and tests). */
    bool active() const { return set && set->isActive(slot()); }

    /** A timed wake is pending in the set's calendar. */
    bool wakePending() const { return set && set->wakePending(slot()); }

  private:
    friend class Simulator;
    /** Moves tokens between per-domain sets (sim/parallel). */
    friend class ParallelKernel;

    void
    bind(ActiveSet *s, std::size_t idx)
    {
        set = s;
        word = idx >> 6;
        bit = ActiveSet::bitOf(idx);
    }

    std::size_t
    slot() const
    {
        return (word << 6) + static_cast<std::size_t>(std::countr_zero(bit));
    }

    ActiveSet *set = nullptr;
    std::size_t word = 0;
    std::uint64_t bit = 0;
};

/**
 * A component evaluated once per simulated cycle while active.
 *
 * The simulator guarantees a fixed, registration-order evaluation
 * sequence within a cycle. Components must only exchange state through
 * latched queues or Channels (which impose at least one cycle of
 * delay), so that intra-cycle ordering is never observable.
 *
 * Activity contract: every component starts active and leaves the tick
 * loop only from its own tick(), once it can prove that its ticks are
 * no-ops until new input arrives or a known cycle comes:
 *  - suspendSelf() when only new input can give it work (its queues
 *    are drained, no time-driven work pending);
 *  - suspendUntil(due, now) when it also has time-driven work at cycle
 *    `due` -- a big router's next barrier expiry, a directory bank's
 *    busy-until cycle. The wake hops through the calendar, so `due`
 *    may lie any distance ahead.
 * Whoever delivers input wakes the consumer: Channel::pushFlit with
 * SleepToken::wakeAt(delivery cycle), a message enqueue with wake().
 * A returned credit wakes nobody: it lands as a counter stamped with
 * its cycle in the producer's OutputUnit, and every read takes the
 * reading cycle, so a producer that slept through the landing reads
 * the same count as one that ticked. Waking an idle component early is
 * always safe: a suspendable tick is a behavioral no-op.
 */
class Ticking
{
  public:
    virtual ~Ticking() = default;

    /** Evaluate one cycle. @param now the cycle being evaluated. */
    virtual void tick(Cycle now) = 0;

    /** Diagnostic name. */
    virtual std::string tickName() const { return "component"; }

    /** Activity handle (bound by Simulator::addTicking). */
    SleepToken &sleepToken() { return token; }

  protected:
    /** Leave the tick loop until the next wake (see class comment). */
    void suspendSelf() { token.suspend(); }

    /** Leave the tick loop until cycle `due` or the next wake. */
    void suspendUntil(Cycle due, Cycle now) { token.sleepUntil(due, now); }

    /** Re-enter the tick loop (safe from any context). */
    void wakeSelf() { token.wake(); }

  private:
    friend class Simulator;

    SleepToken token;
};

} // namespace inpg

#endif // INPG_SIM_TICKING_HH
