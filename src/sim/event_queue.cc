#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace inpg {

void
EventQueue::schedule(Cycle when, Callback fn)
{
    INPG_ASSERT(fn != nullptr, "scheduling a null callback");
    ++statScheduled;
    if (!fn.isInline())
        ++statHeapAllocs;

    // Components may legally schedule "at now" from the tick phase,
    // after runDue(now) already advanced wheelBase to now + 1.
    INPG_ASSERT(when + 1 >= wheelBase, "scheduling into the past");

    Entry e{when, nextSeq++, std::move(fn)};
    if (when + 1 == wheelBase) {
        stale.push_back(std::move(e));
    } else if (when - wheelBase < WHEEL_SIZE) {
        pushWheel(std::move(e));
    } else {
        ++statOverflow;
        overflow.push_back(std::move(e));
        std::push_heap(overflow.begin(), overflow.end(), Later{});
    }
    ++count;
}

void
EventQueue::pushWheel(Entry &&e)
{
    const Cycle when = e.when;
    const std::size_t idx = static_cast<std::size_t>(when & WHEEL_MASK);
    buckets[idx].push_back(std::move(e));
    occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++wheelCount;
    if (wheelNextCacheValid && when < wheelNextCache)
        wheelNextCache = when;
}

Cycle
EventQueue::wheelNextCycle() const
{
    if (wheelCount == 0)
        return CYCLE_NEVER;
    if (wheelNextCacheValid)
        return wheelNextCache;
    // Scan the occupancy bitmap from the base index; buckets hold
    // exactly one cycle's entries, so the first set bit at or after
    // the base is the earliest wheel event, and bits before the base
    // belong to the window's next lap.
    const std::size_t base = static_cast<std::size_t>(wheelBase & WHEEL_MASK);
    const std::size_t baseWord = base >> 6;
    for (std::size_t w = 0; w <= OCC_WORDS; ++w) {
        const std::size_t word = (baseWord + w) & (OCC_WORDS - 1);
        std::uint64_t bits = occupied[word];
        if (w == 0)
            bits &= ~std::uint64_t{0} << (base & 63);
        else if (w == OCC_WORDS)
            bits &= (std::uint64_t{1} << (base & 63)) - 1;
        if (!bits)
            continue;
        const std::size_t idx =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        // Map the bucket index back to an absolute cycle in
        // [wheelBase, wheelBase + WHEEL_SIZE). Absolute cycles stay
        // correct across advanceBaseTo, so the cache survives window
        // slides.
        const Cycle offset = (static_cast<Cycle>(idx) - wheelBase) &
                             WHEEL_MASK;
        wheelNextCache = wheelBase + offset;
        wheelNextCacheValid = true;
        return wheelNextCache;
    }
    return CYCLE_NEVER;
}

Cycle
EventQueue::nextEventCycle() const
{
    if (count == 0)
        return CYCLE_NEVER;
    if (!stale.empty())
        return stale.front().when;
    const Cycle wheelNext = wheelNextCycle();
    const Cycle overflowNext =
        overflow.empty() ? CYCLE_NEVER : overflow.front().when;
    return std::min(wheelNext, overflowNext);
}

void
EventQueue::promoteOverflow()
{
    // Pop in (when, seq) order so promoted entries land in their bucket
    // in global (when, seq) order. Any
    // direct schedule() into that bucket can only happen after the
    // cycle entered the window -- i.e. after this promotion -- so it
    // carries a higher seq and correctly sorts behind.
    while (!overflow.empty() &&
           overflow.front().when - wheelBase < WHEEL_SIZE) {
        std::pop_heap(overflow.begin(), overflow.end(), Later{});
        pushWheel(std::move(overflow.back()));
        overflow.pop_back();
    }
}

void
EventQueue::advanceBaseTo(Cycle base)
{
    if (base <= wheelBase)
        return;
    INPG_ASSERT(wheelCount == 0 || wheelNextCycle() >= base,
                "advancing wheel base past pending events");
    wheelBase = base;
    promoteOverflow();
}

void
EventQueue::drainStale()
{
    // Stale entries were scheduled at wheelBase - 1, strictly before
    // every wheel/overflow event, and their seq order is insertion
    // order -- running them front-to-back preserves global FIFO.
    for (std::size_t i = 0; i < stale.size(); ++i) {
        Callback fn = std::move(stale[i].fn);
        --count;
        ++statExecuted;
        fn(); // may re-enter schedule(), possibly appending to stale
    }
    stale.clear();
}

void
EventQueue::runDue(Cycle now)
{
    drainStale();

    while (count > 0) {
        const Cycle wheelNext = wheelNextCycle();
        const Cycle overflowNext =
            overflow.empty() ? CYCLE_NEVER : overflow.front().when;
        const Cycle next = std::min(wheelNext, overflowNext);
        if (next > now)
            break;

        // Advance the window to `next` first so overflow entries for
        // this cycle are promoted into the live bucket before we sweep
        // it, and callbacks scheduling "at next" append to the same
        // bucket the index loop below is walking.
        advanceBaseTo(next);

        const std::size_t idx =
            static_cast<std::size_t>(next & WHEEL_MASK);
        auto &bucket = buckets[idx];
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            Callback fn = std::move(bucket[i].fn);
            --count;
            --wheelCount;
            ++statExecuted;
            fn(); // may push_back into `bucket`
        }
        bucket.clear();
        occupied[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        wheelNextCacheValid = false;

        // Step past the drained cycle before promoting again so an
        // overflow entry at next + WHEEL_SIZE cannot share the bucket.
        advanceBaseTo(next + 1);
    }

    advanceBaseTo(now + 1);
}

void
EventQueue::clear()
{
    for (std::size_t w = 0; w < OCC_WORDS; ++w) {
        std::uint64_t bits = occupied[w];
        occupied[w] = 0;
        while (bits) {
            const std::size_t idx =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            buckets[idx].clear();
        }
    }
    overflow.clear();
    stale.clear();
    wheelCount = 0;
    count = 0;
    wheelNextCacheValid = false;
}

JsonValue
EventQueue::debugJson() const
{
    JsonValue out = JsonValue::object();
    out["pending"] = static_cast<std::uint64_t>(count);
    const Cycle next = nextEventCycle();
    if (next == CYCLE_NEVER)
        out["next_event"] = "never";
    else
        out["next_event"] = static_cast<std::uint64_t>(next);
    out["scheduled_total"] = statScheduled;
    out["executed_total"] = statExecuted;
    out["overflow_scheduled"] = statOverflow;
    out["schedule_heap_allocs"] = statHeapAllocs;
    return out;
}

} // namespace inpg
