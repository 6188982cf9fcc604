#include "noc/arbiter.hh"

#include <bit>

#include "common/logging.hh"

namespace inpg {

RoundRobinArbiter::RoundRobinArbiter(std::size_t size)
    : numInputs(static_cast<std::uint32_t>(size))
{
    INPG_ASSERT(size > 0 && size <= 32,
                "arbiter needs 1 to 32 inputs, got %zu", size);
}

int
RoundRobinArbiter::grantMask(std::uint32_t requests)
{
    INPG_ASSERT(numInputs >= 32 || (requests >> numInputs) == 0,
                "request mask %#x exceeds arbiter size %u", requests,
                numInputs);
    if (!requests)
        return -1;
    // First set bit at or after the pointer, wrapping around: the
    // granted input becomes lowest priority next time.
    const std::uint32_t at_or_after = requests & (~0u << pointer);
    const auto idx = static_cast<std::uint32_t>(
        std::countr_zero(at_or_after ? at_or_after : requests));
    pointer = idx + 1 == numInputs ? 0 : idx + 1;
    return static_cast<int>(idx);
}

PriorityArbiter::PriorityArbiter(std::size_t size, Cycle aging_quantum)
    : tieBreak(size), agingQuantum(aging_quantum)
{}

std::int64_t
PriorityArbiter::effectivePriority(const Request &req) const
{
    std::int64_t boost = agingQuantum
        ? static_cast<std::int64_t>(req.age / agingQuantum)
        : 0;
    return static_cast<std::int64_t>(req.priority) + boost;
}

int
PriorityArbiter::grantMasked(std::uint32_t valid, const Request *requests)
{
    if (!valid)
        return -1;
    std::uint32_t winners = valid;
    if (requests) {
        bool any = false;
        std::int64_t best = 0;
        for (std::uint32_t m = valid; m; m &= m - 1) {
            const auto i = static_cast<std::size_t>(std::countr_zero(m));
            std::int64_t p = effectivePriority(requests[i]);
            if (!any || p > best) {
                best = p;
                any = true;
            }
        }
        winners = 0;
        for (std::uint32_t m = valid; m; m &= m - 1) {
            const auto i = static_cast<std::size_t>(std::countr_zero(m));
            if (effectivePriority(requests[i]) == best)
                winners |= 1u << i;
        }
    }
    return tieBreak.grantMask(winners);
}

} // namespace inpg
