/**
 * @file
 * Arbiters used in VC and switch allocation.
 *
 * RoundRobinArbiter is the baseline policy. The OCOR mechanism supplies
 * priorities; PriorityArbiter picks the highest-priority requester and
 * breaks ties round-robin, with an aging escape hatch against
 * starvation (paper Section 5.1, Case 2).
 */

#ifndef INPG_NOC_ARBITER_HH
#define INPG_NOC_ARBITER_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace inpg {

/** Work-conserving round-robin arbiter over `size` (<= 32) requesters. */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(std::size_t size);

    /**
     * Grant one of the requesting inputs.
     *
     * @param requests bit i set when input i requests.
     * @return granted index, or -1 if nothing requested.
     */
    int grantMask(std::uint32_t requests);

  private:
    std::uint32_t numInputs;
    std::uint32_t pointer = 0;
};

/**
 * Priority arbiter: maximum priority wins; ties resolved round-robin.
 * Each requester may carry an age (cycles waited); `age / agingQuantum`
 * is added to its priority so old requests cannot starve.
 */
class PriorityArbiter
{
  public:
    /**
     * @param size          number of requesters
     * @param aging_quantum cycles of waiting per +1 effective priority;
     *                      0 disables aging.
     */
    PriorityArbiter(std::size_t size, Cycle aging_quantum);

    /** Priority and age of one requester. */
    struct Request {
        int priority = 0;
        Cycle age = 0;
    };

    /**
     * Grant the best of the requesting indices in `valid`; -1 if none.
     * `requests` supplies priority/age for set bits and may be nullptr
     * when every requester has default priority (all-equal priorities
     * reduce to the round-robin tie break).
     */
    int grantMasked(std::uint32_t valid, const Request *requests);

    /** Effective priority including the aging boost. */
    std::int64_t effectivePriority(const Request &req) const;

  private:
    RoundRobinArbiter tieBreak;
    Cycle agingQuantum;
};

} // namespace inpg

#endif // INPG_NOC_ARBITER_HH
