#include "noc/output_unit.hh"

#include <bit>

#include "common/logging.hh"

namespace inpg {

static_assert(sizeof(OutputUnit) <= 104,
              "byte-wide credits keep each of a router's five output "
              "units under two cache lines");

OutputUnit::OutputUnit(int num_vcs, int vc_depth)
    : vcs(num_vcs), depth(vc_depth)
{
    INPG_ASSERT(num_vcs > 0 && vc_depth > 0,
                "bad output unit shape: %d VCs x %d credits", num_vcs,
                vc_depth);
    INPG_ASSERT(num_vcs <= MAX_VCS, "busy mask holds at most %d VCs, got %d",
                MAX_VCS, num_vcs);
    INPG_ASSERT(vc_depth <= INT8_MAX, "credit counts are bytes, depth %d",
                vc_depth);
    for (Credit &c : credit)
        c.settled = static_cast<std::int8_t>(vc_depth);
}

void
OutputUnit::allocateVc(VcId vc)
{
    checkVc(vc);
    INPG_ASSERT(!(busyMask & bit(vc)), "double allocation of output VC %d",
                vc);
    busyMask |= bit(vc);
}

void
OutputUnit::freeVc(VcId vc)
{
    checkVc(vc);
    INPG_ASSERT(busyMask & bit(vc), "freeing a free output VC %d", vc);
    busyMask &= ~bit(vc);
}

void
OutputUnit::settle()
{
    for (std::uint32_t m = landingMask; m; m &= m - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(m));
        credit[i].settled += credit[i].landing;
        credit[i].landing = 0;
    }
    landingMask = 0;
}

void
OutputUnit::decrementCredit(VcId vc, Cycle now)
{
    checkVc(vc);
    if (landedAt + CREDIT_DELAY <= now)
        settle();
    std::int8_t &c = credit[static_cast<std::size_t>(vc)].settled;
    INPG_ASSERT(c > 0, "credit underflow on VC %d", vc);
    --c;
}

void
OutputUnit::land(VcId vc, Cycle now)
{
    checkVc(vc);
    INPG_ASSERT(now >= landedAt, "credit landed at %llu after one at %llu",
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(landedAt));
    if (now != landedAt) {
        settle();
        landedAt = now;
    }
    Credit &c = credit[static_cast<std::size_t>(vc)];
    ++c.landing;
    landingMask |= bit(vc);
    INPG_ASSERT(c.settled + c.landing <= depth, "credit overflow on VC %d",
                vc);
}

VcId
OutputUnit::findFreeVcInRange(VcId lo, VcId hi)
{
    INPG_ASSERT(lo >= 0 && hi < numVcs() && lo <= hi,
                "bad VC range [%d, %d]", lo, hi);
    const VcId span = hi - lo + 1;
    // Whole-range fast reject: every VC in [lo, hi] busy.
    const std::uint32_t range_mask =
        ((span >= 32 ? 0u : (1u << span)) - 1u)
        << static_cast<std::uint32_t>(lo);
    if ((busyMask & range_mask) == range_mask)
        return INVALID_VC;
    // Round-robin scan from the pointer; same pointer evolution as the
    // original per-VC loop (pointer moves only on a grant).
    for (VcId i = 0; i < span; ++i) {
        VcId vc = lo + (scanPointer + i) % span;
        if (isVcFree(vc)) {
            scanPointer = (vc - lo + 1) % span;
            return vc;
        }
    }
    return INVALID_VC;
}

} // namespace inpg
