#include "noc/vc_state.hh"

#include <bit>
#include <utility>

namespace inpg {

VcStateArray::VcStateArray(int num_ports, int num_vcs, int vc_depth)
    : ports(num_ports), vcsPerPort(num_vcs), depth(vc_depth)
{
    INPG_ASSERT(num_ports > 0 && num_vcs > 0 && vc_depth > 0,
                "bad VC array shape: %d ports x %d VCs x depth %d",
                num_ports, num_vcs, vc_depth);
    INPG_ASSERT(num_ports <= MAX_PORTS && num_vcs <= MAX_VCS,
                "%d ports x %d VCs exceeds the %d x %d mask budget",
                num_ports, num_vcs, MAX_PORTS, MAX_VCS);
    const std::size_t slots = static_cast<std::size_t>(num_ports) *
                              static_cast<std::size_t>(num_vcs);
    capPerVc = std::bit_ceil(static_cast<std::size_t>(vc_depth));

    state.assign(slots, Idle);
    outPort.assign(slots, Direction::Local);
    outClass.assign(slots, VC_CLASS_ANY);
    outVc.assign(slots, INVALID_VC);
    headAt.assign(slots, 0);

    store.assign(slots * capPerVc, FlitPtr{});
    arrival.assign(slots * capPerVc, 0);
    head.assign(slots, 0);
    count.assign(slots, 0);
}

std::size_t
VcStateArray::portOccupancy(int port) const
{
    std::size_t total = 0;
    for (VcId vc = 0; vc < vcsPerPort; ++vc)
        total += count[slot(port, vc)];
    return total;
}

} // namespace inpg
