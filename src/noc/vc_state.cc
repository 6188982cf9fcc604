#include "noc/vc_state.hh"

#include <memory>

#include "noc/noc_config.hh"

namespace inpg {

static_assert(sizeof(VcRecord) == 16 &&
                  sizeof(VcRecord) % alignof(FlitPtr) == 0,
              "the VC record is the 16-byte head of its block");
static_assert(VcStateArray::linesPerVc(NocConfig{}.vcDepth) == 1,
              "a default-depth VC must fit one cache line");

VcStateArray::VcStateArray(int num_ports, int num_vcs, int vc_depth)
    : ports(num_ports), vcsPerPort(num_vcs), depth(vc_depth)
{
    INPG_ASSERT(num_ports > 0 && num_vcs > 0 && vc_depth > 0,
                "bad VC array shape: %d ports x %d VCs x depth %d",
                num_ports, num_vcs, vc_depth);
    INPG_ASSERT(num_ports <= MAX_PORTS && num_vcs <= MAX_VCS,
                "%d ports x %d VCs exceeds the %d x %d mask budget",
                num_ports, num_vcs, MAX_PORTS, MAX_VCS);
    INPG_ASSERT(vc_depth <= MAX_DEPTH, "VC depth %d exceeds %d", vc_depth,
                MAX_DEPTH);
    const std::size_t slots = static_cast<std::size_t>(num_ports) *
                              static_cast<std::size_t>(num_vcs);
    vcLines = linesPerVc(vc_depth);
    lines.resize(slots * vcLines);
    for (std::size_t s = 0; s < slots; ++s) {
        std::byte *block = lines[s * vcLines].bytes;
        ::new (static_cast<void *>(block)) VcRecord{};
        std::uninitialized_value_construct_n(
            reinterpret_cast<FlitPtr *>(block + sizeof(VcRecord)), depth);
    }
}

VcStateArray::~VcStateArray()
{
    const std::size_t slots = lines.size() / vcLines;
    for (std::size_t s = 0; s < slots; ++s)
        std::destroy_n(ring(s), depth);
}

} // namespace inpg
