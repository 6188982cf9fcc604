/**
 * @file
 * Structure-of-arrays input-VC state of one router.
 *
 * VA/SA touch one or two fields of many VCs per cycle, so the router
 * keeps every port's VCs in parallel arrays indexed by
 * slot = port * numVcs + vc:
 *
 *   state[]   1 byte per slot (Idle / WaitVc / Active)
 *   outPort[] routed output port (valid in WaitVc+)
 *   outVc[]   allocated downstream VC (valid in Active)
 *   headAt[]  cycle the resident head flit was buffered
 *
 * Flit storage is one pooled ring-buffer arena: capPerVc (vcDepth
 * rounded up to a power of two) FlitPtr slots per VC, with per-slot
 * head/count counters, and beside it an arena of the same shape
 * holding each buffered flit's arrival cycle, so VA and SA read the
 * front flit's cycle without dereferencing the flit. Buffering a flit
 * is an index store; popping is an index move -- no deque nodes, no
 * per-VC allocation, ever.
 *
 * Candidate tracking is three packed 32-bit masks per port (bit == VC
 * index): pendingMask (Idle VCs holding a head flit), waitMask (WaitVc)
 * and activeMask (Active VCs holding a flit). A pipeline stage ORs the
 * port words to know whether the router has any work at all, then
 * sweeps one port's word with countr_zero. The port count is fixed at
 * MAX_PORTS (mesh ports + the iNPG generator port) and a port holds at
 * most MAX_VCS VCs, so every VC count the config surface accepts
 * (numVnets x vcsPerVnet <= 32) uses this one layout.
 */

#ifndef INPG_NOC_VC_STATE_HH
#define INPG_NOC_VC_STATE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/routing.hh"

namespace inpg {

/** Per-router SoA store of every input VC's state, buffer and masks. */
class VcStateArray
{
  public:
    /** VC FSM states. */
    enum : std::uint8_t {
        Idle = 0,   ///< no packet resident
        WaitVc = 1, ///< head buffered & routed; waiting for an output VC
        Active = 2, ///< output VC allocated; flits may traverse
    };

    /** Input ports a router can have: mesh ports + generator port. */
    static constexpr int MAX_PORTS = NUM_PORTS + 1;

    /** VCs per port: the width of one candidate-mask word. */
    static constexpr int MAX_VCS = 32;

    VcStateArray(int num_ports, int num_vcs, int vc_depth);

    int numPorts() const { return ports; }
    int numVcs() const { return vcsPerPort; }
    int vcDepth() const { return depth; }

    std::size_t
    slot(int port, VcId vc) const
    {
        INPG_ASSERT(port >= 0 && port < ports && vc >= 0 &&
                        vc < vcsPerPort,
                    "bad (port %d, vc %d)", port, vc);
        return static_cast<std::size_t>(port) *
                   static_cast<std::size_t>(vcsPerPort) +
               static_cast<std::size_t>(vc);
    }

    // ----- flit ring buffer, pooled across all slots -----

    bool hasFlit(std::size_t s) const { return count[s] != 0; }
    std::size_t vcOccupancy(std::size_t s) const { return count[s]; }

    const FlitPtr &
    front(std::size_t s) const
    {
        INPG_ASSERT(count[s] > 0, "front() on empty VC slot %zu", s);
        return store[s * capPerVc + head[s]];
    }

    /** Cycle the front flit of a VC was buffered. */
    Cycle
    frontAt(std::size_t s) const
    {
        INPG_ASSERT(count[s] > 0, "frontAt() on empty VC slot %zu", s);
        return arrival[s * capPerVc + head[s]];
    }

    /** Buffer an arriving flit into its VC (flit->vc selects the VC). */
    void
    receiveFlit(int port, FlitPtr flit, Cycle now)
    {
        INPG_ASSERT(flit->vc >= 0 && flit->vc < vcsPerPort,
                    "flit arrived on bad VC %d", flit->vc);
        const VcId flit_vc = flit->vc;
        const std::size_t s = slot(port, flit_vc);
        INPG_ASSERT(count[s] < static_cast<std::uint32_t>(depth),
                    "VC %d overflow (credit protocol violated)", flit->vc);
        // Back-to-back packets may share a VC buffer; a flit landing in
        // an idle, empty VC must start a packet.
        if (state[s] == Idle && count[s] == 0) {
            INPG_ASSERT(isHeadFlit(flit->type),
                        "body flit into idle empty VC %d", flit->vc);
        }
        const std::size_t idx =
            s * capPerVc + ((head[s] + count[s]) & (capPerVc - 1));
        store[idx] = std::move(flit);
        arrival[idx] = now;
        ++count[s];
        ++occupancy;
        refreshMask(port, flit_vc);
    }

    /** Pop the head flit of a VC (switch traversal). */
    FlitPtr
    popFlit(int port, VcId vc)
    {
        const std::size_t s = slot(port, vc);
        INPG_ASSERT(count[s] > 0, "pop from empty VC slot %zu", s);
        FlitPtr flit = std::move(store[s * capPerVc + head[s]]);
        head[s] =
            (head[s] + 1) & static_cast<std::uint32_t>(capPerVc - 1);
        --count[s];
        INPG_ASSERT(occupancy > 0, "router occupancy underflow");
        --occupancy;
        refreshMask(port, vc);
        return flit;
    }

    // ----- per-slot FSM state (public: the router drives the stages) --

    std::vector<std::uint8_t> state;
    std::vector<Direction> outPort;
    std::vector<std::uint8_t> outClass; ///< dateline class (WaitVc+)
    std::vector<VcId> outVc;
    std::vector<Cycle> headAt;

    // ----- per-port candidate masks (bit == VC index) -----

    /** Idle VCs holding a (head) flit: need route computation. */
    std::array<std::uint32_t, MAX_PORTS> pendingMask{};

    /** VCs in WaitVc: routed, waiting for an output VC. */
    std::array<std::uint32_t, MAX_PORTS> waitMask{};

    /** Active VCs holding a flit: switch-allocation candidates. */
    std::array<std::uint32_t, MAX_PORTS> activeMask{};

    /** Per-port VA candidates (route-compute or output-VC wait). */
    std::uint32_t
    vaCandidates(int port) const
    {
        const auto p = static_cast<std::size_t>(port);
        return pendingMask[p] | waitMask[p];
    }

    /** Per-port SA-I candidates. */
    std::uint32_t
    saCandidates(int port) const
    {
        return activeMask[static_cast<std::size_t>(port)];
    }

    /** True when any port has a VA candidate. */
    bool
    anyVaCandidate() const
    {
        std::uint32_t any = 0;
        for (std::size_t p = 0; p < MAX_PORTS; ++p)
            any |= pendingMask[p] | waitMask[p];
        return any != 0;
    }

    /** True when any port has an SA candidate. */
    bool
    anySaCandidate() const
    {
        std::uint32_t any = 0;
        for (std::size_t p = 0; p < MAX_PORTS; ++p)
            any |= activeMask[p];
        return any != 0;
    }

    /** Flits buffered across the whole router. */
    std::size_t totalOccupancy() const { return occupancy; }

    /** Flits buffered on one port (debug / hang reports). */
    std::size_t portOccupancy(int port) const;

    /**
     * Re-derive a VC's candidate-mask bits from its state and buffer
     * occupancy. Must run after every state transition or buffer
     * push/pop; receiveFlit/popFlit do so themselves, the router calls
     * it after writing state[] directly.
     */
    void
    refreshMask(int port, VcId vc)
    {
        const std::size_t s = slot(port, vc);
        const auto p = static_cast<std::size_t>(port);
        const std::uint32_t bit = 1u << static_cast<std::uint32_t>(vc);
        pendingMask[p] &= ~bit;
        waitMask[p] &= ~bit;
        activeMask[p] &= ~bit;
        switch (state[s]) {
          case Idle:
            if (count[s] != 0)
                pendingMask[p] |= bit;
            break;
          case WaitVc:
            waitMask[p] |= bit;
            break;
          case Active:
            if (count[s] != 0)
                activeMask[p] |= bit;
            break;
          default:
            INPG_ASSERT(false, "corrupt VC state %u at slot %zu",
                        state[s], s);
        }
    }

  private:
    int ports;
    int vcsPerPort;
    int depth;

    /** Ring capacity per VC: vcDepth rounded up to a power of two. */
    std::size_t capPerVc;

    /** Pooled flit arena: slot s owns store[s*capPerVc .. +capPerVc). */
    std::vector<FlitPtr> store;
    /** Arrival cycle of each stored flit, indexed like `store`. */
    std::vector<Cycle> arrival;
    std::vector<std::uint32_t> head;
    std::vector<std::uint32_t> count;

    std::size_t occupancy = 0;
};

} // namespace inpg

#endif // INPG_NOC_VC_STATE_HH
