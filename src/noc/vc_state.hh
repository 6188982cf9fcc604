/**
 * @file
 * Input-VC state of one router, one cache-line-shaped block per VC.
 *
 * A hop touches one VC at a time -- buffer the flit, route it, grant
 * it an output VC, pop it -- so everything a hop reads or writes about
 * that VC lives in one contiguous, 64-byte-aligned block indexed by
 * slot = port * numVcs + vc:
 *
 *   bytes 0-15   VcRecord: headAt, outVc, state, outPort, outClass and
 *                the ring cursor (head, count)
 *   bytes 16-    the VC's FlitPtr ring, exactly vcDepth entries
 *
 * A block rounds up to whole cache lines. At the default shape
 * (depth 4) a VC is exactly one line, and depths up to 6 still fit in
 * one; deeper VCs take more lines, up to MAX_DEPTH flits. Each flit
 * carries the cycle it was buffered at this hop (Flit::bufferedAt), so
 * VA and SA read the front flit's arrival from the flit they touch
 * anyway. Buffering a flit is an index store; popping is an index move
 * -- no per-VC allocation, ever.
 *
 * Candidate tracking is three packed 32-bit masks per port (bit == VC
 * index): pendingMask (Idle VCs holding a head flit), waitMask (WaitVc)
 * and activeMask (Active VCs holding a flit). A pipeline stage ORs the
 * port words to know whether the router has any work at all, then
 * sweeps one port's word with countr_zero. Masks exist for MAX_PORTS
 * (mesh ports + the iNPG generator port), blocks only for the router's
 * own ports, and a port holds at most MAX_VCS VCs: every VC count the
 * config surface accepts (numVnets x vcsPerVnet <= 32) uses one layout.
 */

#ifndef INPG_NOC_VC_STATE_HH
#define INPG_NOC_VC_STATE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/flit.hh"
#include "noc/routing.hh"

namespace inpg {

/** The scalar state of one input VC: the first 16 bytes of its block. */
struct VcRecord {
    Cycle headAt = 0; ///< cycle the head flit was buffered (WaitVc+)
    std::int8_t outVc = INVALID_VC; ///< downstream VC (Active)
    std::uint8_t state = 0; ///< VcStateArray::Idle / WaitVc / Active
    Direction outPort = Direction::Local; ///< routed output (WaitVc+)
    std::uint8_t outClass = VC_CLASS_ANY; ///< dateline class (WaitVc+)
    std::uint8_t head = 0; ///< ring index of the front flit
    std::uint8_t count = 0; ///< flits buffered
};

/** Per-router store of every input VC's state, buffer and masks. */
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

    /** Deepest VC buffer: the uint8 ring cursor holds head + count. */
    static constexpr int MAX_DEPTH = 64;

    /** Block alignment and granule. */
    static constexpr std::size_t LINE_BYTES = 64;

    /** Cache lines one VC of `vc_depth` flits occupies. */
    static constexpr std::size_t
    linesPerVc(int vc_depth)
    {
        return (sizeof(VcRecord) +
                static_cast<std::size_t>(vc_depth) * sizeof(FlitPtr) +
                LINE_BYTES - 1) /
               LINE_BYTES;
    }

    VcStateArray(int num_ports, int num_vcs, int vc_depth);
    ~VcStateArray();

    /** Blocks hold live FlitPtrs: one owner only. */
    VcStateArray(const VcStateArray &) = delete;
    VcStateArray &operator=(const VcStateArray &) = delete;

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

    /**
     * The FSM record of a slot. The router drives the pipeline stages
     * through it and calls refreshMask() after changing `state`.
     */
    VcRecord &
    rec(std::size_t s)
    {
        return *std::launder(
            reinterpret_cast<VcRecord *>(lines[s * vcLines].bytes));
    }

    const VcRecord &
    rec(std::size_t s) const
    {
        return const_cast<VcStateArray *>(this)->rec(s);
    }

    // ----- per-VC flit ring, inside the VC's block -----

    const FlitPtr &
    front(std::size_t s) const
    {
        const VcRecord &r = rec(s);
        INPG_ASSERT(r.count > 0, "front() on empty VC slot %zu", s);
        return ring(s)[r.head];
    }

    /** Buffer an arriving flit into its VC (flit->vc selects the VC). */
    void
    receiveFlit(int port, FlitPtr flit, Cycle now)
    {
        INPG_ASSERT(flit->vc >= 0 && flit->vc < vcsPerPort,
                    "flit arrived on bad VC %d", flit->vc);
        const VcId flit_vc = flit->vc;
        const std::size_t s = slot(port, flit_vc);
        VcRecord &r = rec(s);
        INPG_ASSERT(r.count < depth,
                    "VC %d overflow (credit protocol violated)", flit->vc);
        // Back-to-back packets may share a VC buffer; a flit landing in
        // an idle, empty VC must start a packet.
        if (r.state == Idle && r.count == 0) {
            INPG_ASSERT(isHeadFlit(flit->type),
                        "body flit into idle empty VC %d", flit->vc);
        }
        int idx = r.head + r.count;
        if (idx >= depth)
            idx -= depth;
        flit->bufferedAt = now;
        ring(s)[idx] = std::move(flit);
        ++r.count;
        ++occupancy;
        refreshMask(port, flit_vc);
    }

    /** Pop the head flit of a VC (switch traversal). */
    FlitPtr
    popFlit(int port, VcId vc)
    {
        const std::size_t s = slot(port, vc);
        VcRecord &r = rec(s);
        INPG_ASSERT(r.count > 0, "pop from empty VC slot %zu", s);
        FlitPtr flit = std::move(ring(s)[r.head]);
        r.head = r.head + 1 == depth
                     ? 0
                     : static_cast<std::uint8_t>(r.head + 1);
        --r.count;
        INPG_ASSERT(occupancy > 0, "router occupancy underflow");
        --occupancy;
        refreshMask(port, vc);
        return flit;
    }

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

    /**
     * Re-derive a VC's candidate-mask bits from its state and buffer
     * occupancy. Must run after every state transition or buffer
     * push/pop; receiveFlit/popFlit do so themselves, the router calls
     * it after writing rec(s).state.
     */
    void
    refreshMask(int port, VcId vc)
    {
        const std::size_t s = slot(port, vc);
        const VcRecord &r = rec(s);
        const auto p = static_cast<std::size_t>(port);
        const std::uint32_t bit = 1u << static_cast<std::uint32_t>(vc);
        pendingMask[p] &= ~bit;
        waitMask[p] &= ~bit;
        activeMask[p] &= ~bit;
        switch (r.state) {
          case Idle:
            if (r.count != 0)
                pendingMask[p] |= bit;
            break;
          case WaitVc:
            waitMask[p] |= bit;
            break;
          case Active:
            if (r.count != 0)
                activeMask[p] |= bit;
            break;
          default:
            INPG_ASSERT(false, "corrupt VC state %u at slot %zu",
                        r.state, s);
        }
    }

  private:
    /** One aligned granule of block storage. */
    struct alignas(LINE_BYTES) Line {
        std::byte bytes[LINE_BYTES];
    };

    /** The `depth` ring entries that follow a slot's record. */
    FlitPtr *
    ring(std::size_t s)
    {
        return std::launder(reinterpret_cast<FlitPtr *>(
            lines[s * vcLines].bytes + sizeof(VcRecord)));
    }

    const FlitPtr *
    ring(std::size_t s) const
    {
        return const_cast<VcStateArray *>(this)->ring(s);
    }

    int ports;
    int vcsPerPort;
    int depth;

    /** Lines per VC block: linesPerVc(depth). */
    std::size_t vcLines;

    /** Block storage: slot s owns lines[s*vcLines .. +vcLines). */
    std::vector<Line> lines;

    std::size_t occupancy = 0;
};

} // namespace inpg

#endif // INPG_NOC_VC_STATE_HH
