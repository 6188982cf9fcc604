/**
 * @file
 * Flit: the unit of link transfer and buffer allocation.
 *
 * Flits are allocated from a per-thread FlitPool free list and handled
 * through the intrusive, non-atomic FlitPtr smart pointer: per-hop
 * hand-offs are a plain pointer copy plus counter bump instead of a
 * shared_ptr control-block round trip. See flit_pool.hh for ownership
 * rules.
 */

#ifndef INPG_NOC_FLIT_HH
#define INPG_NOC_FLIT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/types.hh"
#include "noc/packet.hh"

namespace inpg {

class FlitPool;
class FlitPtr;
struct Flit;

namespace detail {
/** Return a dead flit to its pool (or the heap). Defined in flit_pool.cc. */
void releaseFlit(Flit *flit);
} // namespace detail

/** Position of a flit inside its packet. */
enum class FlitType {
    Head,
    Body,
    Tail,
    HeadTail, ///< single-flit packet
};

/** True for Head and HeadTail flits. */
inline bool
isHeadFlit(FlitType t)
{
    return t == FlitType::Head || t == FlitType::HeadTail;
}

/** True for Tail and HeadTail flits. */
inline bool
isTailFlit(FlitType t)
{
    return t == FlitType::Tail || t == FlitType::HeadTail;
}

/** One flit of a packet in flight. */
struct Flit {
    Flit(PacketPtr pkt, FlitType flit_type, int sequence)
        : packet(std::move(pkt)), type(flit_type), seq(sequence)
    {}

    PacketPtr packet;
    FlitType type;
    /** 0-based position within the packet. */
    int seq;

    /** Cycle the flit was buffered at the current hop (set per hop). */
    Cycle bufferedAt = 0;

    /** VC the flit occupies at the current hop (set per hop). */
    VcId vc = INVALID_VC;

    std::string toString() const;

  private:
    friend class FlitPool;
    friend class FlitPtr;
    friend void detail::releaseFlit(Flit *flit);

    /**
     * Intrusive reference count. Non-atomic: a flit lives inside one
     * simulated System, and a System is confined to a single host
     * thread (the sweep runner runs whole configurations per thread).
     */
    std::uint32_t refs = 0;

    /** Owning pool the flit returns to on release (null: heap flit). */
    FlitPool *pool = nullptr;
};

/**
 * Intrusive smart pointer to a pooled Flit.
 *
 * Drop-in for the former std::shared_ptr<Flit> on the NoC hot paths:
 * copyable (bumps the intrusive count), movable (pointer steal, no
 * count traffic -- prefer std::move on hand-off).
 */
class FlitPtr
{
  public:
    FlitPtr() noexcept = default;
    FlitPtr(std::nullptr_t) noexcept {}

    FlitPtr(const FlitPtr &other) noexcept : ptr(other.ptr)
    {
        if (ptr)
            ++ptr->refs;
    }

    FlitPtr(FlitPtr &&other) noexcept : ptr(other.ptr)
    {
        other.ptr = nullptr;
    }

    FlitPtr &
    operator=(const FlitPtr &other) noexcept
    {
        if (other.ptr)
            ++other.ptr->refs;
        Flit *old = ptr;
        ptr = other.ptr;
        releaseRaw(old);
        return *this;
    }

    FlitPtr &
    operator=(FlitPtr &&other) noexcept
    {
        if (this != &other) {
            Flit *old = ptr;
            ptr = other.ptr;
            other.ptr = nullptr;
            releaseRaw(old);
        }
        return *this;
    }

    ~FlitPtr() { releaseRaw(ptr); }

    void
    reset() noexcept
    {
        Flit *old = ptr;
        ptr = nullptr;
        releaseRaw(old);
    }

    Flit *get() const noexcept { return ptr; }
    Flit &operator*() const noexcept { return *ptr; }
    Flit *operator->() const noexcept { return ptr; }
    explicit operator bool() const noexcept { return ptr != nullptr; }

    friend bool
    operator==(const FlitPtr &a, const FlitPtr &b) noexcept
    {
        return a.ptr == b.ptr;
    }

    friend bool
    operator!=(const FlitPtr &a, const FlitPtr &b) noexcept
    {
        return a.ptr != b.ptr;
    }

    friend bool
    operator==(const FlitPtr &a, std::nullptr_t) noexcept
    {
        return a.ptr == nullptr;
    }

    friend bool
    operator!=(const FlitPtr &a, std::nullptr_t) noexcept
    {
        return a.ptr != nullptr;
    }

  private:
    friend class FlitPool;

    /** Adopt a raw flit whose count was pre-incremented by the pool. */
    struct Adopt {};
    FlitPtr(Flit *raw, Adopt) noexcept : ptr(raw) {}

    static void
    releaseRaw(Flit *raw) noexcept
    {
        if (raw && --raw->refs == 0)
            detail::releaseFlit(raw);
    }

    Flit *ptr = nullptr;
};

/** Allocate a flit from the calling thread's FlitPool. */
FlitPtr makeFlit(PacketPtr pkt, FlitType type, int seq);

} // namespace inpg

#endif // INPG_NOC_FLIT_HH
