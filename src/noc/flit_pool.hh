/**
 * @file
 * FlitPool: a per-thread free list recycling Flit objects.
 *
 * The NoC allocates one Flit per packet flit and hands it across 10+
 * hops; with shared_ptr this cost one heap allocation plus atomic
 * count traffic per flit. The pool keeps dead flits on a free list and
 * re-initializes them in place, so steady-state simulation performs no
 * flit heap allocation at all.
 *
 * Ownership rules (see also DESIGN.md):
 *  - every Flit belongs to exactly one FlitPool, the per-thread pool of
 *    the thread that created it; it returns there when the last FlitPtr
 *    drops (the payload PacketPtr is released at that moment, not
 *    retained by the free list);
 *  - a simulated System must be constructed, run and destroyed on a
 *    single host thread: flits are born and die on that thread (the
 *    parallel sweep runner confines each configuration to one
 *    worker). The parallel kernel (src/sim/parallel) keeps this
 *    true: only the coordinator thread creates or releases flits (NI
 *    inject/eject, BigRouter generation); fabric workers move
 *    already-live FlitPtrs between buffers, with ownership handed
 *    across the quantum barrier's release/acquire edges;
 *  - pool-less Flits (pool == nullptr, e.g. unit tests constructing
 *    Flit on the heap manually) are deleted instead of recycled.
 */

#ifndef INPG_NOC_FLIT_POOL_HH
#define INPG_NOC_FLIT_POOL_HH

#include <vector>

#include "noc/flit.hh"

namespace inpg {

/** Free-list allocator for Flit objects (one per host thread). */
class FlitPool
{
  public:
    FlitPool() = default;
    ~FlitPool();

    FlitPool(const FlitPool &) = delete;
    FlitPool &operator=(const FlitPool &) = delete;

    /** The calling thread's pool. */
    static FlitPool &local();

    /** Allocate (or recycle) a flit. */
    FlitPtr make(PacketPtr pkt, FlitType type, int seq);

  private:
    friend void detail::releaseFlit(Flit *flit);

    /** Park a dead flit (refs == 0) for reuse. */
    void recycle(Flit *flit);

    std::vector<Flit *> freeList;
};

} // namespace inpg

#endif // INPG_NOC_FLIT_POOL_HH
