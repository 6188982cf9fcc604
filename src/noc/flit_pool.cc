#include "noc/flit_pool.hh"

#include "common/logging.hh"

namespace inpg {

FlitPool &
FlitPool::local()
{
    static thread_local FlitPool pool;
    return pool;
}

FlitPtr
FlitPool::make(PacketPtr pkt, FlitType type, int seq)
{
    Flit *flit;
    if (!freeList.empty()) {
        flit = freeList.back();
        freeList.pop_back();
        flit->packet = std::move(pkt);
        flit->type = type;
        flit->seq = seq;
        flit->vc = INVALID_VC;
    } else {
        flit = new Flit(std::move(pkt), type, seq);
    }
    flit->pool = this;
    flit->refs = 1;
    return FlitPtr(flit, FlitPtr::Adopt{});
}

void
FlitPool::recycle(Flit *flit)
{
    INPG_ASSERT(flit->refs == 0, "recycling a live flit");
    // Drop the payload now; parking it would pin the Packet (and the
    // coherence message inside it) for the pool's whole lifetime.
    flit->packet.reset();
    freeList.push_back(flit);
}

FlitPool::~FlitPool()
{
    for (Flit *flit : freeList)
        delete flit;
}

namespace detail {

void
releaseFlit(Flit *flit)
{
    if (flit->pool)
        flit->pool->recycle(flit);
    else
        delete flit;
}

} // namespace detail

FlitPtr
makeFlit(PacketPtr pkt, FlitType type, int seq)
{
    return FlitPool::local().make(std::move(pkt), type, seq);
}

} // namespace inpg
