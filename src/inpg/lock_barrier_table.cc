#include "inpg/lock_barrier_table.hh"

#include <algorithm>

#include "coh/protocol_actions.hh"
#include "common/logging.hh"

namespace inpg {

LockBarrierTable::LockBarrierTable(std::size_t max_barriers,
                                   std::size_t max_eis, Cycle ttl_cycles)
    : barrierCapacity(max_barriers), eiCapacity(max_eis), ttl(ttl_cycles)
{
    INPG_ASSERT(max_barriers >= 1 && max_eis >= 1,
                "locking barrier table needs capacity");
}

LockBarrierTable::Barrier *
LockBarrierTable::find(Addr addr)
{
    const std::size_t *slot = slotIndex.find(addr);
    return slot ? &barriers[*slot] : nullptr;
}

void
LockBarrierTable::eraseSlot(std::size_t slot)
{
    slotIndex.erase(barriers[slot].addr);
    if (slot + 1 != barriers.size()) {
        barriers[slot] = std::move(barriers.back());
        slotIndex[barriers[slot].addr] = slot;
    }
    barriers.pop_back();
}

void
LockBarrierTable::recomputeNextExpiry()
{
    nextExpiryCycle = CYCLE_NEVER;
    for (const auto &b : barriers)
        if (b.eis.empty())
            nextExpiryCycle = std::min(nextExpiryCycle, b.idleSince + ttl);
}

bool
LockBarrierTable::hasBarrier(Addr addr, Cycle now)
{
    expire(now);
    return find(addr) != nullptr;
}

bool
LockBarrierTable::createBarrier(Addr addr, Cycle now)
{
    expire(now);
    if (find(addr))
        return true;
    if (barriers.size() >= barrierCapacity) {
        ++stats.barrierTableFull;
        return false;
    }
    Barrier b;
    b.addr = addr;
    b.idleSince = now;
    slotIndex[addr] = barriers.size();
    barriers.push_back(std::move(b));
    nextExpiryCycle = std::min(nextExpiryCycle, now + ttl);
    ++stats.barriersCreated;
    return true;
}

bool
LockBarrierTable::addEi(Addr addr, CoreId core, Cycle now)
{
    Barrier *b = find(addr);
    if (!b)
        return false;
    if (b->eis.size() >= eiCapacity) {
        ++stats.eiListFull;
        return false;
    }
    // One live EI per core per barrier: a core has at most one GetX in
    // flight, so a duplicate means a stale entry -- refuse.
    for (const auto &e : b->eis)
        if (e.core == core)
            return false;
    b->eis.push_back({core, now});
    ++stats.eisOpened;
    return true;
}

bool
LockBarrierTable::completeEi(Addr addr, CoreId core, Cycle now)
{
    Barrier *b = find(addr);
    if (!b)
        return false;
    auto it = std::find_if(b->eis.begin(), b->eis.end(),
                           [core](const EiEntry &e) {
                               return e.core == core;
                           });
    if (it == b->eis.end())
        return false;
    stats.eiLifetime.add(static_cast<double>(now - it->openedAt));
    b->eis.erase(it);
    ++stats.eisCompleted;
    if (b->eis.empty()) {
        b->idleSince = now; // TTL countdown restarts from full value
        nextExpiryCycle = std::min(nextExpiryCycle, now + ttl);
    }
    return true;
}

void
LockBarrierTable::expire(Cycle now)
{
    if (now < nextExpiryCycle)
        return; // no idle barrier can have timed out yet
    for (std::size_t i = 0; i < barriers.size();) {
        if (barriers[i].eis.empty() &&
            now >= barriers[i].idleSince + ttl) {
            // The declarative FSM only permits TTL expiry from the
            // idle state (the countdown pauses while EIs are open);
            // require() panics if the table ever disagrees. The
            // reclaim swap-erases: re-examine the moved-in slot.
            const ProtoTransition &tr =
                bigRouterProtocolTable().require(
                    static_cast<int>(BrState::BarrierIdle),
                    static_cast<int>(BrEvent::TtlExpire));
            BarrierRef ref{*this, barriers[i].addr, now};
            const bool reclaimed = brExpire(tr, ref);
            INPG_ASSERT(reclaimed, "barrier FSM: (BarrierIdle, TtlExpire) "
                                   "must reclaim the barrier");
        } else {
            ++i;
        }
    }
    recomputeNextExpiry();
}

void
LockBarrierTable::dropBarrier(Addr addr)
{
    const std::size_t *slot = slotIndex.find(addr);
    INPG_ASSERT(slot, "no barrier for 0x%llx",
                static_cast<unsigned long long>(addr));
    ++stats.barriersExpired;
    eraseSlot(*slot);
}

std::size_t
LockBarrierTable::numEis(Addr addr) const
{
    const std::size_t *slot = slotIndex.find(addr);
    return slot ? barriers[*slot].eis.size() : 0;
}

JsonValue
LockBarrierTable::debugJson(Cycle now) const
{
    JsonValue out = JsonValue::array();
    for (const Barrier &b : barriers) {
        JsonValue bj = JsonValue::object();
        bj["addr"] = static_cast<std::uint64_t>(b.addr);
        if (b.eis.empty()) {
            bj["idle_for"] =
                static_cast<std::uint64_t>(now - b.idleSince);
        }
        JsonValue eis = JsonValue::array();
        for (const EiEntry &ei : b.eis) {
            JsonValue ej = JsonValue::object();
            ej["core"] = static_cast<long long>(ei.core);
            ej["age"] = static_cast<std::uint64_t>(now - ei.openedAt);
            eis.push(std::move(ej));
        }
        bj["eis"] = std::move(eis);
        out.push(std::move(bj));
    }
    return out;
}

} // namespace inpg
