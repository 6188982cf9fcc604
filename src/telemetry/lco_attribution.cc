#include "telemetry/lco_attribution.hh"

#include <cassert>

#include "telemetry/json.hh"

namespace inpg {

void
LcoLegs::add(const LcoLegs &o)
{
    l1Access += o.l1Access;
    reqNetwork += o.reqNetwork;
    dirService += o.dirService;
    respNetwork += o.respNetwork;
    invAckWait += o.invAckWait;
    spinWait += o.spinWait;
    sleepWait += o.sleepWait;
    other += o.other;
}

JsonValue
LcoSummary::toJson() const
{
    JsonValue j = JsonValue::object();
    j["acquires"] = JsonValue(acquires);
    j["total_latency"] = JsonValue(totalLatency);
    j["mean_latency"] = JsonValue(meanLatency());
    j["max_latency"] = JsonValue(maxLatency);

    JsonValue &l = j["legs"];
    l["l1_access"] = JsonValue(legs.l1Access);
    l["req_network"] = JsonValue(legs.reqNetwork);
    l["dir_service"] = JsonValue(legs.dirService);
    l["resp_network"] = JsonValue(legs.respNetwork);
    l["inv_ack_wait"] = JsonValue(legs.invAckWait);
    l["spin_wait"] = JsonValue(legs.spinWait);
    l["sleep_wait"] = JsonValue(legs.sleepWait);
    l["other"] = JsonValue(legs.other);

    j["ops"] = JsonValue(ops);
    j["misses"] = JsonValue(misses);
    j["home_inv_acks"] = JsonValue(homeInvAcks);
    j["early_inv_acks"] = JsonValue(earlyInvAcks);
    j["acquires_with_early_inv"] = JsonValue(acquiresWithEarlyInv);
    return j;
}

LcoTracker::LcoTracker(int num_cores)
    : cores(static_cast<std::size_t>(num_cores))
{}

void
LcoTracker::acquireBegin(ThreadId t, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(t));
    assert(!st.active && "nested acquire on one thread");
    st.active = true;
    st.opMissed = false;
    st.start = now;
    st.mark = now;
    st.rec = LcoAcquireRecord{};
    st.rec.thread = t;
    st.rec.start = now;
}

void
LcoTracker::acquireEnd(ThreadId t, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(t));
    if (!st.active)
        return;
    close(st, now, &LcoLegs::other);
    st.active = false;
    st.rec.end = now;

    total.acquires += 1;
    total.totalLatency += st.rec.latency();
    if (st.rec.latency() > total.maxLatency)
        total.maxLatency = st.rec.latency();
    total.legs.add(st.rec.legs);
    total.ops += st.rec.ops;
    total.misses += st.rec.misses;
    total.homeInvAcks += st.rec.homeInvAcks;
    total.earlyInvAcks += st.rec.earlyInvAcks;
    if (st.rec.sawEarlyInv)
        total.acquiresWithEarlyInv += 1;

    if (kept.size() < RECORD_CAP)
        kept.push_back(st.rec);
}

void
LcoTracker::opIssued(CoreId c, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    // Time since the previous op completed (or since acquireBegin) is
    // spin backoff / algorithmic delay between attempts.
    close(st, now, &LcoLegs::spinWait);
    st.opMissed = false;
    st.rec.ops += 1;
}

void
LcoTracker::requestSent(CoreId c, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    // The op looked up the L1 and missed; the lookup itself is L1 time.
    close(st, now, &LcoLegs::l1Access);
    st.opMissed = true;
    st.rec.misses += 1;
}

void
LcoTracker::dirArrived(CoreId c, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    close(st, now, &LcoLegs::reqNetwork);
}

void
LcoTracker::dirServed(CoreId c, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    // Runs when the directory finishes the request: the closed span
    // covers queue wait, occupancy, and any cold-miss DRAM fetch.
    close(st, now, &LcoLegs::dirService);
}

void
LcoTracker::responseArrived(CoreId c, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    close(st, now, &LcoLegs::respNetwork);
}

void
LcoTracker::invAckArrived(CoreId c, Cycle now, bool early)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    close(st, now, &LcoLegs::invAckWait);
    if (early) {
        st.rec.earlyInvAcks += 1;
        st.rec.sawEarlyInv = true;
    } else {
        st.rec.homeInvAcks += 1;
    }
}

void
LcoTracker::earlyInvSeen(CoreId requester)
{
    if (requester < 0 ||
        static_cast<std::size_t>(requester) >= cores.size())
        return;
    CoreState &st = cores[static_cast<std::size_t>(requester)];
    if (!st.active)
        return;
    st.rec.sawEarlyInv = true;
}

void
LcoTracker::opCompleted(CoreId c, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(c));
    if (!st.active)
        return;
    // Pure L1 hit: the whole op was cache access. After a miss, the
    // protocol hooks already claimed the interesting spans; whatever
    // remains is completion-callback slack.
    close(st, now, st.opMissed ? &LcoLegs::other : &LcoLegs::l1Access);
    st.opMissed = false;
}

void
LcoTracker::sleepBegin(ThreadId t, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(t));
    if (!st.active)
        return;
    // The decision-to-sleep gap counts as spin; the sleep itself
    // starts now and is closed by sleepEnd.
    close(st, now, &LcoLegs::spinWait);
}

void
LcoTracker::sleepEnd(ThreadId t, Cycle now)
{
    CoreState &st = cores.at(static_cast<std::size_t>(t));
    if (!st.active)
        return;
    close(st, now, &LcoLegs::sleepWait);
}

} // namespace inpg
