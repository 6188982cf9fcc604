#include "sim/parallel/parallel_kernel.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "noc/network.hh"
#include "noc/router.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"

namespace inpg {

namespace {

/**
 * Coordinator router share from a measured host-phase split of a
 * busy 8x8 run (routers ~77% of cycle time, events+NIs+dirs ~23%;
 * DESIGN.md section 11). The coordinator always carries the non-router
 * load, so it keeps the router fraction x that equalizes
 * coordinator (O + R*x) and worker (R * (1 - x) / W) per-cycle work.
 * Pure arithmetic on constants: the partition is deterministic.
 */
std::size_t
coordinatorShare(std::size_t eligible, int threads)
{
    constexpr double R = 0.77; // router fraction of a hot cycle
    constexpr double O = 0.23; // everything the coordinator must own
    const int w = threads - 1;
    double x = (R - O * static_cast<double>(w)) /
               (R * static_cast<double>(threads));
    x = std::clamp(x, 0.0, 1.0);
    return static_cast<std::size_t>(
        std::lround(x * static_cast<double>(eligible)));
}

} // namespace

ParallelKernel::ParallelKernel(Simulator &sim_, Network &net_,
                               int threads)
    : sim(sim_), net(net_), nThreads(threads)
{
    INPG_ASSERT(threads >= 2,
                "ParallelKernel needs >= 2 threads; threads=1 is the "
                "serial kernel");
    // Fabric-eligible components: plain routers only. BigRouters pin
    // to the coordinator (they mutate packets, allocate from the
    // network's id space, and feed the flight recorder / LCO sinks);
    // so does everything that isn't a router.
    std::vector<NodeId> eligible;
    for (NodeId id = 0; id < net.numRouters(); ++id)
        if (!net.router(id).isBigRouter())
            eligible.push_back(id);

    const int nWorkers = nThreads - 1;
    domains.resize(static_cast<std::size_t>(nWorkers));

    // Contiguous router-id stripes (row bands of the router grid)
    // minimize boundary channels; the coordinator keeps the first
    // coordinatorShare() routers, workers split the rest evenly. On a
    // torus the wraparound links are just more boundary channels --
    // the outbox/merge path handles them like any other cross-domain
    // edge, so no special casing is needed.
    std::vector<int> domainByNode(
        static_cast<std::size_t>(net.numRouters()), 0);
    const std::size_t keep = coordinatorShare(eligible.size(), nThreads);
    const std::size_t rem = eligible.size() - keep;
    std::size_t cursor = keep;
    for (int w = 0; w < nWorkers; ++w) {
        std::size_t len = rem / static_cast<std::size_t>(nWorkers) +
                          (static_cast<std::size_t>(w) <
                                   rem % static_cast<std::size_t>(nWorkers)
                               ? 1
                               : 0);
        for (std::size_t i = 0; i < len; ++i, ++cursor)
            domainByNode[static_cast<std::size_t>(eligible[cursor])] =
                w + 1;
    }
    INPG_ASSERT(cursor == eligible.size(), "partition missed routers");

    // Steal fabric routers out of the serial active set. Ascending
    // node id preserves the serial relative tick order inside each
    // domain (routers register in node order).
    for (NodeId id : eligible) {
        const int dom = domainByNode[static_cast<std::size_t>(id)];
        if (dom == 0)
            continue;
        adopt(&net.router(id), dom);
    }
    classifyBoundaries(net, domainByNode);

    sim.attachParallel(this);

    // Built before the workers spawn so every cycle is profiled.
    prof = std::make_unique<ParallelProfile>(nThreads);

    workers.reserve(static_cast<std::size_t>(nWorkers));
    for (int w = 0; w < nWorkers; ++w)
        workers.emplace_back(
            [this, w] { workerLoop(static_cast<std::size_t>(w)); });
}

ParallelKernel::~ParallelKernel() { shutdown(); }

void
ParallelKernel::adopt(Ticking *comp, int domain)
{
    SleepToken &tok = comp->sleepToken();
    INPG_ASSERT(tok.set == &sim.active,
                "stealing a component not registered with this simulator");
    const std::size_t slot = tok.slot();
    INPG_ASSERT(slot < sim.slots.size() &&
                    sim.slots[slot].component == comp,
                "stolen component not registered with this simulator");
    // The domain ring starts empty; a wake left in the serial ring
    // would fire into a slot the serial sweep no longer owns.
    INPG_ASSERT(!sim.active.wakePending(slot),
                "stealing %s with a timed wake pending",
                comp->tickName().c_str());
    Domain &d = domains[static_cast<std::size_t>(domain - 1)];
    const std::size_t idx = d.set.addSlot(false);
    d.comps.push_back(comp);
    ActiveSet::moveSlot(sim.active, slot, d.set, idx);
    tok.bind(&d.set, idx);
    stolen.push_back(StolenSlot{comp, slot});
}

void
ParallelKernel::classifyBoundaries(Network &network,
                                   const std::vector<int> &domainByNode)
{
    // Map channel sinks to domains: routers by node id, every other
    // component (NIs feed the coordinator) is domain 0.
    std::vector<std::pair<const Ticking *, int>> routerDomain;
    routerDomain.reserve(
        static_cast<std::size_t>(network.numRouters()));
    for (NodeId id = 0; id < network.numRouters(); ++id)
        routerDomain.emplace_back(
            &network.router(id),
            domainByNode[static_cast<std::size_t>(id)]);
    std::sort(routerDomain.begin(), routerDomain.end());
    auto domainOf = [&](const Ticking *t) {
        if (!t)
            return 0;
        auto it = std::lower_bound(
            routerDomain.begin(), routerDomain.end(),
            std::make_pair(t, 0),
            [](const auto &a, const auto &b) { return a.first < b.first; });
        return (it != routerDomain.end() && it->first == t) ? it->second
                                                            : 0;
    };

    const auto &channels = network.allChannels();
    std::size_t n = 0;
    for (const Channel *ch : channels)
        if (domainOf(ch->flitSinkComponent()) !=
            domainOf(ch->creditSinkComponent()))
            ++n;
    boundaries.reserve(n); // outbox addresses must stay stable
    auto dirtyListOf = [&](int domain) {
        return domain == 0
                   ? &coordDirty
                   : &domains[static_cast<std::size_t>(domain - 1)].dirty;
    };
    for (Channel *ch : channels) {
        const int flitSinkDom = domainOf(ch->flitSinkComponent());
        const int creditSinkDom = domainOf(ch->creditSinkComponent());
        if (flitSinkDom == creditSinkDom)
            continue;
        INPG_ASSERT(ch->flitSinkComponent() && ch->creditSinkComponent(),
                    "boundary channel without both sinks");
        boundaries.push_back(Boundary{ch, ChannelOutbox{}});
        ChannelOutbox &box = boundaries.back().box;
        box.index = boundaries.size() - 1;
        // Each direction's producer is the other direction's sink.
        box.flitDirty = dirtyListOf(creditSinkDom);
        box.creditDirty = dirtyListOf(flitSinkDom);
        ch->setOutbox(&box);
    }
    // Sized once so a cycle never grows a list: the coordinator's
    // list also receives every worker's entries at the merge, and a
    // box dirty in both directions appears twice.
    coordDirty.reserve(2 * boundaries.size());
    for (Domain &d : domains)
        d.dirty.reserve(boundaries.size());
}

std::size_t
ParallelKernel::fabricActive() const
{
    // Plain reads: only valid between cycles, when every worker is
    // parked (ordered by the per-domain arrival gates).
    std::size_t n = 0;
    for (const Domain &d : domains)
        n += d.set.activeCount();
    return n;
}

bool
ParallelKernel::fabricQuiescent() const
{
    // Same between-cycles rule as fabricActive().
    for (const Domain &d : domains)
        if (!d.set.quiescent())
            return false;
    return true;
}

void
ParallelKernel::workerLoop(std::size_t d)
{
    Domain &dom = domains[d];
    std::uint64_t epoch = 0;
    for (;;) {
        ++epoch;
        const std::uint64_t t0 = ParallelProfile::nowNs();
        go.await(epoch);
        if (stopFlag.load(std::memory_order_acquire)) {
            dom.done.release(epoch);
            return;
        }
        const std::uint64_t t1 = ParallelProfile::nowNs();
        // The clock is read, never written, while workers run: the
        // coordinator advances it only between its arrival-gate await
        // and the next `go` release.
        const std::uint64_t ticks = sweepDomain(dom, sim.now());
        // Recorded before the gate release: the coordinator's await
        // acquires these writes, so it may read them between cycles.
        prof->workerQuantum(d, t1 - t0, ParallelProfile::nowNs() - t1,
                            ticks);
        dom.done.release(epoch);
    }
}

std::uint64_t
ParallelKernel::sweepDomain(Domain &d, Cycle now)
{
    // Same cycle body as the serial kernel: apply the domain ring's
    // wakes for the cycle, then the one active-set sweep.
    d.set.applyWakes(now);
    std::uint64_t ticks = 0;
    d.set.sweep([&](std::size_t i) {
        d.comps[i]->tick(now);
        ++ticks;
    });
    return ticks;
}

void
ParallelKernel::step()
{
    // Elide the barrier round-trip while every fabric domain is
    // quiescent (nothing active, no timed wake pending); the
    // coordinator's own merge below can wake them back up.
    const bool fabricBusy = !fabricQuiescent();
    prof->onQuantum(fabricBusy);
    if (fabricBusy)
        go.release(++seq);
    const std::uint64_t tSweep = ParallelProfile::nowNs();
    sim.sweepSerial();
    const std::uint64_t tBarrier = ParallelProfile::nowNs();
    if (fabricBusy) {
        for (Domain &d : domains)
            d.done.await(seq);
    }
    const std::uint64_t tMerge = ParallelProfile::nowNs();
    drainOutboxes();
    prof->coordinatorQuantum(tBarrier - tSweep,
                             fabricBusy ? tMerge - tBarrier : 0,
                             ParallelProfile::nowNs() - tMerge);
}

void
ParallelKernel::drainOutboxes()
{
    // Deterministic merge: only the outboxes some thread pushed into
    // this cycle, sorted into fixed channel order, FIFO within each
    // channel (single producer per direction), and every flit and
    // credit is applied with its original push cycle, so delivery
    // slots, credit stamps and sink wakes are exactly the serial ones.
    // Workers are parked, so writing their consumers' slots and their
    // producers' credit counters from here races with nothing.
    std::vector<ChannelOutbox *> &dirty = coordDirty;
    for (Domain &d : domains) {
        dirty.insert(dirty.end(), d.dirty.begin(), d.dirty.end());
        d.dirty.clear();
    }
    if (dirty.empty())
        return;
    std::sort(dirty.begin(), dirty.end(),
              [](const ChannelOutbox *a, const ChannelOutbox *b) {
                  return a->index < b->index;
              });
    std::uint64_t flits = 0;
    std::uint64_t credits = 0;
    for (ChannelOutbox *box : dirty) {
        // A box dirty in both directions is listed twice; the first
        // visit drains it.
        if (box->empty())
            continue;
        Channel *ch = boundaries[box->index].channel;
        flits += box->flits.size();
        credits += box->credits.size();
        for (auto &e : box->flits)
            ch->deliverFlit(std::move(e.second), e.first);
        for (const auto &e : box->credits)
            ch->landCredit(e.second, e.first);
        box->flits.clear();
        box->credits.clear();
    }
    dirty.clear();
    prof->drained(flits, credits);
}

void
ParallelKernel::shutdown()
{
    if (joined)
        return;
    stopFlag.store(true, std::memory_order_release);
    ++seq;
    go.release(seq);
    for (std::thread &t : workers)
        if (t.joinable())
            t.join();
    workers.clear();
    joined = true;

    // Flush any unmerged traffic (normally none: shutdown happens
    // between cycles, after the merge), then undo the diversion.
    drainOutboxes();
    for (Boundary &b : boundaries)
        b.channel->setOutbox(nullptr);

    // Hand every stolen component back to the serial kernel with its
    // activity and any pending timed wake (a flit still in flight
    // toward it); subsequent serial stepping is bit-identical to a
    // kernel that was never sharded.
    for (const StolenSlot &s : stolen) {
        SleepToken &tok = s.comp->sleepToken();
        ActiveSet::moveSlot(*tok.set, tok.slot(), sim.active, s.mainSlot);
        tok.bind(&sim.active, s.mainSlot);
    }
    stolen.clear();
    sim.attachParallel(nullptr);
}

} // namespace inpg
