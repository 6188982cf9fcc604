/**
 * @file
 * Micro-benchmarks (google-benchmark) of the simulator's hot
 * components: router pipeline throughput, barrier table operations,
 * directory processing, arbiters and the event queue. These bound the
 * wall-clock cost of the figure-level benches. End-to-end simulator
 * speed is measured by perfbench/ (see perfbench/README.md).
 */

#include <benchmark/benchmark.h>

#include <array>
#include <functional>

#include "coh/coherent_system.hh"
#include "common/histogram.hh"
#include "common/rng.hh"
#include "inpg/lock_barrier_table.hh"
#include "noc/arbiter.hh"
#include "noc/network.hh"
#include "sim/simulator.hh"

using namespace inpg;

static void
BM_RouterIdleTick(benchmark::State &state)
{
    NocConfig cfg;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    Simulator sim;
    Network net(cfg, sim);
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.numNodes()));
}
BENCHMARK(BM_RouterIdleTick);

static void
BM_NetworkUniformTraffic(benchmark::State &state)
{
    NocConfig cfg;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    Simulator sim;
    Network net(cfg, sim);
    for (NodeId n = 0; n < net.numNodes(); ++n)
        net.niFor(n).setDeliverCallback(n,
                                        [](const PacketPtr &, Cycle) {});
    Rng rng(7);
    for (auto _ : state) {
        // One random single-flit packet injected per cycle.
        NodeId s = static_cast<NodeId>(rng.nextBounded(64));
        NodeId d = static_cast<NodeId>(rng.nextBounded(64));
        net.inject(net.makePacket(s, d, 0, 1), sim.now());
        sim.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkUniformTraffic);

static void
BM_CoherentSystemTick(benchmark::State &state)
{
    NocConfig noc;
    noc.meshWidth = 8;
    noc.meshHeight = 8;
    CohConfig coh;
    // Declared before the system so it outlives every pending callback
    // that refers to it.
    std::array<std::function<void()>, 8> loops;
    Simulator sim;
    CoherentSystem sys(noc, coh, sim);
    // Sustained load/stores from 8 cores.
    for (CoreId c = 0; c < 8; ++c) {
        std::function<void()> &loop = loops[static_cast<std::size_t>(c)];
        Addr a = coh.lineHomedAt(c * 7 % 64);
        loop = [&sys, a, c, &loop] {
            sys.l1(c).issueStore(a, 1, false,
                                 [&loop](std::uint64_t) { loop(); });
        };
        loop();
    }
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoherentSystemTick);

static void
BM_BarrierTableLookup(benchmark::State &state)
{
    LockBarrierTable table(16, 16, 128);
    for (int i = 0; i < 16; ++i)
        table.createBarrier(static_cast<Addr>(i) * 128, 0);
    Cycle now = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.hasBarrier(static_cast<Addr>(now % 20) * 128, 0));
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BarrierTableLookup);

static void
BM_BarrierEiLifecycle(benchmark::State &state)
{
    LockBarrierTable table(16, 16, 1u << 30);
    table.createBarrier(0x100, 0);
    Cycle now = 1;
    for (auto _ : state) {
        table.addEi(0x100, static_cast<CoreId>(now % 16), now);
        table.completeEi(0x100, static_cast<CoreId>(now % 16), now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BarrierEiLifecycle);

static void
BM_PriorityArbiter(benchmark::State &state)
{
    PriorityArbiter arb(8, 64);
    PriorityArbiter::Request reqs[8];
    std::uint32_t valid = 0;
    Rng rng(3);
    for (std::uint32_t i = 0; i < 8; ++i) {
        if (rng.chance(0.5))
            valid |= 1u << i;
        reqs[i].priority = static_cast<int>(rng.nextBounded(9));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.grantMasked(valid, reqs));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PriorityArbiter);

static void
BM_EventQueue(benchmark::State &state)
{
    EventQueue q;
    Cycle now = 0;
    int sink = 0;
    for (auto _ : state) {
        q.schedule(now + 5, [&sink] { ++sink; });
        q.runDue(now);
        ++now;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue);

static void
BM_HistogramAdd(benchmark::State &state)
{
    Histogram h(5, 40);
    Rng rng(11);
    for (auto _ : state)
        h.add(rng.nextBounded(250));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

BENCHMARK_MAIN();
