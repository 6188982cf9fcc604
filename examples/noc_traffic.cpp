/**
 * @file
 * noc_traffic: exercise the Garnet-style NoC standalone with synthetic
 * traffic (uniform-random or hotspot) and report latency/throughput --
 * the classic interconnect bring-up experiment, and a direct view of
 * the congestion regime iNPG's home node lives in.
 *
 * Usage: noc_traffic [pattern=uniform|hotspot] [rate=0.05]
 *                    [cycles=20000] [topology=mesh:8x8]
 *                    [data_fraction=0.3] [hotspot_node=53]
 */

#include <cstdio>
#include <map>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "sim/simulator.hh"

using namespace inpg;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.loadArgs(argc, argv);

    NocConfig noc;
    TopologySpec::parse(cfg.getString("topology", "mesh:8x8")).applyTo(noc);
    const std::string pattern = cfg.getString("pattern", "uniform");
    const double rate = cfg.getDouble("rate", 0.05);
    const Cycle cycles = static_cast<Cycle>(cfg.getInt("cycles", 20000));
    const double data_fraction = cfg.getDouble("data_fraction", 0.3);
    const NodeId hotspot =
        static_cast<NodeId>(cfg.getInt("hotspot_node", 53));

    Simulator sim;
    Network net(noc, sim);
    Histogram latency(5, 60);
    std::uint64_t delivered = 0;

    for (NodeId n = 0; n < net.numNodes(); ++n) {
        net.niFor(n).setDeliverCallback(
            n, [&latency, &delivered, &sim](const PacketPtr &pkt, Cycle) {
                latency.add(sim.now() - pkt->injectCycle);
                ++delivered;
            });
    }

    Rng rng(cfg.getInt("seed", 1));
    std::uint64_t injected = 0;
    const int n_nodes = net.numNodes();
    for (Cycle c = 0; c < cycles; ++c) {
        for (NodeId src = 0; src < n_nodes; ++src) {
            if (!rng.chance(rate))
                continue;
            NodeId dst;
            if (pattern == "hotspot" && rng.chance(0.5)) {
                dst = hotspot % n_nodes;
            } else {
                dst = static_cast<NodeId>(
                    rng.nextBounded(static_cast<std::uint64_t>(n_nodes)));
            }
            int flits = rng.chance(data_fraction) ? noc.dataPacketFlits
                                                  : noc.ctrlPacketFlits;
            net.inject(net.makePacket(src, dst,
                                      static_cast<VnetId>(
                                          rng.nextBounded(4)),
                                      flits),
                       sim.now());
            ++injected;
        }
        sim.step();
    }
    // Drain.
    Cycle drain_start = sim.now();
    while (!net.quiescent() && sim.now() < drain_start + 100000)
        sim.step();

    std::printf("noc_traffic -- %dx%d mesh, pattern=%s, rate=%.3f "
                "pkt/node/cycle, %llu cycles (+drain)\n\n",
                noc.meshWidth, noc.meshHeight, pattern.c_str(), rate,
                static_cast<unsigned long long>(cycles));
    std::printf("injected   : %llu packets\n",
                static_cast<unsigned long long>(injected));
    std::printf("delivered  : %llu packets (%s)\n",
                static_cast<unsigned long long>(delivered),
                delivered == injected ? "all accounted for"
                                      : "MISSING PACKETS");
    std::printf("latency    : mean %.1f  p95 %llu  max %llu cycles\n",
                latency.mean(),
                static_cast<unsigned long long>(latency.percentile(0.95)),
                static_cast<unsigned long long>(latency.max()));
    std::printf("throughput : %.3f delivered/node/cycle\n\n",
                static_cast<double>(delivered) /
                    static_cast<double>(n_nodes) /
                    static_cast<double>(sim.now()));
    std::printf("latency histogram:\n%s", latency.render().c_str());
    return delivered == injected ? 0 : 1;
}
