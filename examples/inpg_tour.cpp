/**
 * @file
 * inpg_tour: a guided tour of the iNPG mechanism on a small mesh --
 * drives a contended lock, then walks through what the big routers did:
 * barriers installed, GetX requests stopped, early invalidations
 * generated, acks relayed, and what that did to the Inv-Ack round trip.
 *
 * Usage: inpg_tour [topology=mesh:4x4] [rounds=6]
 */

#include <cstdio>

#include "common/config.hh"
#include "harness/system.hh"
#include "inpg/big_router.hh"
#include "sync/lock_manager.hh"

using namespace inpg;

namespace {

/** Drive `rounds` of acquire/hold/release per thread; returns cycles. */
Cycle
contend(System &system, LockPrimitive *lock, int rounds, Cycle hold)
{
    const int n = system.config().numCores();
    std::vector<int> remaining(static_cast<std::size_t>(n), rounds);
    int active = n;
    std::function<void(ThreadId)> loop = [&](ThreadId t) {
        if (remaining[static_cast<std::size_t>(t)]-- <= 0) {
            --active;
            return;
        }
        lock->acquire(t, [&, t] {
            system.sim().scheduleIn(hold, [&, t] {
                lock->release(t, [&, t] { loop(t); });
            });
        });
    };
    Cycle start = system.sim().now();
    for (ThreadId t = 0; t < n; ++t)
        loop(t);
    system.runUntil([&] { return active == 0; });
    return system.sim().now() - start;
}

} // namespace

int
main(int argc, char **argv)
{
    Config overrides;
    overrides.loadArgs(argc, argv);
    const int rounds = static_cast<int>(overrides.getInt("rounds", 6));

    std::printf("iNPG tour -- every thread hammers one test-and-set "
                "lock; compare the coherence life of the Original and "
                "iNPG systems.\n\n");

    Cycle base_cycles = 0;
    for (Mechanism m : {Mechanism::Original, Mechanism::Inpg}) {
        SystemConfig sc;
        sc.noc.meshWidth = 4;
        sc.noc.meshHeight = 4;
        sc.applyOverrides(overrides);
        sc.mechanism = m;
        sc.lockKind = LockKind::Tas;
        sc.finalize();

        System system(sc);
        LockPrimitive *lock =
            system.locks().createLock(LockKind::Tas, sc.numCores(), 5);
        Cycle took = contend(system, lock, rounds, 80);
        if (m == Mechanism::Original)
            base_cycles = took;

        std::printf("=== %s ===\n", mechanismName(m));
        std::printf("  %d threads x %d rounds finished in %llu cycles"
                    "%s\n",
                    sc.numCores(), rounds,
                    static_cast<unsigned long long>(took),
                    m == Mechanism::Inpg && base_cycles
                        ? (" (" +
                           std::to_string(100 * took / base_cycles) +
                           "% of Original)").c_str()
                        : "");
        std::printf("  acquisitions: %llu, swap failures: %llu\n",
                    static_cast<unsigned long long>(
                        lock->stats.acquisitions),
                    static_cast<unsigned long long>(
                        lock->stats.swapFailures));
        const CohStats &cstats = system.coherent().cohStats();
        std::printf("  Inv-Ack round trip: mean %.1f, max %llu cycles "
                    "(%llu home + %llu early samples)\n",
                    cstats.rttHistogram.mean(),
                    static_cast<unsigned long long>(
                        cstats.rttHistogram.max()),
                    static_cast<unsigned long long>(
                        cstats.rttHome.count()),
                    static_cast<unsigned long long>(
                        cstats.rttEarly.count()));

        if (m == Mechanism::Inpg) {
            std::printf("  big routers (%d deployed):\n",
                        system.deployedBigRouters());
            for (NodeId n = 0;
                 n < system.coherent().network().numRouters(); ++n) {
                auto *br = dynamic_cast<BigRouter *>(
                    &system.coherent().network().router(n));
                if (!br)
                    continue;
                const auto &g = br->generator();
                const std::uint64_t stopped = g.stats.getxStopped;
                if (stopped == 0)
                    continue;
                std::printf("    node %2d: barriers %llu, GetX stopped "
                            "%llu, early Invs %llu, acks relayed %llu\n",
                            n,
                            static_cast<unsigned long long>(
                                g.barrierTable().stats.barriersCreated),
                            static_cast<unsigned long long>(stopped),
                            static_cast<unsigned long long>(
                                g.stats.earlyInvsGenerated),
                            static_cast<unsigned long long>(
                                g.stats.acksRelayed));
            }
        }
        std::printf("\n");
    }
    std::printf("What to look for: with iNPG the big routers nearest "
                "the competing cores stop losing swaps, invalidate "
                "early, and the round-trip histogram loses its long "
                "tail (paper Figs. 5 and 10).\n");
    return 0;
}
