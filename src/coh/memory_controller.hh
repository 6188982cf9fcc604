/**
 * @file
 * Memory controller: the DRAM-side latency model behind the L2 banks.
 *
 * The paper's platform has 8 memory controllers on the top/bottom rows.
 * Lock lines live in the shared L2 after first touch, so DRAM appears
 * only on cold misses; we model each controller as a fixed-latency,
 * bandwidth-limited (one request per `serviceInterval` cycles) queue.
 * Directories call into the controller owning their mesh column.
 */

#ifndef INPG_COH_MEMORY_CONTROLLER_HH
#define INPG_COH_MEMORY_CONTROLLER_HH

#include <functional>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/simulator.hh"

namespace inpg {

/** A memory controller's statistics (snapshot group `mc.N`). */
struct McStats : StatGroup {
    Counter fetches{*this, "fetches"};
    Sample queueing{*this, "queueing"};
};

/** Fixed-latency DRAM access queue. */
class MemoryController
{
  public:
    /**
     * @param mc_id            controller index (0..7 on the 8x8 mesh)
     * @param sim              kernel (event scheduling)
     * @param access_latency   DRAM access latency in cycles
     * @param service_interval min cycles between request starts
     */
    MemoryController(int mc_id, Simulator &sim, Cycle access_latency,
                     Cycle service_interval = 4);

    /**
     * Issue a line fetch; `done` fires when the data would return.
     * Requests are serialized at `serviceInterval` per-controller.
     */
    void fetch(Addr addr, std::function<void()> done);

    int id() const { return mcId; }

    McStats stats;

  private:
    int mcId;
    Simulator &sim;
    Cycle latency;
    Cycle serviceInterval;
    Cycle nextFreeSlot = 0;
};

} // namespace inpg

#endif // INPG_COH_MEMORY_CONTROLLER_HH
