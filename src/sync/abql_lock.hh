/**
 * @file
 * Array-based queuing lock (ABQL) [2, 16]: threads take FIFO positions
 * with fetch-and-add on a tail counter and each spins on its own slot
 * of a flag array.
 *
 * As in the paper's evaluation, the flag array is a plain packed array:
 * with 128 B cache blocks many slots share a line, so a hand-off write
 * falsely invalidates every poller of the same line -- this is what
 * keeps ABQL's lock coherence overhead close to the ticket lock's
 * (paper Fig. 2) even though each thread polls its own slot. Slots are
 * realised as bits of line-sized words (slotsPerLine per line).
 */

#ifndef INPG_SYNC_ABQL_LOCK_HH
#define INPG_SYNC_ABQL_LOCK_HH

#include <vector>

#include "sync/lock_primitive.hh"

namespace inpg {

/** Array-based queuing lock with a packed (falsely-shared) slot array. */
class AbqlLock : public LockPrimitive
{
  public:
    /**
     * @param tail_addr      FIFO tail counter line
     * @param flag_lines     lines backing the packed flag array
     * @param slots_per_line flags packed per line (paper-style array:
     *                       lineSize / 4-byte flag = 32)
     *
     * Slot 0 (bit 0 of the first line) must be initialised to 1.
     */
    AbqlLock(std::string name, CoherentSystem &system, Simulator &sim,
             const SyncConfig &cfg, int threads, Addr tail_addr,
             std::vector<Addr> flag_lines, int slots_per_line);

    void acquire(ThreadId t, DoneFn done,
                 ThreadHooks *hooks = nullptr) override;
    void release(ThreadId t, DoneFn done) override;

    int numSlots() const
    {
        return static_cast<int>(flagLines.size()) * slotsPerLine;
    }

  private:
    void pollPhase(ThreadId t);

    Addr lineOfSlot(std::size_t slot) const
    {
        return flagLines[slot / static_cast<std::size_t>(slotsPerLine)];
    }

    std::uint64_t bitOfSlot(std::size_t slot) const
    {
        return 1ULL << (slot % static_cast<std::size_t>(slotsPerLine));
    }

    struct PerThread {
        DoneFn done;
        std::size_t slot = 0;
        int retries = 0;
    };

    Addr tailAddr;
    std::vector<Addr> flagLines;
    int slotsPerLine;
    std::vector<PerThread> threadState;
};

} // namespace inpg

#endif // INPG_SYNC_ABQL_LOCK_HH
