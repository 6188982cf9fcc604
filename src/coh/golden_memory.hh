/**
 * @file
 * Golden reference model: collects the completed-operation log from all
 * L1 controllers and checks it against a sequential memory model.
 *
 * Invariants verified:
 *  - per address, writes/atomics form a chain: each op's observed old
 *    value equals the previous op's new value (single serialization
 *    order per line, as cache ownership dictates);
 *  - fetch-and-add over an address returns strictly increasing values;
 *  - the final value per address matches replaying the chain.
 */

#ifndef INPG_COH_GOLDEN_MEMORY_HH
#define INPG_COH_GOLDEN_MEMORY_HH

#include <map>
#include <string>
#include <vector>

#include "coh/protocol_actions.hh"
#include "common/types.hh"

namespace inpg {

/** Sequential-consistency reference checker for the simulated memory. */
class GoldenMemory
{
  public:
    /** Declare an address's initial value (default 0). */
    void setInitial(Addr addr, std::uint64_t value);

    /** Append one completed operation (L1 op-log sink). */
    void record(const OpRecord &rec);

    /**
     * Check all invariants.
     * @return empty string when consistent; otherwise a description of
     *         the first violation.
     */
    std::string verify() const;

    /** Final value of an address per the recorded write chain. */
    std::uint64_t finalValue(Addr addr) const;

    /** Number of recorded operations. */
    std::size_t size() const { return log.size(); }

    const std::vector<OpRecord> &records() const { return log; }

  private:
    std::vector<OpRecord> log;
    std::map<Addr, std::uint64_t> initial;
};

} // namespace inpg

#endif // INPG_COH_GOLDEN_MEMORY_HH
