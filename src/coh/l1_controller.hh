/**
 * @file
 * Private L1 cache controller implementing the core side of the
 * directory-based MOESI protocol (paper Section 3.2).
 *
 * The controller services one outstanding core operation at a time
 * (the modeled cores are single threads blocking on synchronization
 * operations) and reacts to directory forwards and invalidations at any
 * time. No capacity evictions are modeled: lock and synchronization
 * lines are few and stay resident, which is the regime the paper
 * studies.
 *
 * Stable states: I, S, E, M, O. Transients are expressed through the
 * pending-transaction record (IS_D and IM_AD in protocol terms).
 */

#ifndef INPG_COH_L1_CONTROLLER_HH
#define INPG_COH_L1_CONTROLLER_HH

#include <functional>
#include <vector>

#include "coh/coh_config.hh"
#include "coh/coh_stats.hh"
#include "coh/coherence_msg.hh"
#include "coh/protocol_actions.hh"
#include "common/flat_hash_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/network.hh"
#include "sim/simulator.hh"

namespace inpg {

/** Private L1 cache + coherence controller of one core. */
class L1Controller
{
  public:
    /**
     * Callback delivering the result value of a core operation. It runs
     * once the completing row's action has finished, after the forwards
     * the operation had deferred were served, so the line may already
     * have been handed on.
     */
    using Completion = std::function<void(std::uint64_t value)>;

    /**
     * Atomic completion: `demoted` is true when the RMW was answered
     * with a shared copy (lock held elsewhere) and therefore did NOT
     * write; `value` is the observed lock value. A demoted result with
     * value 0 means the lock was freed in flight -- retry with
     * demotable=false to force ownership.
     */
    using AtomicCompletion =
        std::function<void(std::uint64_t value, bool demoted)>;

    /** Optional sink for completed-operation records. */
    using OpLogFn = std::function<void(const OpRecord &)>;

    /**
     * @param core_id  owning core
     * @param node_id  mesh node (equal to core id on the target chip)
     * @param cfg      memory-system parameters
     * @param network  NoC endpoint access
     * @param sim      kernel (latency events)
     * @param stats    optional shared coherence statistics sink
     */
    L1Controller(CoreId core_id, NodeId node_id, const CohConfig &cfg,
                 Network &network, Simulator &sim,
                 CohStats *stats = nullptr);

    /** Issue a load; `done(value)` fires at completion. */
    void issueLoad(Addr addr, bool is_lock, Completion done);

    /** Issue a store; `done(old value)` fires at completion. */
    void issueStore(Addr addr, std::uint64_t value, bool is_lock,
                    Completion done);

    /**
     * Issue an atomic RMW; `done(old value, demoted)` fires at
     * completion. For Cas, a = expected, b = desired; for Swap/FetchAdd
     * only a is used. `demotable` marks failure-idempotent lock
     * acquires eligible for shared-copy demotion.
     */
    void issueAtomic(Addr addr, AtomicOp op, std::uint64_t a,
                     std::uint64_t b, bool is_lock, AtomicCompletion done,
                     bool demotable = false);

    /**
     * OCOR support: priority attached to the next request packet this
     * controller sends (reset to 0 after each issue).
     */
    void setNextRequestPriority(int priority) { nextPriority = priority; }

    /** Deliver a protocol message addressed to this L1. */
    void receiveMessage(const CohMsgPtr &msg, Cycle now);

    /** Stable state of a line (transients report their base state). */
    L1State lineState(Addr addr) const;

    /** Value cached for a line (valid in S/E/M/O). */
    std::uint64_t lineValue(Addr addr) const;

    /** True while a core operation is outstanding. */
    bool busy() const { return txn.active; }

    /** Owner-forwards deferred behind the pending op (MSHR debug). */
    std::size_t
    deferredForwardCount() const
    {
        return deferredForwards.size();
    }

    NodeId nodeId() const { return node; }

    /** Register the golden-model op log sink. */
    void setOpLog(OpLogFn fn) { opLog = std::move(fn); }

    /** Diagnostic one-line state dump (pending op, deferred forwards). */
    std::string debugState() const;

    L1Stats stats;

  private:
    void startOperation(const L1Txn &op, Completion done_fn,
                        AtomicCompletion atomic_done);
    void issueAfterL1Latency();
    /** Run a table row's shared action, then act on its outbox. */
    void dispatch(const ProtoTransition &row, const CoherenceMsg *msg,
                  Cycle now);
    /** The core sees the result of `op`, its finished operation. */
    void complete(const L1Txn &op, Cycle now);
    /** Inject one outbox message. */
    void send(const ProtoSend &out, Cycle now);
    L1Line &line(Addr addr);
    const L1Line *findLine(Addr addr) const;

    CoreId core;
    NodeId node;
    CohConfig cfg;
    Network &net;
    Simulator &sim;
    CohStats *cohStats;
    OpLogFn opLog;

    /** Line table (protocol code never iterates it). */
    FlatHashMap<Addr, L1Line> lines;
    /** The outstanding operation, from issue to completion. */
    L1Txn txn;
    std::vector<DeferredFwd> deferredForwards;
    /** Who waits on `txn`: completion callbacks and issue cycle. */
    Completion done;
    AtomicCompletion atomicDone;
    Cycle issuedAt = 0;
    int nextPriority = 0;
};

} // namespace inpg

#endif // INPG_COH_L1_CONTROLLER_HH
