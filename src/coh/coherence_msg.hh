/**
 * @file
 * Coherence protocol messages exchanged between L1 controllers and
 * directory (home-node) controllers over the NoC.
 *
 * Virtual-network assignment follows the usual directory-protocol
 * class split to avoid protocol deadlock:
 *   vnet 0: requests   (GetS, GetX)
 *   vnet 1: forwards   (Inv, FwdGetS, FwdGetX)
 *   vnet 2: responses  (Data, DataExcl, AckCount, InvAck)
 *   vnet 3: unblock / reserved
 */

#ifndef INPG_COH_COHERENCE_MSG_HH
#define INPG_COH_COHERENCE_MSG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace inpg {

/** Virtual network carrying coherence requests. */
inline constexpr VnetId VNET_REQUEST = 0;
/** Virtual network carrying directory-issued forwards/invalidations. */
inline constexpr VnetId VNET_FORWARD = 1;
/** Virtual network carrying data and acknowledgement responses. */
inline constexpr VnetId VNET_RESPONSE = 2;
/** Spare class (kept for parity with the 4-vnet platform config). */
inline constexpr VnetId VNET_UNBLOCK = 3;

/** Kinds of coherence messages. */
enum class CohMsgKind {
    GetS,     ///< read request, L1 -> home
    GetX,     ///< exclusive (write/atomic) request, L1 -> home
    FwdGetS,  ///< home forwards a read to the current owner
    FwdGetX,  ///< home forwards an exclusive request to the current owner
    Inv,      ///< invalidate a shared copy (from home, or a big router)
    Data,     ///< shared data response
    DataExcl, ///< exclusive data response (carries ack count when from home)
    AckCount, ///< home tells an upgrading owner how many acks to expect
    InvAck,   ///< invalidation acknowledgement
};

/** Human-readable message-kind name. */
const char *cohMsgKindName(CohMsgKind kind);

/** Virtual network a message kind travels on. */
VnetId vnetForKind(CohMsgKind kind);

/** True for the kinds that carry a full cache block (8-flit packets). */
bool carriesData(CohMsgKind kind);

/**
 * One coherence protocol message (carried by value in a NoC Packet).
 *
 * Field use by kind:
 *  - GetS/GetX: requester; isLock marks lock-variable addresses (what a
 *    big router keys its barrier table on); earlyInvalidated is set when
 *    a big router stopped this GetX and already invalidated the
 *    requester (the paper's GetX -> FwdGetX conversion).
 *  - Inv: requester = core whose copy dies; collector = node the InvAck
 *    must be sent to (the ack-collecting winner, or the generating big
 *    router); fromBigRouter marks early invalidations.
 *  - Data/DataExcl: value; ackCount (DataExcl from home only).
 *  - AckCount: ackCount.
 *  - InvAck: requester = acking core; collector = final collector; via
 *    fromBigRouter when the ack answers an early invalidation.
 */
struct CoherenceMsg {
    CohMsgKind kind = CohMsgKind::GetS;
    Addr addr = INVALID_ADDR;

    /** Core the transaction belongs to (requester / acking core). */
    CoreId requester = INVALID_CORE;

    /** Node an InvAck must be delivered to. */
    NodeId collector = INVALID_NODE;

    /** Cache-line value carried by data responses. */
    std::uint64_t value = 0;

    /** Number of InvAcks the requester must collect. */
    int ackCount = 0;

    /** Lock-variable access (big routers only track these). */
    bool isLock = false;

    /**
     * GetX only: the requesting atomic is failure-idempotent (lock
     * acquire swap/CAS); when the lock is held, the protocol may answer
     * with a shared copy instead of transferring ownership (paper
     * Fig. 4 Step 4: the winner sends losers a valid lock copy).
     */
    bool demotable = false;

    /** Data only: response to a demoted GetX (no ownership granted). */
    bool demoted = false;

    /**
     * GetX only: the request comes from an atomic RMW (a competition-
     * capable lock acquire). Big routers key their barriers on these;
     * release stores never plant or trip a barrier.
     */
    bool isAtomicOp = false;

    /** GetX already early-invalidated by a big router. */
    bool earlyInvalidated = false;

    /** Message generated by / routed via a big router. */
    bool fromBigRouter = false;

    /** True when this message must be delivered to a directory. */
    bool toDirectory = false;

    /**
     * AckCount only: the directory saw the requester as the current
     * owner (O-state upgrade) -- no data response will follow and the
     * requester's own copy is the valid data.
     */
    bool ownerUpgrade = false;

    /** Cycle the causing Inv was generated (round-trip statistics). */
    Cycle invGeneratedAt = 0;

    /** Directory transaction number (debug / statistics only). */
    std::uint64_t epoch = 0;

    std::string toString() const;
};

} // namespace inpg

#endif // INPG_COH_COHERENCE_MSG_HH
