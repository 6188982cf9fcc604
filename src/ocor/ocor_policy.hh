/**
 * @file
 * OCOR (Opportunistic Competition Overhead Reduction, ISCA'16 [40]) --
 * the state-of-the-art baseline the paper compares against.
 *
 * OCOR is a software/hardware co-design for the queue spin-lock: the
 * OS exposes a thread's remaining times of retry (RTR) in its spinning
 * phase; lock request packets carry a priority derived from RTR (the
 * closer a thread is to the expensive sleep phase, the higher its
 * priority), and routers arbitrate the switch by priority. Wakeup
 * requests (threads already slept) get the lowest level, and packet age
 * guards against starvation (Table 1: 9 levels, 8 spinning levels of 16
 * retries each, 1 wakeup level).
 *
 * The router-side half lives in the NoC's Priority switch policy; this
 * module provides the RTR -> priority mapping the lock layer stamps
 * onto request packets.
 */

#ifndef INPG_OCOR_OCOR_POLICY_HH
#define INPG_OCOR_OCOR_POLICY_HH

#include "common/types.hh"

namespace inpg {

/** OCOR configuration (paper Table 1 defaults). */
struct OcorConfig {
    /** Spin retries before yielding to sleep (Linux 4.2 default). */
    int retryTimes = 128;

    /** Total priority levels (8 spinning + 1 wakeup). */
    int priorityLevels = 9;

    /** Retries mapped onto each spinning priority level. */
    int retriesPerLevel = 16;

    /** Router aging quantum: cycles waited per +1 effective priority. */
    Cycle agingQuantum = 64;

    bool operator==(const OcorConfig &) const = default;
};

/** RTR -> packet priority mapping. */
class OcorPolicy
{
  public:
    explicit OcorPolicy(const OcorConfig &cfg = OcorConfig{});

    /**
     * Priority of a spinning thread's lock request.
     * @param remaining_retries retries left before the sleep phase
     * @return 1 (cold, many retries left) .. 8 (about to sleep)
     */
    int spinPriority(int remaining_retries) const;

    /** Priority of a wakeup (post-sleep) lock request: the lowest. */
    int wakeupPriority() const { return 0; }

    const OcorConfig &config() const { return cfg; }

  private:
    OcorConfig cfg;
};

} // namespace inpg

#endif // INPG_OCOR_OCOR_POLICY_HH
