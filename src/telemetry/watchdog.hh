/**
 * @file
 * Progress watchdog: detects protocol/NoC hangs and turns them into a
 * structured hang report plus a distinct exit code, instead of letting
 * ctest (or a sweep) spin until an external timeout.
 *
 * Progress is defined by registered counters -- packet deliveries and
 * retired memory operations -- NOT by event executions: spinning cores
 * fire events continuously during a genuine protocol deadlock, so an
 * event-based watchdog would never trip.
 *
 * The no-progress window is measured in *executed* cycles. Idle spans
 * the kernel fast-forwards over do not age the watchdog: a jump is a
 * planned wait (the kernel proved the next stimulus cycle), so a long
 * sleep cannot fake a hang, while a spinning livelock accrues executed
 * cycles and trips. The one hang that executes nothing -- every
 * component asleep, nothing in flight toward one (no timed wake
 * pending) and an empty event horizon -- is detected
 * structurally by the kernel (`tripDeadlock`), since nothing can ever
 * run again.
 *
 * When the watchdog trips it invokes the installed trip handler, which
 * the harness uses to build the hang report and throw SimHangError;
 * `inpg_sim` catches it, writes the report, and exits with
 * HANG_EXIT_CODE.
 */

#ifndef INPG_TELEMETRY_WATCHDOG_HH
#define INPG_TELEMETRY_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace inpg {

/**
 * Process exit code for a watchdog-detected hang, distinct from 0
 * (success) and 1 (fatal error) so harnesses can tell "the run hung
 * and was diagnosed" from "the run crashed".
 */
inline constexpr int HANG_EXIT_CODE = 86;

/**
 * Thrown when the watchdog trips. Carries a one-line summary (what())
 * and the full structured hang report as a JSON string.
 */
class SimHangError : public FatalError
{
  public:
    SimHangError(std::string summary, std::string report_json)
        : FatalError(std::move(summary)), report(std::move(report_json))
    {}

    /** The structured hang report, serialized as JSON. */
    const std::string &reportJson() const { return report; }

  private:
    std::string report;
};

/** No-progress watchdog over registered progress counters. */
class ProgressWatchdog
{
  public:
    /** @param no_progress_window executed cycles without progress
     *         before tripping (must be > 0). Checks are amortized to
     *         every window/8 executed cycles. */
    explicit ProgressWatchdog(Cycle no_progress_window);

    ProgressWatchdog(const ProgressWatchdog &) = delete;
    ProgressWatchdog &operator=(const ProgressWatchdog &) = delete;

    /**
     * Register a progress counter. The pointer must stay valid for the
     * watchdog's lifetime; a Counter::address() qualifies.
     */
    void watchCounter(const std::uint64_t *counter);

    /**
     * Install the trip handler: called with the current cycle and a
     * static reason string ("no-progress" or "deadlock"). The handler
     * is expected to throw (SimHangError); if it returns, the watchdog
     * falls back to fatal().
     */
    void setOnTrip(std::function<void(Cycle, const char *)> handler);

    /**
     * Hot-path hook, called once per *executed* cycle. One increment
     * and one branch between amortized checks.
     */
    void
    onCycle(Cycle now)
    {
        if (++observedSinceCheck >= checkPeriod)
            poll(now);
    }

    /**
     * Structural-deadlock trip: the kernel observed that every
     * component is asleep, no timed wake is pending and the event
     * horizon is empty, so no state can ever change again. Trips
     * immediately.
     */
    void tripDeadlock(Cycle now);

    Cycle window() const { return windowLen; }
    Cycle lastProgressAt() const { return lastProgressCycle; }
    std::uint64_t polls() const { return pollCount; }
    std::uint64_t trips() const { return tripCount; }

  private:
    void poll(Cycle now);
    void trip(Cycle now, const char *reason);

    Cycle windowLen;
    Cycle checkPeriod;
    Cycle observedSinceCheck = 0;
    Cycle observedSinceProgress = 0;
    Cycle lastProgressCycle = 0;
    std::uint64_t lastSum = 0;
    std::uint64_t pollCount = 0;
    std::uint64_t tripCount = 0;
    std::vector<const std::uint64_t *> counters;
    std::function<void(Cycle, const char *)> onTrip;
};

} // namespace inpg

#endif // INPG_TELEMETRY_WATCHDOG_HH
