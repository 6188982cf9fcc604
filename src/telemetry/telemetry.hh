/**
 * @file
 * Telemetry facade: configuration plus ownership of the optional
 * instrumentation trackers (packet lifetimes, LCO attribution,
 * Chrome-trace sink, kernel profile).
 *
 * Zero-cost-when-off contract: instrumented components hold a
 * `Telemetry *` that is null when telemetry is disabled, and each
 * feature pointer (`lco`, `packets`, `trace`, `kernel`) is null when
 * that feature is off -- so the entire subsystem costs one
 * predictable branch per hook site on the hot path and nothing else.
 * The determinism tests pin down that enabling it never changes
 * simulated results.
 */

#ifndef INPG_TELEMETRY_TELEMETRY_HH
#define INPG_TELEMETRY_TELEMETRY_HH

#include <memory>
#include <string>

#include "common/histogram.hh"
#include "common/types.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/lco_attribution.hh"
#include "telemetry/packet_lifetime.hh"
#include "telemetry/stats_registry.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_event.hh"
#include "telemetry/watchdog.hh"

namespace inpg {

/** Epoch length used when `timeseries` is enabled without one. */
inline constexpr Cycle DEFAULT_TIMESERIES_EPOCH = 4096;

/** No-progress window used when `watchdog` is enabled without one. */
inline constexpr Cycle DEFAULT_WATCHDOG_WINDOW = 1'000'000;

/** Which trackers to build; all default off. */
struct TelemetryConfig {
    bool lco = false;         ///< per-acquire LCO attribution
    bool packets = false;     ///< hop-granular packet lifetimes
    bool traceEvents = false; ///< Chrome-trace event sink
    bool kernel = false;      ///< kernel profile (events/cycle, FF skips)
    bool recorder = false;    ///< flight recorder of recent events

    /** Flight-recorder ring capacity (rounded up to a power of two). */
    std::size_t recorderCapacity = 4096;

    /** Timeseries epoch length in cycles; 0 = sampler off. */
    Cycle timeseriesEpoch = 0;

    /** Timeseries row cap (bounded-recording discipline). */
    std::size_t timeseriesMaxRows = 1u << 20;

    /** Watchdog no-progress window in executed cycles; 0 = off. */
    Cycle watchdogWindow = 0;

    bool
    any() const
    {
        return lco || packets || traceEvents || kernel || recorder ||
               timeseriesEpoch > 0 || watchdogWindow > 0;
    }

    /**
     * Apply a comma-separated spec: `lco`, `packets`, `trace`,
     * `kernel`, `recorder`, `timeseries`, `watchdog`, `all`, `off`.
     * `timeseries`/`watchdog` use default epoch/window when none was
     * configured. `all` enables every pure observer but NOT the
     * watchdog: tripping terminates the run, so it stays opt-in.
     * Empty segments are skipped; an unknown token is a config error
     * (FatalError). Also the INPG_TELEMETRY env-var format.
     */
    void applySpec(const std::string &spec);

    bool operator==(const TelemetryConfig &) const = default;
};

/** Kernel-level profile: scheduler load and fast-forward behavior. */
class KernelProfile
{
  public:
    /** Record one executed cycle's event count and queue depth. */
    void
    onCycle(std::uint64_t events_run, std::size_t queue_depth)
    {
        eventsPerCycle.add(events_run);
        wheelOccupancy.add(queue_depth);
    }

    /** Record one idle fast-forward jump of `gap` cycles. */
    void onFastForward(Cycle gap) { ffSkip.add(gap); }

    const Histogram &eventsPerCycleHist() const { return eventsPerCycle; }
    const Histogram &wheelOccupancyHist() const { return wheelOccupancy; }
    const Histogram &ffSkipHist() const { return ffSkip; }

  private:
    Histogram eventsPerCycle{1, 64};
    Histogram wheelOccupancy{4, 64};
    Histogram ffSkip{16, 64};
};

/**
 * Owner of the enabled trackers. Feature pointers are plain observer
 * pointers so hook sites pay a single null test.
 */
class Telemetry
{
  public:
    Telemetry(const TelemetryConfig &config, int num_cores);

    const TelemetryConfig &config() const { return cfg; }

    LcoTracker *lco = nullptr;
    PacketLifetimeTracker *packets = nullptr;
    TraceEventSink *trace = nullptr;
    KernelProfile *kernel = nullptr;
    FlightRecorder *recorder = nullptr;
    TimeseriesSampler *timeseries = nullptr;
    ProgressWatchdog *watchdog = nullptr;

  private:
    TelemetryConfig cfg;
    std::unique_ptr<TraceEventSink> traceOwned;
    std::unique_ptr<LcoTracker> lcoOwned;
    std::unique_ptr<PacketLifetimeTracker> packetsOwned;
    std::unique_ptr<KernelProfile> kernelOwned;
    std::unique_ptr<FlightRecorder> recorderOwned;
    std::unique_ptr<TimeseriesSampler> timeseriesOwned;
    std::unique_ptr<ProgressWatchdog> watchdogOwned;
};

/** LCO tracker behind a facade, or null when telemetry or lco is off. */
inline LcoTracker *
lcoOf(const Telemetry *t)
{
    return t ? t->lco : nullptr;
}

} // namespace inpg

#endif // INPG_TELEMETRY_TELEMETRY_HH
