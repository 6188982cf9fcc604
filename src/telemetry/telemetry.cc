#include "telemetry/telemetry.hh"

#include "common/logging.hh"

namespace inpg {

void
TelemetryConfig::applySpec(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;

        if (tok == "off" || tok == "none") {
            lco = packets = traceEvents = kernel = recorder = false;
            timeseriesEpoch = 0;
            watchdogWindow = 0;
        } else if (tok == "all") {
            // Every pure observer; the watchdog stays opt-in because
            // tripping terminates the run.
            lco = packets = traceEvents = kernel = recorder = true;
            if (timeseriesEpoch == 0)
                timeseriesEpoch = DEFAULT_TIMESERIES_EPOCH;
        } else if (tok == "recorder") {
            recorder = true;
        } else if (tok == "timeseries") {
            if (timeseriesEpoch == 0)
                timeseriesEpoch = DEFAULT_TIMESERIES_EPOCH;
        } else if (tok == "watchdog") {
            if (watchdogWindow == 0)
                watchdogWindow = DEFAULT_WATCHDOG_WINDOW;
        } else if (tok == "lco") {
            lco = true;
        } else if (tok == "packets") {
            packets = true;
        } else if (tok == "trace") {
            traceEvents = true;
        } else if (tok == "kernel") {
            kernel = true;
        } else if (!tok.empty()) {
            fatal("unknown telemetry token '%s' in '%s' (lco|packets|"
                  "trace|kernel|recorder|timeseries|watchdog|all|off)",
                  tok.c_str(), spec.c_str());
        }
    }
}

Telemetry::Telemetry(const TelemetryConfig &config, int num_cores)
    : cfg(config)
{
    if (cfg.traceEvents) {
        traceOwned = std::make_unique<TraceEventSink>();
        trace = traceOwned.get();
    }
    if (cfg.lco) {
        lcoOwned = std::make_unique<LcoTracker>(num_cores);
        lco = lcoOwned.get();
    }
    if (cfg.packets) {
        packetsOwned = std::make_unique<PacketLifetimeTracker>(trace);
        packets = packetsOwned.get();
    }
    if (cfg.kernel) {
        kernelOwned = std::make_unique<KernelProfile>();
        kernel = kernelOwned.get();
    }
    if (cfg.recorder) {
        recorderOwned =
            std::make_unique<FlightRecorder>(cfg.recorderCapacity);
        recorder = recorderOwned.get();
    }
    if (cfg.timeseriesEpoch > 0) {
        timeseriesOwned = std::make_unique<TimeseriesSampler>(
            cfg.timeseriesEpoch, cfg.timeseriesMaxRows);
        timeseries = timeseriesOwned.get();
    }
    if (cfg.watchdogWindow > 0) {
        watchdogOwned =
            std::make_unique<ProgressWatchdog>(cfg.watchdogWindow);
        watchdog = watchdogOwned.get();
    }
}

} // namespace inpg
