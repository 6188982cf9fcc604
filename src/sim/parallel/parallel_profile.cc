#include "sim/parallel/parallel_profile.hh"

#include <algorithm>
#include <chrono> // lint:allow(nondeterminism) host-time profiling only

#include "telemetry/stats_registry.hh"

namespace inpg {

namespace {

/** Barrier-wait histogram: 256 ns bins out to ~16 us + overflow. */
constexpr std::uint64_t BARRIER_BIN_NS = 256;
constexpr std::size_t BARRIER_BINS = 64;

} // namespace

ParallelProfile::ParallelProfile(int threads)
    : nThreads(threads),
      slots(static_cast<std::size_t>(threads > 1 ? threads - 1 : 0)),
      barrierWaitHist(BARRIER_BIN_NS, BARRIER_BINS)
{
}

std::uint64_t
ParallelProfile::nowNs()
{
    // Host wall-clock, never fed back into simulated state.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>( // lint:allow(nondeterminism)
            std::chrono::steady_clock::now().time_since_epoch()) // lint:allow(nondeterminism)
            .count());
}

void
ParallelProfile::workerQuantum(std::size_t w, std::uint64_t wait_ns,
                               std::uint64_t busy_ns,
                               std::uint64_t ticks)
{
    WorkerSlot &s = slots[w];
    ++s.quanta;
    s.ticks += ticks;
    s.busyNs += busy_ns;
    s.waitNs += wait_ns;
}

void
ParallelProfile::onQuantum(bool barrier)
{
    ++quanta;
    if (barrier)
        ++barriers;
    else
        ++barriersElided;
}

void
ParallelProfile::coordinatorQuantum(std::uint64_t sweep_ns,
                                    std::uint64_t barrier_wait_ns,
                                    std::uint64_t merge_ns)
{
    coordSweepNs += sweep_ns;
    coordBarrierWaitNs += barrier_wait_ns;
    coordMergeNs += merge_ns;
    barrierWaitHist.add(barrier_wait_ns);
}

void
ParallelProfile::drained(std::uint64_t flits, std::uint64_t credits)
{
    drainedFlits += flits;
    drainedCredits += credits;
}

double
ParallelProfile::loadImbalance() const
{
    std::uint64_t maxBusy = 0;
    std::uint64_t sumBusy = 0;
    for (const WorkerSlot &s : slots) {
        maxBusy = std::max(maxBusy, s.busyNs);
        sumBusy += s.busyNs;
    }
    if (sumBusy == 0)
        return 0;
    const double mean =
        static_cast<double>(sumBusy) / static_cast<double>(slots.size());
    return static_cast<double>(maxBusy) / mean;
}

JsonValue
ParallelProfile::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc["threads"] = JsonValue(nThreads);
    doc["quanta"] = JsonValue(quanta);
    doc["barriers"] = JsonValue(barriers);
    doc["barriers_elided"] = JsonValue(barriersElided);
    doc["drained_flits"] = JsonValue(drainedFlits);
    doc["drained_credits"] = JsonValue(drainedCredits);
    JsonValue &ticks = doc["worker_ticks"];
    ticks = JsonValue::array();
    for (const WorkerSlot &s : slots)
        ticks.push(JsonValue(s.ticks));

    // Host wall-clock section: run-to-run noise, never diffed.
    JsonValue &host = doc["host"];
    host = JsonValue::object();
    host["coordinator_sweep_ns"] = JsonValue(coordSweepNs);
    host["coordinator_barrier_wait_ns"] = JsonValue(coordBarrierWaitNs);
    host["coordinator_merge_ns"] = JsonValue(coordMergeNs);
    JsonValue &ws = host["workers"];
    ws = JsonValue::array();
    for (const WorkerSlot &s : slots) {
        JsonValue w = JsonValue::object();
        w["quanta"] = JsonValue(s.quanta);
        w["busy_ns"] = JsonValue(s.busyNs);
        w["wait_ns"] = JsonValue(s.waitNs);
        ws.push(std::move(w));
    }
    host["load_imbalance"] = JsonValue(loadImbalance());
    host["barrier_wait_ns"] =
        StatsRegistry::histogramToJson(barrierWaitHist);
    return doc;
}

} // namespace inpg
