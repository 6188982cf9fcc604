/**
 * @file
 * Epoch-driven time-series sampler: a compact columnar store of how
 * congestion evolves over a run (per-router buffer occupancy,
 * per-directory queue depth, counter deltas per epoch), exported as
 * JSON or CSV for heatmap plotting.
 *
 * Columns come in two kinds:
 *  - counter columns: a pointer to a live StatGroup counter; each row
 *    records the delta since the previous row (rate per epoch);
 *  - gauge columns: a callable sampled at the epoch boundary; each row
 *    records the instantaneous level (occupancy, queue depth).
 *
 * Sampling happens on executed cycles only: the kernel fast-forwards
 * idle spans, and no column can change while every component sleeps,
 * so skipped epochs carry no information. The explicit `cycle` column
 * makes each row self-describing regardless of gaps.
 *
 * The store is bounded (`maxRows`); once full, further rows are
 * counted in `droppedRows()` and discarded, never allocated -- the
 * same bounded-recording discipline the lint enforces for the flight
 * recorder (DESIGN.md invariant 14).
 */

#ifndef INPG_TELEMETRY_TIMESERIES_HH
#define INPG_TELEMETRY_TIMESERIES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/json.hh"

namespace inpg {

/** Columnar epoch sampler for congestion time series. */
class TimeseriesSampler
{
  public:
    /**
     * @param epoch_len cycles between samples (must be > 0)
     * @param max_rows  row cap; rows past it are counted, not stored
     */
    explicit TimeseriesSampler(Cycle epoch_len,
                               std::size_t max_rows = 1u << 20);

    TimeseriesSampler(const TimeseriesSampler &) = delete;
    TimeseriesSampler &operator=(const TimeseriesSampler &) = delete;

    /**
     * Register a counter column (delta per epoch). The pointer must
     * stay valid for the sampler's lifetime; a Counter::address()
     * qualifies.
     */
    void addCounter(std::string name, const std::uint64_t *counter);

    /** Register a gauge column (level at each epoch boundary). */
    void addGauge(std::string name, std::function<std::uint64_t()> fn);

    /**
     * Hot-path hook, called once per *executed* cycle. One branch when
     * no epoch boundary has been crossed.
     */
    void
    onCycle(Cycle now)
    {
        if (now >= nextEpochAt)
            sampleRow(now);
    }

    /**
     * Fast-forward notification: the kernel jumped an idle span, so
     * epoch boundaries inside it are unobservable (and contentless).
     * Realign so the first executed cycle at/after `target` samples.
     */
    void
    onFastForward(Cycle target)
    {
        if (target > nextEpochAt)
            nextEpochAt = target;
    }

    Cycle epochLength() const { return epochLen; }
    std::size_t numColumns() const { return columns.size(); }
    std::size_t rows() const { return stamps.size(); }
    std::uint64_t droppedRows() const { return dropped; }
    std::size_t maxRows() const { return maxRows_; }

    /**
     * Whole series as a JSON document:
     * { epoch, rows, dropped, cycle: [...], columns: {name: [...]} }.
     */
    JsonValue toJson() const;

    /** Whole series as CSV: header `cycle,<col>,...`, one row each. */
    std::string toCsv() const;

    /**
     * Write the series to `path`; format chosen by extension (`.csv`
     * -> CSV, anything else -> JSON). Returns false on I/O failure.
     */
    bool writeFile(const std::string &path) const;

  private:
    void sampleRow(Cycle now);

    struct Column {
        std::string name;
        const std::uint64_t *counter = nullptr; ///< null for gauges
        std::uint64_t last = 0;                 ///< counter baseline
        std::function<std::uint64_t()> gauge;
        std::vector<std::uint64_t> values;
    };

    Cycle epochLen;
    Cycle nextEpochAt = 0;
    std::size_t maxRows_;
    std::uint64_t dropped = 0;
    std::vector<Cycle> stamps;
    std::vector<Column> columns;
};

} // namespace inpg

#endif // INPG_TELEMETRY_TIMESERIES_HH
