// Result sinks: render a sweep's result table as an aligned console table,
// CSV, or JSON — replacing the per-bench Table+PrintTable plumbing. The
// JSON form is the machine-readable surface for perf trajectories: an
// array of row objects keyed by column name, with numeric-looking cells
// emitted as numbers.
#ifndef FLASHSIM_SRC_HARNESS_SINKS_H_
#define FLASHSIM_SRC_HARNESS_SINKS_H_

#include <optional>
#include <ostream>
#include <string>

#include "src/core/metrics.h"
#include "src/obs/telemetry.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace flashsim {

enum class OutputFormat {
  kAligned,  // human-readable padded columns (the default)
  kCsv,
  kJson,
};

// Accepts "table"/"aligned", "csv", "json".
std::optional<OutputFormat> ParseOutputFormat(const std::string& name);

// Renders the table in the requested format.
void EmitTable(const Table& table, OutputFormat format, std::ostream& os);

// JSON rows for the table: [{"col": value, ...}, ...]. Cells that parse
// fully as numbers become JSON numbers; everything else stays a string.
JsonValue TableToJson(const Table& table);

// Full-fidelity Metrics snapshot: every counter exactly, latency recorders
// with their complete accumulator state and sparse histogram buckets,
// written once per run.
JsonValue MetricsToJson(const Metrics& metrics);

// Writes {"metrics": ..., "telemetry": ...} to `path` ("-" = stdout). The
// telemetry key is present only when `telemetry` is non-null. Returns false
// (and fills *error) when the file cannot be written.
bool WriteStatsJsonFile(const std::string& path, const Metrics& metrics,
                        const obs::Telemetry* telemetry, std::string* error);

// Writes the run's Chrome trace_event JSON to `path` ("-" = stdout); load
// it in chrome://tracing or https://ui.perfetto.dev. Requires telemetry
// with spans armed.
bool WriteChromeTraceFile(const std::string& path, const obs::Telemetry& telemetry,
                          std::string* error);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_HARNESS_SINKS_H_
