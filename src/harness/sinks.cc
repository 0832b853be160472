#include "src/harness/sinks.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace flashsim {

std::optional<OutputFormat> ParseOutputFormat(const std::string& name) {
  if (name == "table" || name == "aligned") {
    return OutputFormat::kAligned;
  }
  if (name == "csv") {
    return OutputFormat::kCsv;
  }
  if (name == "json") {
    return OutputFormat::kJson;
  }
  return std::nullopt;
}

namespace {

// A cell becomes a JSON number only when the whole string parses as one
// ("64", "12.50"); labels like "8G_ram_64G_flash_naive" stay strings.
JsonValue CellToJson(const std::string& cell) {
  if (cell.empty()) {
    return JsonValue(cell);
  }
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return JsonValue(cell);
  }
  // strtod accepts "nan"/"inf" spellings, which are not JSON numbers; keep
  // such cells as strings so the emitted document stays parseable.
  if (!std::isfinite(value)) {
    return JsonValue(cell);
  }
  // Integer-looking cells (no '.', 'e', inf/nan spellings) stay integers.
  if (cell.find_first_not_of("-0123456789") == std::string::npos) {
    const long long as_int = std::strtoll(cell.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      return JsonValue(static_cast<int64_t>(as_int));
    }
  }
  return JsonValue(value);
}

}  // namespace

JsonValue TableToJson(const Table& table) {
  JsonValue rows = JsonValue::Array();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    JsonValue row = JsonValue::Object();
    const std::vector<std::string>& cells = table.row(r);
    for (size_t c = 0; c < table.num_columns() && c < cells.size(); ++c) {
      row.Set(table.header()[c], CellToJson(cells[c]));
    }
    rows.Append(std::move(row));
  }
  return rows;
}

void EmitTable(const Table& table, OutputFormat format, std::ostream& os) {
  switch (format) {
    case OutputFormat::kAligned:
      table.PrintAligned(os);
      break;
    case OutputFormat::kCsv:
      table.PrintCsv(os);
      break;
    case OutputFormat::kJson:
      os << TableToJson(table).Dump(2) << "\n";
      break;
  }
}

namespace {

JsonValue StatsToJson(const StreamingStats& stats) {
  JsonValue json = JsonValue::Object();
  json.Set("count", stats.count());
  json.Set("mean", stats.mean());
  json.Set("m2", stats.raw_m2());
  json.Set("min", stats.raw_min());
  json.Set("max", stats.raw_max());
  json.Set("sum", stats.sum());
  return json;
}

JsonValue RecorderToJson(const LatencyRecorder& recorder) {
  JsonValue json = JsonValue::Object();
  json.Set("stats", StatsToJson(recorder.stats()));
  // Sparse histogram: [[bucket_index, count], ...] — most of the 512
  // buckets are empty.
  JsonValue buckets = JsonValue::Array();
  const auto& raw = recorder.histogram().buckets();
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != 0) {
      JsonValue entry = JsonValue::Array();
      entry.Append(static_cast<int64_t>(i));
      entry.Append(raw[i]);
      buckets.Append(std::move(entry));
    }
  }
  json.Set("histogram", std::move(buckets));
  // The summary most consumers read, derived from the state above.
  json.Set("mean_us", recorder.mean_us());
  json.Set("p50_us", static_cast<double>(recorder.p50_ns()) / 1000.0);
  json.Set("p99_us", static_cast<double>(recorder.p99_ns()) / 1000.0);
  return json;
}

JsonValue CountersToJson(const StackCounters& counters) {
  JsonValue json = JsonValue::Object();
  json.Set("ram_hits", counters.ram_hits);
  json.Set("flash_hits", counters.flash_hits);
  json.Set("filer_reads", counters.filer_reads);
  json.Set("sync_ram_evictions", counters.sync_ram_evictions);
  json.Set("sync_flash_evictions", counters.sync_flash_evictions);
  json.Set("flash_installs", counters.flash_installs);
  json.Set("filer_writebacks", counters.filer_writebacks);
  json.Set("sync_filer_writes", counters.sync_filer_writes);
  json.Set("flash_admission_rejects", counters.flash_admission_rejects);
  return json;
}

JsonValue ShardToJson(const ShardMetrics& shard) {
  JsonValue json = JsonValue::Object();
  json.Set("fast_reads", shard.fast_reads);
  json.Set("slow_reads", shard.slow_reads);
  json.Set("writes", shard.writes);
  json.Set("queued_requests", shard.queued_requests);
  json.Set("max_wait_ns", static_cast<uint64_t>(shard.max_wait_ns));
  json.Set("busy_ns", static_cast<uint64_t>(shard.busy_ns));
  json.Set("wait_ns", static_cast<uint64_t>(shard.wait_ns));
  json.Set("control_messages", shard.control_messages);
  return json;
}

JsonValue CoherenceToJson(const CoherenceCounters& c) {
  JsonValue json = JsonValue::Object();
  json.Set("lookups", c.lookups);
  json.Set("invalidation_messages", c.invalidation_messages);
  json.Set("acks", c.acks);
  json.Set("lease_grants", c.lease_grants);
  json.Set("lease_renewals", c.lease_renewals);
  json.Set("lease_breaks", c.lease_breaks);
  json.Set("dirty_fetches", c.dirty_fetches);
  json.Set("stalled_reads", c.stalled_reads);
  json.Set("stalled_read_ns", c.stalled_read_ns);
  json.Set("stalled_writes", c.stalled_writes);
  json.Set("stalled_write_ns", c.stalled_write_ns);
  return json;
}

}  // namespace

JsonValue MetricsToJson(const Metrics& metrics) {
  JsonValue json = JsonValue::Object();
  json.Set("read_latency", RecorderToJson(metrics.read_latency));
  json.Set("write_latency", RecorderToJson(metrics.write_latency));

  JsonValue levels = JsonValue::Array();
  for (uint64_t blocks : metrics.read_level_blocks) {
    levels.Append(blocks);
  }
  json.Set("read_level_blocks", std::move(levels));

  json.Set("measured_read_blocks", metrics.measured_read_blocks);
  json.Set("measured_write_blocks", metrics.measured_write_blocks);
  json.Set("warmup_blocks", metrics.warmup_blocks);
  json.Set("trace_records", metrics.trace_records);
  json.Set("consistency_writes", metrics.consistency_writes);
  json.Set("invalidating_writes", metrics.invalidating_writes);
  json.Set("invalidations", metrics.invalidations);
  json.Set("invalidation_messages", metrics.invalidation_messages);
  json.Set("coherence_model", CoherenceModelName(metrics.coherence_model));
  if (metrics.coherence.any()) {
    json.Set("coherence", CoherenceToJson(metrics.coherence));
  }
  json.Set("index_rehashes", metrics.index_rehashes);
  json.Set("end_time", static_cast<uint64_t>(metrics.end_time));
  json.Set("filer_fast_reads", metrics.filer_fast_reads);
  json.Set("filer_slow_reads", metrics.filer_slow_reads);
  json.Set("filer_writes", metrics.filer_writes);
  if (!metrics.filer_shards.empty()) {
    JsonValue shards = JsonValue::Array();
    for (const ShardMetrics& shard : metrics.filer_shards) {
      shards.Append(ShardToJson(shard));
    }
    json.Set("filer_shards", std::move(shards));
  }
  json.Set("stack_totals", CountersToJson(metrics.stack_totals));
  json.Set("writebacks_enqueued", metrics.writebacks_enqueued);
  json.Set("writebacks_completed", metrics.writebacks_completed);
  json.Set("writebacks_in_flight", metrics.writebacks_in_flight);
  json.Set("dirty_resident", metrics.dirty_resident);
  json.Set("flash_bytes_written", metrics.flash_bytes_written);
  json.Set("block_bytes", metrics.block_bytes);
  // Retired counters, still written as 0: perfbench/flashbench.cc pins digests of this JSON.
  json.Set("certified_ram_batched", uint64_t{0});
  json.Set("certified_flash_batched", uint64_t{0});
  json.Set("certified_write_batched", uint64_t{0});
  json.Set("ftl_enabled", metrics.ftl_enabled);
  json.Set("ftl_write_amplification", metrics.ftl_write_amplification);
  json.Set("ftl_erases", metrics.ftl_erases);
  json.Set("ftl_gc_relocations", metrics.ftl_gc_relocations);
  return json;
}

namespace {

// Runs `emit` against `path`, or stdout when path is "-".
template <typename Emit>
bool EmitToPath(const std::string& path, std::string* error, Emit emit) {
  if (path == "-") {
    emit(std::cout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  emit(out);
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write to " + path + " failed";
    }
    return false;
  }
  return true;
}

}  // namespace

bool WriteStatsJsonFile(const std::string& path, const Metrics& metrics,
                        const obs::Telemetry* telemetry, std::string* error) {
  JsonValue json = JsonValue::Object();
  json.Set("metrics", MetricsToJson(metrics));
  if (telemetry != nullptr) {
    json.Set("telemetry", telemetry->StatsJson());
  }
  return EmitToPath(path, error,
                    [&json](std::ostream& os) { os << json.Dump(2) << "\n"; });
}

bool WriteChromeTraceFile(const std::string& path, const obs::Telemetry& telemetry,
                          std::string* error) {
  if (telemetry.trace() == nullptr) {
    if (error != nullptr) {
      *error = "trace export requested but span capture was not armed";
    }
    return false;
  }
  return EmitToPath(path, error,
                    [&telemetry](std::ostream& os) { telemetry.WriteChromeTrace(os); });
}

}  // namespace flashsim
