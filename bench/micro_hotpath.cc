// Hot-path throughput baseline: events/sec through the discrete-event core
// (typed, pooled-callback, and the pre-PR legacy queue kept in-tree as the
// regression reference) and simulated-ops/sec across the three cache
// architectures, plus the micro_components component paths (cache index,
// LRU chain, timeline resource).
//
// `--out=json` emits the rows through the harness JSON sink; the committed
// BENCH_hotpath.json at the repo root is that output, recorded in Release
// mode, and is the baseline CI's perf-smoke job compares against:
//
//   micro_hotpath --out=json --baseline=BENCH_hotpath.json --tolerance=0.20
//
// prints a comparison per row to stderr and exits 1 if any row's
// items_per_sec fell more than the tolerance below the baseline. Shared CI
// runners are noisy, so the CI job treats a failure as advisory.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "src/cache/lru_cache.h"
#include "src/core/simulation.h"
#include "src/trace/fast_source.h"
#include "src/trace/trace_file.h"
#include "src/util/json.h"
#include "src/sim/event_queue.h"
#include "src/sim/resource.h"
#include "src/util/flat_hash.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// FNV-1a, to key baseline rows by bench name in a FlatHashMap.
uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// The pre-PR event queue — a binary std::priority_queue of type-erased
// std::function entries, copied out before pop — replicated here so the
// speedup over it stays measurable in-tree after the real queue moved on.
class LegacyEventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  void ScheduleAt(SimTime when, Callback cb) {
    heap_.push(Entry{when, next_seq_++, std::move(cb)});
  }

  SimTime RunToCompletion() {
    while (!heap_.empty()) {
      Entry entry = std::move(const_cast<Entry&>(heap_.top()));
      heap_.pop();
      now_ = entry.when;
      ++events_processed_;
      entry.cb(now_);
    }
    return now_;
  }

  uint64_t events_processed() const { return events_processed_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
};

// Every workload keeps this many events outstanding — the shape of a
// simulator run with 64 application threads, each one I/O in flight.
constexpr int kOutstanding = 64;

struct BenchRow {
  std::string name;
  uint64_t items = 0;
  double seconds = 0.0;
};

// Typed path: self-rescheduling handler, the shape of op completions.
class TypedPump : public EventHandler {
 public:
  TypedPump(EventQueue* queue, uint64_t reschedules)
      : queue_(queue), remaining_(reschedules) {}

  void HandleEvent(SimTime now, uint32_t code, uint64_t /*arg*/) override {
    if (remaining_ > 0) {
      --remaining_;
      queue_->ScheduleEvent(now + 100, this, code);
    }
  }

 private:
  EventQueue* queue_;
  uint64_t remaining_;
};

BenchRow BenchTypedEvents(uint64_t events) {
  EventQueue queue;
  queue.Reserve(kOutstanding);
  TypedPump pump(&queue, events > kOutstanding ? events - kOutstanding : 0);
  for (int i = 0; i < kOutstanding; ++i) {
    queue.ScheduleEvent(i, &pump, 0);
  }
  const auto start = Clock::now();
  queue.RunToCompletion();
  return BenchRow{"event_typed", queue.events_processed(), SecondsSince(start)};
}

// Callback path: a self-rescheduling 16-byte capture, identical workload on
// either queue.
template <typename Queue>
BenchRow BenchCallbackEvents(const std::string& name, uint64_t events) {
  Queue queue;
  uint64_t remaining = events > kOutstanding ? events - kOutstanding : 0;
  struct Pump {
    Queue* queue;
    uint64_t* remaining;
    void operator()(SimTime now) const {
      if (*remaining > 0) {
        --*remaining;
        queue->ScheduleAt(now + 100, *this);
      }
    }
  };
  for (int i = 0; i < kOutstanding; ++i) {
    queue.ScheduleAt(i, Pump{&queue, &remaining});
  }
  const auto start = Clock::now();
  queue.RunToCompletion();
  return BenchRow{name, queue.events_processed(), SecondsSince(start)};
}

BenchRow BenchSimulation(Architecture arch, uint64_t ops,
                         const obs::TelemetryConfig& telemetry = {},
                         const char* name_suffix = "") {
  SimConfig config;
  config.ram_bytes = 4096ULL * 4096;
  config.flash_bytes = 32768ULL * 4096;
  config.threads_per_host = 8;
  config.arch = arch;
  config.telemetry = telemetry;
  Simulation sim(config);
  std::vector<TraceRecord> records;
  records.reserve(ops);
  Rng rng(7);
  for (uint64_t i = 0; i < ops; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
    r.thread = static_cast<uint16_t>(rng.NextBounded(8));
    r.file_id = 1;
    r.block = rng.NextBounded(65536);
    records.push_back(r);
  }
  VectorTraceSource source(std::move(records));
  const auto start = Clock::now();
  const Metrics m = sim.Run(source);
  return BenchRow{std::string("sim_") + ArchitectureName(arch) + name_suffix,
                  m.measured_read_blocks + m.measured_write_blocks, SecondsSince(start)};
}

// Single-stream hot-read rows: 1 host x 1 thread reading a RAM-resident
// 2048-block set. With one application thread the queue holds only the
// distant syncer tick between op completions, so every post-warmup read
// satisfies the serial fast path's "provably next event" gate — this is the
// workload the inline dispatch was built for. Three rows:
//
//   sim_fastpath       fast path on (the default)
//   sim_hot_eventpath  same workload, fast path off — the ratio between
//                      these two is the measured event-loop round-trip tax
//   sim_fastpath_telem fast path + histograms + sampler — its gap to
//                      sim_fastpath is the batched telemetry tax
//   sim_fastpath_slru  fast path under the SLRU plugin — its gap to
//                      sim_fastpath is the replacement-policy virtual
//                      dispatch tax on the certified read path (LRU keeps a
//                      devirtualized inline branch; every other policy pays
//                      one virtual OnHit per hit). --fastpath_gate fails
//                      the run if that tax exceeds the given fraction.
BenchRow BenchHotReadSimulation(const char* name, bool fast_path, uint64_t ops,
                                const obs::TelemetryConfig& telemetry = {},
                                ReplacementPolicy replacement = ReplacementPolicy::kLru) {
  SimConfig config;
  config.ram_bytes = 4096ULL * 4096;
  config.flash_bytes = 32768ULL * 4096;
  config.num_hosts = 1;
  config.threads_per_host = 1;
  config.arch = Architecture::kNaive;
  config.read_fast_path = fast_path;
  config.replacement = replacement;
  config.telemetry = telemetry;
  Simulation sim(config);
  std::vector<TraceRecord> records;
  records.reserve(ops);
  Rng rng(11);
  for (uint64_t i = 0; i < ops; ++i) {
    TraceRecord r;
    r.op = TraceOp::kRead;
    r.file_id = 1;
    r.block = rng.NextBounded(2048);
    records.push_back(r);
  }
  VectorTraceSource source(std::move(records));
  const auto start = Clock::now();
  const Metrics m = sim.Run(source);
  return BenchRow{name, m.measured_read_blocks, SecondsSince(start)};
}

// The telemetry-on counterpart of sim_naive: every collector armed. Its
// items_per_sec next to sim_naive's IS the telemetry overhead; the
// telemetry-off rows above must stay within the baseline tolerance.
BenchRow BenchSimulationTelemetry(uint64_t ops) {
  obs::TelemetryConfig telemetry;
  telemetry.histograms = true;
  telemetry.spans = true;
  telemetry.sample_stride_ns = 10 * kMillisecond;
  return BenchSimulation(Architecture::kNaive, ops, telemetry, "_telem");
}

// Trace-ingestion rows: the same records read back through each front end.
// trace_ingest_text and trace_ingest_binary stream through stdio
// (FileTraceSource); trace_ingest_mmap walks the mapped file. Temp files
// are written once and removed before returning.
std::string IngestTempPath(const char* suffix) {
  char path[64];
  std::snprintf(path, sizeof(path), "/tmp/flashsim_hotpath_%d.%s", getpid(), suffix);
  return path;
}

void WriteIngestTrace(const std::string& path, TraceFormat format, uint64_t records) {
  std::string error;
  auto writer = TraceFileWriter::Create(path, format, &error);
  FLASHSIM_CHECK(writer != nullptr);
  Rng rng(13);
  for (uint64_t i = 0; i < records; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
    r.host = static_cast<uint16_t>(rng.NextBounded(16));
    r.thread = static_cast<uint16_t>(rng.NextBounded(8));
    r.file_id = static_cast<uint32_t>(rng.NextBounded(1000));
    r.block = rng.NextBounded(1ULL << 30);
    r.block_count = static_cast<uint32_t>(rng.NextBounded(16)) + 1;
    writer->Write(r);
  }
  FLASHSIM_CHECK(writer->Close());
}

BenchRow BenchTraceIngest(const char* name, TraceSource& source, uint64_t expected) {
  TraceRecord record;
  uint64_t read = 0;
  const auto start = Clock::now();
  while (source.Next(&record)) {
    ++read;
  }
  const double seconds = SecondsSince(start);
  FLASHSIM_CHECK(read == expected);
  return BenchRow{name, read, seconds};
}

std::vector<BenchRow> BenchTraceIngestAll(uint64_t records) {
  const std::string text_path = IngestTempPath("txt");
  const std::string binary_path = IngestTempPath("bin");
  WriteIngestTrace(text_path, TraceFormat::kText, records);
  WriteIngestTrace(binary_path, TraceFormat::kBinary, records);
  std::vector<BenchRow> rows;
  {
    std::string error;
    auto text = BufferedTextTraceSource::Open(text_path, &error);
    FLASHSIM_CHECK(text != nullptr);
    rows.push_back(BenchTraceIngest("trace_ingest_text", *text, records));
  }
  {
    std::string error;
    auto binary = FileTraceSource::Open(binary_path, &error);
    FLASHSIM_CHECK(binary != nullptr);
    rows.push_back(BenchTraceIngest("trace_ingest_binary", *binary, records));
  }
  {
    std::string error;
    auto mapped = MmapTraceSource::Open(binary_path, &error);
    FLASHSIM_CHECK(mapped != nullptr);
    rows.push_back(BenchTraceIngest("trace_ingest_mmap", *mapped, records));
  }
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
  return rows;
}

BenchRow BenchFlatHashFind(uint64_t lookups) {
  FlatHashMap<uint32_t> map;
  const uint64_t n = 100000;
  map.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    map.Insert(Mix64(i), static_cast<uint32_t>(i));
  }
  uint64_t found = 0;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < lookups; ++i) {
    found += map.Find(Mix64(i % n)) != nullptr ? 1 : 0;
  }
  const double seconds = SecondsSince(start);
  FLASHSIM_CHECK(found == lookups);
  return BenchRow{"flat_hash_find", lookups, seconds};
}

BenchRow BenchLruTouch(uint64_t touches) {
  LruBlockCache cache("bench", 65536);
  std::optional<EvictedBlock> evicted;
  for (uint64_t k = 0; k < 65536; ++k) {
    cache.Insert(k, false, &evicted);
  }
  Rng rng(2);
  const auto start = Clock::now();
  for (uint64_t i = 0; i < touches; ++i) {
    cache.Touch(cache.Lookup(rng.NextBounded(65536)));
  }
  return BenchRow{"lru_touch", touches, SecondsSince(start)};
}

// lru_touch through LookupFast, whose index probe prefetches the slot the
// Touch is about to dereference. Its delta against lru_touch is the
// prefetch's worth on this machine's memory system.
BenchRow BenchLruTouchFast(uint64_t touches) {
  LruBlockCache cache("bench", 65536);
  std::optional<EvictedBlock> evicted;
  for (uint64_t k = 0; k < 65536; ++k) {
    cache.Insert(k, false, &evicted);
  }
  Rng rng(2);
  const auto start = Clock::now();
  for (uint64_t i = 0; i < touches; ++i) {
    cache.Touch(cache.LookupFast(rng.NextBounded(65536)));
  }
  return BenchRow{"lru_touch_fast", touches, SecondsSince(start)};
}

BenchRow BenchResourceAcquire(uint64_t acquires) {
  SimClock clock;
  Resource resource("bench", &clock);
  SimTime t = 0;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < acquires; ++i) {
    clock.now = t;
    resource.Acquire(t, 100);
    t += 150;  // leaves gaps, exercising the interval bookkeeping
  }
  return BenchRow{"resource_acquire", acquires, SecondsSince(start)};
}

void AddRow(Table* table, const BenchRow& row) {
  const double per_sec = row.seconds > 0 ? static_cast<double>(row.items) / row.seconds : 0;
  const double ns_each =
      row.items > 0 ? row.seconds * 1e9 / static_cast<double>(row.items) : 0;
  table->AddRow({row.name, Table::Cell(row.items), Table::Cell(row.seconds * 1e3, 2),
                 Table::Cell(per_sec, 0), Table::Cell(ns_each, 1)});
}

// Compares this run's items_per_sec against the committed baseline rows.
// Returns the number of rows that regressed beyond the tolerance.
int CompareAgainstBaseline(const Table& table, const std::string& path, double tolerance) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "micro_hotpath: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::optional<JsonValue> baseline = JsonValue::Parse(buffer.str());
  if (!baseline || baseline->type() != JsonValue::Type::kArray) {
    std::fprintf(stderr, "micro_hotpath: baseline %s is not a JSON row array\n",
                 path.c_str());
    return 1;
  }
  FlatHashMap<double> baseline_rates;  // keyed by hashed bench name
  std::vector<std::string> names;
  for (size_t i = 0; i < baseline->size(); ++i) {
    const JsonValue& row = baseline->at(i);
    const JsonValue* name = row.Get("bench");
    const JsonValue* rate = row.Get("items_per_sec");
    if (name != nullptr && rate != nullptr) {
      baseline_rates.Insert(HashString(name->AsString()), rate->AsDouble());
    }
  }
  const JsonValue current = TableToJson(table);
  int regressions = 0;
  for (size_t i = 0; i < current.size(); ++i) {
    const JsonValue& row = current.at(i);
    const std::string& bench = row.Get("bench")->AsString();
    const double rate = row.Get("items_per_sec")->AsDouble();
    const double* base = baseline_rates.Find(HashString(bench));
    if (base == nullptr || *base <= 0) {
      std::fprintf(stderr, "  %-18s %12.0f/s  (no baseline)\n", bench.c_str(), rate);
      continue;
    }
    const double ratio = rate / *base;
    const bool ok = ratio >= 1.0 - tolerance;
    std::fprintf(stderr, "  %-18s %12.0f/s  baseline %12.0f/s  %+6.1f%%  %s\n",
                 bench.c_str(), rate, *base, (ratio - 1.0) * 100.0,
                 ok ? "ok" : "REGRESSED");
    regressions += ok ? 0 : 1;
  }
  return regressions;
}

}  // namespace
}  // namespace flashsim

using namespace flashsim;

int main(int argc, char** argv) {
  BenchFlags flags;
  uint64_t events = 4000000;
  uint64_t ops = 150000;
  uint64_t micro_items = 2000000;
  uint64_t ingest_records = 1000000;
  std::string baseline;
  double tolerance = 0.20;
  double fastpath_gate = 0.0;
  flags.parser().AddUint64("events", "events per event-queue workload", &events);
  flags.parser().AddUint64("ops", "trace ops per simulation workload", &ops);
  flags.parser().AddUint64("micro-items", "iterations per component microbench",
                           &micro_items);
  flags.parser().AddUint64("ingest-records", "records per trace-ingestion workload",
                           &ingest_records);
  flags.parser().AddString("baseline", "baseline JSON to compare against", &baseline);
  flags.parser().AddDouble("tolerance", "allowed fractional regression", &tolerance);
  flags.parser().AddDouble("fastpath_gate",
                           "max fractional sim_fastpath_slru slowdown vs sim_fastpath "
                           "(0 = no gate)",
                           &fastpath_gate);
  const BenchOptions options = flags.ParseOrExit(argc, argv);

  Table table({"bench", "items", "wall_ms", "items_per_sec", "ns_per_item"});
  AddRow(&table, BenchTypedEvents(events));
  AddRow(&table, BenchCallbackEvents<EventQueue>("event_callback", events));
  AddRow(&table, BenchCallbackEvents<LegacyEventQueue>("event_legacy", events));
  for (Architecture arch : kAllArchitectures) {
    AddRow(&table, BenchSimulation(arch, ops));
  }
  AddRow(&table, BenchSimulationTelemetry(ops));
  const BenchRow fastpath_lru = BenchHotReadSimulation("sim_fastpath", true, ops * 4);
  AddRow(&table, fastpath_lru);
  AddRow(&table, BenchHotReadSimulation("sim_hot_eventpath", false, ops * 4));
  const BenchRow fastpath_slru = BenchHotReadSimulation("sim_fastpath_slru", true, ops * 4,
                                                        {}, ReplacementPolicy::kSlru);
  AddRow(&table, fastpath_slru);
  {
    obs::TelemetryConfig telemetry;
    telemetry.histograms = true;
    telemetry.sample_stride_ns = 10 * kMillisecond;
    AddRow(&table, BenchHotReadSimulation("sim_fastpath_telem", true, ops * 4, telemetry));
  }
  for (const BenchRow& row : BenchTraceIngestAll(ingest_records)) {
    AddRow(&table, row);
  }
  AddRow(&table, BenchFlatHashFind(micro_items));
  AddRow(&table, BenchLruTouch(micro_items));
  AddRow(&table, BenchLruTouchFast(micro_items));
  AddRow(&table, BenchResourceAcquire(micro_items));

  PrintTable(table, options);
  if (fastpath_gate > 0.0) {
    const double lru_rate = static_cast<double>(fastpath_lru.items) / fastpath_lru.seconds;
    const double slru_rate =
        static_cast<double>(fastpath_slru.items) / fastpath_slru.seconds;
    const double tax = 1.0 - slru_rate / lru_rate;
    std::fprintf(stderr, "fastpath plugin tax: slru %.0f/s vs lru %.0f/s  (%+.1f%%, gate %.0f%%)\n",
                 slru_rate, lru_rate, -tax * 100.0, fastpath_gate * 100.0);
    if (tax > fastpath_gate) {
      std::fprintf(stderr, "plugin indirection exceeded the fast-path gate\n");
      return 1;
    }
  }
  if (!baseline.empty()) {
    std::fprintf(stderr, "comparison against %s (tolerance %.0f%%):\n", baseline.c_str(),
                 tolerance * 100.0);
    const int regressions = CompareAgainstBaseline(table, baseline, tolerance);
    if (regressions > 0) {
      std::fprintf(stderr, "%d row(s) regressed beyond tolerance\n", regressions);
      return 1;
    }
  }
  return 0;
}
