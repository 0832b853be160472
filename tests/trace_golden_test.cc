// Golden-file regression for the Chrome trace exporter plus a schema sanity
// check. A tiny fixed trace (deterministic: no rng-dependent paths, fixed
// thread interleaving) runs with every collector armed; the exported
// trace_event JSON must match tests/golden/trace_small.json byte for byte,
// and — independently of the golden bytes — every "X" span must nest
// cleanly within its (pid, tid) track: spans on one track never partially
// overlap, which is what makes each track read as a clean timeline in
// chrome://tracing / Perfetto.
//
// To regenerate after an intentional exporter or timing change, run
//   build/tests/trace_golden_test --gtest_also_run_disabled_tests
// with --gtest_filter='*RegenerateGolden*'; it rewrites
// tests/golden/trace_small.json in the source tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/simulation.h"
#include "src/obs/telemetry.h"
#include "src/sim/sim_time.h"
#include "src/util/json.h"

namespace flashsim {
namespace {

SimConfig GoldenConfig() {
  SimConfig config;
  config.ram_bytes = 8 * 4096;
  config.flash_bytes = 32 * 4096;
  config.num_hosts = 2;
  config.threads_per_host = 2;
  config.timing.filer_fast_read_rate = 1.0;  // deterministic
  config.telemetry.histograms = true;
  config.telemetry.spans = true;
  config.telemetry.sample_stride_ns = kMillisecond;
  return config;
}

TraceRecord Op(TraceOp op, uint16_t host, uint16_t thread, uint32_t file, uint64_t block) {
  TraceRecord r;
  r.op = op;
  r.host = host;
  r.thread = thread;
  r.file_id = file;
  r.block = block;
  r.block_count = 1;
  return r;
}

// A fixed mix exercising every track: misses (filer + network + flash
// admit), re-reads (RAM hits), writes (dirty + writeback), on two hosts
// with two threads each. Long enough that the 1 ms sampler fires.
std::vector<TraceRecord> GoldenTrace() {
  std::vector<TraceRecord> ops;
  for (uint64_t round = 0; round < 10; ++round) {
    for (uint16_t host = 0; host < 2; ++host) {
      for (uint16_t thread = 0; thread < 2; ++thread) {
        const uint64_t block = round * 2 + thread;
        ops.push_back(Op(TraceOp::kRead, host, thread, 1, block));
        if (round % 3 == 2) {
          ops.push_back(Op(TraceOp::kWrite, host, thread, 2, block));
        }
        if (round % 2 == 1) {
          ops.push_back(Op(TraceOp::kRead, host, thread, 1, block));  // RAM hit
        }
      }
    }
  }
  return ops;
}

std::string ExportGoldenRun() {
  Simulation sim(GoldenConfig());
  VectorTraceSource source(GoldenTrace());
  sim.Run(source);
  auto telemetry = sim.TakeTelemetry();
  std::ostringstream out;
  telemetry->WriteChromeTrace(out);
  return out.str();
}

std::string GoldenPath() {
  return std::string(FLASHSIM_SOURCE_DIR) + "/tests/golden/trace_small.json";
}

TEST(TraceGolden, ExportMatchesCommittedBytes) {
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath()
                         << " — regenerate via the RegenerateGolden test";
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string exported = ExportGoldenRun();
  EXPECT_EQ(exported, golden.str())
      << "trace export changed — if intentional, regenerate via the "
      << "RegenerateGolden test (see file header)";
}

TEST(TraceGolden, EveryGoldenRunIsByteIdentical) {
  EXPECT_EQ(ExportGoldenRun(), ExportGoldenRun());
}

TEST(TraceGolden, SpansNestWithinTheirTracks) {
  const std::string exported = ExportGoldenRun();
  const auto doc = JsonValue::Parse(exported);
  ASSERT_TRUE(doc.has_value()) << "export is not valid JSON";
  const JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);

  struct Span {
    int64_t start;
    int64_t end;
  };
  // Timestamps are microseconds with exactly three decimals; convert to
  // integer nanoseconds so touching spans compare exactly (double `ts +
  // dur` arithmetic would manufacture sub-nanosecond overlaps).
  const auto to_ns = [](const JsonValue& v) {
    return static_cast<int64_t>(std::llround(v.AsDouble() * 1000.0));
  };
  std::map<std::pair<int64_t, int64_t>, std::vector<Span>> tracks;
  size_t span_events = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    const JsonValue* phase = event.Get("ph");
    ASSERT_NE(phase, nullptr);
    if (phase->AsString() != "X") {
      continue;
    }
    ++span_events;
    const int64_t ts = to_ns(*event.Get("ts"));
    const int64_t dur = to_ns(*event.Get("dur"));
    ASSERT_GE(dur, 0);
    tracks[{event.Get("pid")->AsInt(), event.Get("tid")->AsInt()}].push_back(
        Span{ts, ts + dur});
  }
  ASSERT_GT(span_events, 0u);

  for (auto& [key, spans] : tracks) {
    // Sort by start; wider span first on ties so a parent precedes the
    // children it encloses.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    // Stack-based nesting check: each span either starts at/after every
    // still-open span's end, or lies entirely inside the innermost one.
    std::vector<int64_t> open_ends;
    for (const Span& span : spans) {
      while (!open_ends.empty() && open_ends.back() <= span.start) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(span.end, open_ends.back())
            << "partial overlap on track pid=" << key.first << " tid=" << key.second
            << " (span " << span.start << ".." << span.end << ")";
      }
      open_ends.push_back(span.end);
    }
  }
}

TEST(TraceGolden, MetadataNamesEveryTrack) {
  // Every (pid, tid) that carries spans must have thread_name metadata and
  // every pid a process_name — otherwise the viewer shows bare numbers.
  const auto doc = JsonValue::Parse(ExportGoldenRun());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<int64_t> named_pids;
  std::vector<std::pair<int64_t, int64_t>> named_tracks;
  std::vector<std::pair<int64_t, int64_t>> span_tracks;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    const std::string& phase = event.Get("ph")->AsString();
    if (phase == "M") {
      const std::string& name = event.Get("name")->AsString();
      if (name == "process_name") {
        named_pids.push_back(event.Get("pid")->AsInt());
      } else if (name == "thread_name") {
        named_tracks.push_back({event.Get("pid")->AsInt(), event.Get("tid")->AsInt()});
      }
    } else if (phase == "X") {
      span_tracks.push_back({event.Get("pid")->AsInt(), event.Get("tid")->AsInt()});
    }
  }
  for (const auto& track : span_tracks) {
    EXPECT_NE(std::find(named_tracks.begin(), named_tracks.end(), track),
              named_tracks.end())
        << "unnamed track pid=" << track.first << " tid=" << track.second;
    EXPECT_NE(std::find(named_pids.begin(), named_pids.end(), track.first),
              named_pids.end())
        << "unnamed process pid=" << track.first;
  }
}

// Regeneration helper, skipped in normal runs: rewrites the committed
// fixture from the current exporter.
TEST(TraceGolden, DISABLED_RegenerateGolden) {
  std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
  out << ExportGoldenRun();
}

}  // namespace
}  // namespace flashsim
