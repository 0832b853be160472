#include "src/harness/harness.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/util/units.h"

namespace flashsim {
namespace {

ExperimentParams SmallParams() {
  // Paper geometry at 1/4096 scale: fast enough to run many points in a
  // unit test while still exercising the full simulation pipeline.
  ExperimentParams params;
  params.scale = 4096;
  params.working_set_gib = 60.0;
  params.filer_tib = 0.25;  // keep the memoized FsModel small
  params.seed = 7;
  return params;
}

// --- Sweep ---------------------------------------------------------------

TEST(Sweep, TwoAxesExpandInDeterministicNestedLoopOrder) {
  Sweep sweep(SmallParams());
  sweep.AddAxis("outer", {{"a", [](ExperimentParams& p) { p.ram_gib = 1.0; }},
                          {"b", [](ExperimentParams& p) { p.ram_gib = 2.0; }}});
  sweep.AddAxis("inner", {{"x", [](ExperimentParams& p) { p.flash_gib = 16.0; }},
                          {"y", [](ExperimentParams& p) { p.flash_gib = 32.0; }},
                          {"z", [](ExperimentParams& p) { p.flash_gib = 64.0; }}});
  ASSERT_EQ(sweep.size(), 6u);

  const std::vector<SweepPoint> points = sweep.Expand();
  ASSERT_EQ(points.size(), 6u);
  // First axis added is outermost (varies slowest), matching the old
  // hand-rolled nested loops.
  const std::vector<std::vector<std::string>> want_labels = {
      {"a", "x"}, {"a", "y"}, {"a", "z"}, {"b", "x"}, {"b", "y"}, {"b", "z"}};
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].labels, want_labels[i]) << "point " << i;
  }
  // Mutators applied: point 4 is ram=b (2 GiB), flash=y (32 GiB).
  EXPECT_DOUBLE_EQ(points[4].params.ram_gib, 2.0);
  EXPECT_DOUBLE_EQ(points[4].params.flash_gib, 32.0);
  // Base params flow through untouched fields.
  EXPECT_EQ(points[4].params.scale, 4096u);

  // Expansion is a pure function of the sweep description.
  const std::vector<SweepPoint> again = sweep.Expand();
  ASSERT_EQ(again.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(again[i].labels, points[i].labels);
  }
}

TEST(Sweep, AppendedPointsRunAfterTheGrid) {
  Sweep sweep(SmallParams());
  sweep.AddAxis("ws", {{"30", [](ExperimentParams& p) { p.working_set_gib = 30.0; }},
                       {"60", [](ExperimentParams& p) { p.working_set_gib = 60.0; }}});
  ExperimentParams baseline = SmallParams();
  baseline.flash_gib = 0.0;
  sweep.AppendPoint({"60", "no_flash"}, baseline);

  const std::vector<SweepPoint> points = sweep.Expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].index, 2u);
  EXPECT_EQ(points[2].label(1), "no_flash");
  EXPECT_DOUBLE_EQ(points[2].params.flash_gib, 0.0);
  // label() is total: out-of-range axes read as empty.
  EXPECT_EQ(points[2].label(5), "");
}

// --- ParallelRunner ------------------------------------------------------

Sweep SmallGrid() {
  Sweep sweep(SmallParams());
  std::vector<Sweep::AxisValue> arch_axis;
  for (Architecture arch : kAllArchitectures) {
    arch_axis.push_back(
        {ArchitectureName(arch), [arch](ExperimentParams& p) { p.arch = arch; }});
  }
  sweep.AddAxis("arch", std::move(arch_axis));
  sweep.AddAxis("ws", {{"30", [](ExperimentParams& p) { p.working_set_gib = 30.0; }},
                       {"60", [](ExperimentParams& p) { p.working_set_gib = 60.0; }}});
  return sweep;
}

TEST(ParallelRunner, FourJobsMatchSerialExactly) {
  const Sweep sweep = SmallGrid();
  const std::vector<ExperimentResult> serial = ParallelRunner(1).Run(sweep);
  const std::vector<ExperimentResult> parallel = ParallelRunner(4).Run(sweep);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Full-fidelity comparison: every counter, accumulator, and histogram
    // bucket, via the JSON snapshot (wall_seconds is deliberately not part
    // of the snapshot — it is the one nondeterministic field).
    EXPECT_EQ(MetricsToJson(parallel[i].metrics).Dump(),
              MetricsToJson(serial[i].metrics).Dump())
        << "point " << i << " diverged under --jobs=4";
  }
}

TEST(ParallelRunner, RunOrderedEmitsInSweepOrder) {
  const Sweep sweep = SmallGrid();
  std::vector<size_t> emitted;
  ParallelRunner(4).RunOrdered(
      sweep.Expand(),
      [](const SweepPoint& point) { return RunExperiment(point.params); },
      [&emitted](const SweepPoint& point, const ExperimentResult&) {
        emitted.push_back(point.index);
      });
  const std::vector<size_t> want = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(emitted, want);
}

TEST(ParallelRunner, MoreJobsThanPointsIsFine) {
  Sweep sweep(SmallParams());
  sweep.AppendPoint({"only"}, SmallParams());
  const std::vector<ExperimentResult> results = ParallelRunner(16).Run(sweep);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].metrics.measured_read_blocks, 0u);
}

// --- JSON sink -----------------------------------------------------------

TEST(Sinks, TableToJsonTypesCells) {
  Table table({"name", "count", "ratio"});
  table.AddRow({"alpha", Table::Cell(static_cast<uint64_t>(42)), Table::Cell(0.25, 2)});
  const JsonValue rows = TableToJson(table);
  ASSERT_EQ(rows.size(), 1u);
  const JsonValue& row = rows.at(0);
  EXPECT_EQ(row.Get("name")->AsString(), "alpha");
  EXPECT_EQ(row.Get("count")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(row.Get("ratio")->AsDouble(), 0.25);
}

TEST(Sinks, TableToJsonKeepsNonFiniteLookingCellsAsStrings) {
  // strtod parses "nan"/"inf"/"infinity" as doubles, but JSON has no
  // representation for them — such cells must stay strings, not turn into
  // an unparseable bare `nan` token.
  Table table({"a", "b", "c", "d"});
  table.AddRow({"nan", "inf", "-inf", "infinity"});
  const JsonValue rows = TableToJson(table);
  ASSERT_EQ(rows.size(), 1u);
  const JsonValue& row = rows.at(0);
  EXPECT_EQ(row.Get("a")->AsString(), "nan");
  EXPECT_EQ(row.Get("b")->AsString(), "inf");
  EXPECT_EQ(row.Get("c")->AsString(), "-inf");
  EXPECT_EQ(row.Get("d")->AsString(), "infinity");
  // The emitted document parses back.
  EXPECT_TRUE(JsonValue::Parse(rows.Dump()).has_value());
}

TEST(Sinks, JsonStringsEscapeQuotesAndControlCharacters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("label", "say \"hi\",\n\ttab");
  const std::string dumped = obj.Dump();
  const auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Get("label")->AsString(), "say \"hi\",\n\ttab");
}

TEST(Sinks, ParseOutputFormatAcceptsAliases) {
  EXPECT_EQ(ParseOutputFormat("table"), OutputFormat::kAligned);
  EXPECT_EQ(ParseOutputFormat("aligned"), OutputFormat::kAligned);
  EXPECT_EQ(ParseOutputFormat("csv"), OutputFormat::kCsv);
  EXPECT_EQ(ParseOutputFormat("json"), OutputFormat::kJson);
  EXPECT_FALSE(ParseOutputFormat("xml").has_value());
}

// --- JsonValue -----------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("int", static_cast<int64_t>(-3));
  obj.Set("big", static_cast<uint64_t>(1) << 53);
  obj.Set("pi", 3.141592653589793);
  obj.Set("text", "line\n\"quoted\"");
  obj.Set("flag", true);
  obj.Set("nothing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append(2.5);
  arr.Append("three");
  obj.Set("list", std::move(arr));

  for (int indent : {-1, 2}) {
    const std::optional<JsonValue> parsed = JsonValue::Parse(obj.Dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
    EXPECT_EQ(parsed->Dump(), obj.Dump()) << "indent " << indent;
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
}

// --- FlagParser ----------------------------------------------------------

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return argv;
}

TEST(FlagParser, ParsesRegisteredFlags) {
  uint64_t scale = 128;
  int jobs = 0;
  bool csv = false;
  double ws = 60.0;
  std::string out;
  FlagParser parser;
  parser.AddUint64("scale", "divisor", &scale);
  parser.AddInt("jobs", "threads", &jobs);
  parser.AddBool("csv", "csv output", &csv);
  parser.AddDouble("ws", "working set", &ws);
  parser.AddString("out", "format", &out);

  std::vector<std::string> args = {"bench", "--scale=512", "--jobs=4", "--csv",
                                   "--ws=7.5", "--out=json"};
  std::vector<char*> argv = Argv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(scale, 512u);
  EXPECT_EQ(jobs, 4);
  EXPECT_TRUE(csv);
  EXPECT_DOUBLE_EQ(ws, 7.5);
  EXPECT_EQ(out, "json");
}

TEST(FlagParser, UnknownFlagFailsParse) {
  int jobs = 0;
  FlagParser parser;
  parser.AddInt("jobs", "threads", &jobs);
  std::vector<std::string> args = {"bench", "--bogus=1"};
  std::vector<char*> argv = Argv(args);
  EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagParser, MalformedValueFailsParse) {
  int jobs = 0;
  FlagParser parser;
  parser.AddInt("jobs", "threads", &jobs);
  {
    std::vector<std::string> args = {"bench", "--jobs=abc"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    // A value flag used as a bare switch is malformed too.
    std::vector<std::string> args = {"bench", "--jobs"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
}

// Parses one "--name=value" argument.
bool ParseOne(FlagParser& parser, std::string arg) {
  std::vector<std::string> args = {"bench", std::move(arg)};
  std::vector<char*> argv = Argv(args);
  return parser.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParser, IntTakesSignedValuesOnlyWithinIntRange) {
  int hosts = 1;
  FlagParser parser;
  parser.AddInt("hosts", "hosts", &hosts);
  EXPECT_TRUE(ParseOne(parser, "--hosts=-1"));  // left for Violations() to refuse
  EXPECT_EQ(hosts, -1);
  EXPECT_TRUE(ParseOne(parser, "--hosts=2147483647"));
  EXPECT_EQ(hosts, INT_MAX);
  EXPECT_TRUE(ParseOne(parser, "--hosts=-2147483648"));
  EXPECT_EQ(hosts, INT_MIN);
  hosts = 7;
  // Parsed wide and cast to int, 2^32 + 2 would wrap to 2.
  for (const char* arg : {"--hosts=4294967298", "--hosts=2147483648", "--hosts=-2147483649",
                          "--hosts=99999999999999999999"}) {
    EXPECT_FALSE(ParseOne(parser, arg)) << arg;
  }
  EXPECT_EQ(hosts, 7);
}

TEST(FlagParser, Uint64RejectsASign) {
  uint64_t scale = 128;
  FlagParser parser;
  parser.AddUint64("scale", "divisor", &scale);
  // strtoull alone reads "-1" as 2^64 - 1.
  for (const char* arg : {"--scale=-1", "--scale=-0", "--scale=+5"}) {
    EXPECT_FALSE(ParseOne(parser, arg)) << arg;
  }
  EXPECT_EQ(scale, 128u);
}

TEST(FlagParser, Uint64RejectsOutOfRangeValues) {
  uint64_t seed = 1;
  FlagParser parser;
  parser.AddUint64("seed", "seed", &seed);
  EXPECT_TRUE(ParseOne(parser, "--seed=18446744073709551615"));
  EXPECT_EQ(seed, UINT64_MAX);
  seed = 1;
  // strtoull alone saturates these to 2^64 - 1.
  EXPECT_FALSE(ParseOne(parser, "--seed=18446744073709551616"));
  EXPECT_FALSE(ParseOne(parser, "--seed=99999999999999999999999"));
  EXPECT_EQ(seed, 1u);
}

TEST(FlagParser, DurationRefusesNonFiniteAndOutOfRangeValues) {
  int64_t read_ns = 5;
  int64_t stride_ns = 5;
  FlagParser parser;
  parser.AddDuration("flash-read-us", "us", kMicrosecond, /*whole_units=*/false, &read_ns);
  parser.AddDuration("sample_stride", "ms", kMillisecond, /*whole_units=*/true, &stride_ns);
  for (const char* arg : {"--flash-read-us=1e20", "--flash-read-us=-1e20", "--flash-read-us=inf",
                          "--flash-read-us=nan", "--sample_stride=1e13",
                          "--sample_stride=-1e13", "--sample_stride=9223372036855",
                          "--sample_stride=inf"}) {
    EXPECT_FALSE(ParseOne(parser, arg)) << arg;
  }
  EXPECT_EQ(read_ns, 5);
  EXPECT_EQ(stride_ns, 5);
}

TEST(FlagParser, DurationTruncatesInRangeValues) {
  int64_t read_ns = 0;
  int64_t stride_ns = 0;
  FlagParser parser;
  parser.AddDuration("flash-read-us", "us", kMicrosecond, /*whole_units=*/false, &read_ns);
  parser.AddDuration("sample_stride", "ms", kMillisecond, /*whole_units=*/true, &stride_ns);
  // Microsecond flags truncate the nanosecond product...
  EXPECT_TRUE(ParseOne(parser, "--flash-read-us=25.0009"));
  EXPECT_EQ(read_ns, 25000);
  EXPECT_TRUE(ParseOne(parser, "--flash-read-us=0.0015"));
  EXPECT_EQ(read_ns, 1);
  EXPECT_TRUE(ParseOne(parser, "--flash-read-us=-1"));  // left for Violations() to refuse
  EXPECT_EQ(read_ns, -1000);
  // ...millisecond flags truncate to whole milliseconds first.
  EXPECT_TRUE(ParseOne(parser, "--sample_stride=1.9"));
  EXPECT_EQ(stride_ns, kMillisecond);
  EXPECT_TRUE(ParseOne(parser, "--sample_stride=9223372036854"));
  EXPECT_EQ(stride_ns, 9223372036854 * kMillisecond);
}

TEST(FlagParser, CustomHandlerRejectionFailsParse) {
  FlagParser parser;
  parser.AddCustom("arch", "naive|unified", "architecture",
                   [](const std::string& value) { return value == "naive"; });
  {
    std::vector<std::string> args = {"bench", "--arch=naive"};
    std::vector<char*> argv = Argv(args);
    EXPECT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    std::vector<std::string> args = {"bench", "--arch=sideways"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
}

}  // namespace
}  // namespace flashsim
