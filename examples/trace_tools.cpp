// Trace tooling: generate a synthetic trace to a file, read it back, print
// its statistics, and replay it through the simulator. Demonstrates the
// trace file formats (text and binary) that imported real-world traces
// (SNIA-style conversions) also use.
//
//   trace_tools generate <path> [--binary] [--ws-mib=N] [--write-pct=N]
//   trace_tools convert <csv> <out> [--binary]      (SNIA/MSR block CSV)
//   trace_tools stats <path>
//   trace_tools replay <path>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/simulation.h"
#include "src/trace/csv_import.h"
#include "src/tracegen/generator.h"
#include "src/trace/fast_source.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_stats.h"

using namespace flashsim;

namespace {

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s generate <path> [--binary] [--ws-mib=N] [--write-pct=N]\n"
               "  %s convert <csv> <out> [--binary]\n"
               "  %s stats <path>\n"
               "  %s replay <path>\n",
               prog, prog, prog, prog);
  return 1;
}

int Convert(const std::string& csv_path, const std::string& out_path, bool binary) {
  std::vector<TraceRecord> records;
  const CsvImportResult imported = ImportBlockCsv(csv_path, CsvImportOptions{}, &records);
  if (!imported.ok()) {
    std::fprintf(stderr, "%s\n", imported.error.c_str());
    return 1;
  }
  std::string error;
  auto writer = TraceFileWriter::Create(out_path, binary ? TraceFormat::kBinary : TraceFormat::kText,
                                        &error);
  if (writer == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  for (const TraceRecord& record : records) {
    writer->Write(record);
  }
  if (!writer->Close()) {
    std::fprintf(stderr, "I/O error writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("converted %llu records (%llu skipped) from %s to %s\n",
              static_cast<unsigned long long>(imported.imported),
              static_cast<unsigned long long>(imported.skipped), csv_path.c_str(),
              out_path.c_str());
  if (imported.first_bad_line != 0) {
    std::printf("note: first malformed line was %llu\n",
                static_cast<unsigned long long>(imported.first_bad_line));
  }
  return 0;
}

int Generate(const std::string& path, int argc, char** argv) {
  TraceFormat format = TraceFormat::kText;
  uint64_t ws_mib = 64;
  double write_pct = 30.0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--binary") == 0) {
      format = TraceFormat::kBinary;
    } else if (std::strncmp(argv[i], "--ws-mib=", 9) == 0) {
      ws_mib = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--write-pct=", 12) == 0) {
      write_pct = std::strtod(argv[i] + 12, nullptr);
    }
  }

  FsModelParams fs_params;
  fs_params.total_bytes = 16 * ws_mib * kMiB;  // filer 16x the working set
  const FsModel fs(fs_params, /*seed=*/7);
  SyntheticTraceSpec spec;
  spec.working_set_bytes = ws_mib * kMiB;
  spec.write_fraction = write_pct / 100.0;
  SyntheticTraceSource source(fs, spec);

  std::string error;
  auto writer = TraceFileWriter::Create(path, format, &error);
  if (writer == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  TraceRecord record;
  while (source.Next(&record)) {
    writer->Write(record);
  }
  const uint64_t written = writer->records_written();
  if (!writer->Close()) {
    std::fprintf(stderr, "I/O error writing %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %llu records (%s) to %s\n", static_cast<unsigned long long>(written),
              format == TraceFormat::kBinary ? "binary" : "text", path.c_str());
  return 0;
}

int Stats(const std::string& path) {
  std::string error;
  auto source = OpenTraceSource(path, &error);
  if (source == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  TraceStats stats;
  stats.AddAll(*source);
  std::printf("%s\n", stats.Summary().c_str());
  std::printf("io size: mean %.2f blocks, max %.0f blocks\n", stats.io_size_blocks().mean(),
              stats.io_size_blocks().max());
  if (source->error_line() != 0) {
    std::printf("note: first malformed record at %s %llu was skipped\n",
                source->format() == TraceFormat::kBinary ? "record" : "line",
                static_cast<unsigned long long>(source->error_line()));
  }
  return 0;
}

int Replay(const std::string& path) {
  std::string error;
  auto source = OpenTraceSource(path, &error);
  if (source == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // A modest host: 8 MiB RAM cache, 64 MiB flash, paper timings.
  SimConfig config;
  config.ram_bytes = 8 * kMiB;
  config.flash_bytes = 64 * kMiB;
  Simulation sim(config);
  const Metrics m = sim.Run(*source);
  std::printf("replayed %llu operations in %.3f simulated seconds\n",
              static_cast<unsigned long long>(m.trace_records),
              static_cast<double>(m.end_time) / 1e9);
  std::printf("  %s\n", m.Summary().c_str());
  std::printf("  reads : %s\n", m.read_latency.Summary().c_str());
  std::printf("  writes: %s\n", m.write_latency.Summary().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage(argv[0]);
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  if (command == "generate") {
    return Generate(path, argc, argv);
  }
  if (command == "convert") {
    if (argc < 4) {
      return Usage(argv[0]);
    }
    const bool binary = argc > 4 && std::strcmp(argv[4], "--binary") == 0;
    return Convert(path, argv[3], binary);
  }
  if (command == "stats") {
    return Stats(path);
  }
  if (command == "replay") {
    return Replay(path);
  }
  return Usage(argv[0]);
}
