// Trace file formats and the writer (the reader is OpenTraceSource in
// src/trace/fast_source.h). Two formats:
//
//   Text ("fsim-text v1"): one record per line,
//     <R|W> <host> <thread> <file> <block> <count> [w]
//   with '#' comments and blank lines ignored; the trailing "w" marks warmup
//   records. Easy to write converters for SNIA/Mercury-style traces.
//
//   Binary ("FSIMB1\n" magic): packed little-endian records, 22 bytes each —
//   compact enough to store multi-hundred-million-record traces.
#ifndef FLASHSIM_SRC_TRACE_TRACE_FILE_H_
#define FLASHSIM_SRC_TRACE_TRACE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "src/trace/record.h"

namespace flashsim {

enum class TraceFormat {
  kText,
  kBinary,
};

// Writes records to a trace file in the chosen format. Binary records are
// encoded into a kBufferBytes block that goes to the file in one write when
// full, in Close(), and in the destructor; text lines go through stdio.
class TraceFileWriter {
 public:
  static constexpr size_t kBufferBytes = 64 * 1024;

  static std::unique_ptr<TraceFileWriter> Create(const std::string& path, TraceFormat format,
                                                 std::string* error);

  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void Write(const TraceRecord& record);
  // Flushes and closes; returns false on any I/O error since Create.
  bool Close();

  uint64_t records_written() const { return records_written_; }

 private:
  TraceFileWriter(std::FILE* file, TraceFormat format);

  // Writes the buffered binary records (none in text mode); a short write
  // latches failed_.
  void FlushBuffer();

  std::FILE* file_ = nullptr;
  TraceFormat format_ = TraceFormat::kText;
  std::unique_ptr<unsigned char[]> buffer_;  // binary only, kBufferBytes
  size_t buffered_ = 0;
  bool failed_ = false;
  uint64_t records_written_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACE_TRACE_FILE_H_
