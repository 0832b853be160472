// The trace-file reader (DESIGN.md §13): the one front end that replays a
// trace file (either format of trace_file.h) into the simulator.
//
// OpenTraceSource opens the path once and reads it through one 1 MiB block
// buffer. The format is sniffed from the first bytes of that buffer, not by
// a second open, so a pipe, a FIFO or /dev/stdin replays exactly like the
// regular file it carries. Both formats decode through src/trace/codec.h:
//
//   text   — lines are cut from the buffer exactly as fgets(line, 256, f)
//            cuts them: a line longer than 255 bytes splits into 255-byte
//            chunks, each parsed on its own, so malformed lines skip and
//            error_line() reports exactly as a plain stdio loop would;
//   binary — 22-byte records decoded in place, a record split by a refill
//            carried over to the next block; a trailing partial record is
//            ignored. For a regular file SizeHint() is the exact record
//            count (from fstat), so the engine pre-sizes its backlogs.
//
// tests/trace_fuzz_test.cc holds the reader record for record to a
// longhand fgets/fread reference on mutated, truncated and adversarial
// inputs, through the file and through a pipe.
#ifndef FLASHSIM_SRC_TRACE_FAST_SOURCE_H_
#define FLASHSIM_SRC_TRACE_FAST_SOURCE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/record.h"
#include "src/trace/source.h"
#include "src/trace/trace_file.h"

namespace flashsim {

class TraceFileReader final : public TraceSource {
 public:
  // Block buffer size: one read per MiB of trace, and the most of the
  // trace held in memory at once.
  static constexpr size_t kBufferBytes = size_t{1} << 20;

  ~TraceFileReader() override;

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  bool Next(TraceRecord* record) override;
  // Restarts from the first record. Needs a seekable file: on a pipe the
  // seek fails and reading just goes on from where the stream is.
  void Rewind() override;
  // Binary regular files: the exact record count, valid and invalid (an
  // upper bound on what Next delivers). Text traces and pipes: 0, unknown.
  uint64_t SizeHint() const override { return size_hint_; }

  TraceFormat format() const { return format_; }
  // The first malformed record skipped so far, or 0 if none: its 1-based
  // line (text) or its 1-based record index (binary).
  uint64_t error_line() const { return error_line_; }

 private:
  friend std::unique_ptr<TraceFileReader> OpenTraceSource(const std::string& path,
                                                          std::string* error);

  explicit TraceFileReader(std::FILE* file);

  // Fills the buffer from the file's current position and sniffs the
  // format from its first bytes.
  void Start();
  // Moves the unread bytes to the front of the buffer and reads until it
  // is full or the input ends (eof_).
  void Refill();
  // fgets(line, 256, file) over the buffer: up to 255 bytes ending at a
  // newline (included) or at the cap, NUL-terminated. False at end of input.
  bool NextLine(char* line);
  bool NextText(TraceRecord* record);
  bool NextBinary(TraceRecord* record);

  std::FILE* file_;
  std::vector<char> buf_;
  size_t pos_ = 0;  // read cursor into buf_
  size_t len_ = 0;  // valid bytes in buf_
  bool eof_ = false;
  TraceFormat format_ = TraceFormat::kText;
  uint64_t size_hint_ = 0;
  uint64_t records_read_ = 0;  // valid records delivered since (re)start
  uint64_t line_ = 0;          // text lines consumed since (re)start
  uint64_t error_line_ = 0;
};

// Opens a trace file of either format. Returns nullptr and fills *error
// (may be null) if the path cannot be opened or read.
std::unique_ptr<TraceFileReader> OpenTraceSource(const std::string& path, std::string* error);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACE_FAST_SOURCE_H_
