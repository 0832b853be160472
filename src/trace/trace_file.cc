#include "src/trace/trace_file.h"

#include "src/trace/codec.h"
#include "src/util/assert.h"

namespace flashsim {

// The byte layout and validation live in src/trace/codec.h, shared with
// the reader in fast_source.cc.

std::unique_ptr<TraceFileWriter> TraceFileWriter::Create(const std::string& path,
                                                         TraceFormat format, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot create trace file: " + path;
    }
    return nullptr;
  }
  if (format == TraceFormat::kBinary) {
    std::fwrite(kTraceBinaryMagic, 1, kTraceBinaryMagicLen, file);
  } else {
    std::fputs("# fsim-text v1: <R|W> <host> <thread> <file> <block> <count> [w]\n", file);
  }
  return std::unique_ptr<TraceFileWriter>(new TraceFileWriter(file, format));
}

TraceFileWriter::TraceFileWriter(std::FILE* file, TraceFormat format)
    : file_(file), format_(format) {
  if (format_ == TraceFormat::kBinary) {
    buffer_ = std::make_unique_for_overwrite<unsigned char[]>(kBufferBytes);
  }
}

TraceFileWriter::~TraceFileWriter() { Close(); }

void TraceFileWriter::FlushBuffer() {
  if (buffered_ != 0 && std::fwrite(buffer_.get(), 1, buffered_, file_) != buffered_) {
    failed_ = true;
  }
  buffered_ = 0;
}

void TraceFileWriter::Write(const TraceRecord& record) {
  FLASHSIM_CHECK(file_ != nullptr);
  if (format_ == TraceFormat::kBinary) {
    if (buffered_ + kTraceBinaryRecordSize > kBufferBytes) {
      FlushBuffer();
    }
    EncodeTraceRecord(record, buffer_.get() + buffered_);
    buffered_ += kTraceBinaryRecordSize;
  } else {
    std::fprintf(file_, "%c %u %u %u %llu %u%s\n",
                 record.op == TraceOp::kWrite ? 'W' : 'R', record.host, record.thread,
                 record.file_id, static_cast<unsigned long long>(record.block),
                 record.block_count, record.warmup ? " w" : "");
  }
  ++records_written_;
}

bool TraceFileWriter::Close() {
  if (file_ == nullptr) {
    return !failed_;
  }
  FlushBuffer();
  const bool ok = std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  failed_ = failed_ || !ok || !closed;
  return !failed_;
}

}  // namespace flashsim
