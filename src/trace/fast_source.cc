#include "src/trace/fast_source.h"

#include <sys/stat.h>

#include <cstring>

#include "src/trace/codec.h"

namespace flashsim {

std::unique_ptr<TraceFileReader> OpenTraceSource(const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open trace file: " + path;
    }
    return nullptr;
  }
  std::unique_ptr<TraceFileReader> reader(new TraceFileReader(file));
  if (std::ferror(file)) {  // e.g. a directory: it opens, but reads fail
    if (error != nullptr) {
      *error = "cannot read trace file: " + path;
    }
    return nullptr;
  }
  return reader;
}

TraceFileReader::TraceFileReader(std::FILE* file) : file_(file), buf_(kBufferBytes) {
  // buf_ is the only buffer: stdio reads straight into it.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  Start();
  struct stat st;
  if (format_ == TraceFormat::kBinary && ::fstat(fileno(file_), &st) == 0 &&
      S_ISREG(st.st_mode)) {
    size_hint_ = (static_cast<uint64_t>(st.st_size) - kTraceBinaryMagicLen) /
                 kTraceBinaryRecordSize;
  }
}

TraceFileReader::~TraceFileReader() { std::fclose(file_); }

void TraceFileReader::Start() {
  pos_ = 0;
  len_ = 0;
  eof_ = false;
  Refill();
  if (len_ >= kTraceBinaryMagicLen &&
      std::memcmp(buf_.data(), kTraceBinaryMagic, kTraceBinaryMagicLen) == 0) {
    format_ = TraceFormat::kBinary;
    pos_ = kTraceBinaryMagicLen;
  } else {
    format_ = TraceFormat::kText;
  }
}

void TraceFileReader::Refill() {
  const size_t avail = len_ - pos_;
  if (avail > 0 && pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, avail);
  }
  pos_ = 0;
  len_ = avail;
  const size_t want = buf_.size() - len_;
  const size_t got = std::fread(buf_.data() + len_, 1, want, file_);
  len_ += got;
  // fread returns short only at end of input or on an error; stop either
  // way, as a stdio read loop does.
  eof_ = got < want;
}

bool TraceFileReader::Next(TraceRecord* record) {
  return format_ == TraceFormat::kBinary ? NextBinary(record) : NextText(record);
}

bool TraceFileReader::NextBinary(TraceRecord* record) {
  for (;;) {
    if (len_ - pos_ < kTraceBinaryRecordSize) {
      if (eof_) {
        return false;  // a trailing partial record is ignored
      }
      Refill();
      continue;
    }
    const auto* bytes = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
    pos_ += kTraceBinaryRecordSize;
    if (DecodeTraceRecord(bytes, record)) {
      ++records_read_;
      return true;
    }
    if (error_line_ == 0) {
      error_line_ = records_read_ + 1;
    }
  }
}

bool TraceFileReader::NextLine(char* line) {
  for (;;) {
    const size_t avail = len_ - pos_;
    const size_t cap = avail < 255 ? avail : 255;
    const char* base = buf_.data() + pos_;
    const void* nl = std::memchr(base, '\n', cap);
    if (nl != nullptr) {
      const size_t n = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
      std::memcpy(line, base, n);
      line[n] = '\0';
      pos_ += n;
      return true;
    }
    if (cap == 255) {
      // No newline in 255 bytes: fgets returns them as one chunk, and the
      // rest of the line comes back as the next "line".
      std::memcpy(line, base, 255);
      line[255] = '\0';
      pos_ += 255;
      return true;
    }
    if (eof_) {
      if (avail == 0) {
        return false;
      }
      std::memcpy(line, base, avail);
      line[avail] = '\0';
      pos_ = len_;
      return true;
    }
    Refill();
  }
}

bool TraceFileReader::NextText(TraceRecord* record) {
  char line[256];
  while (NextLine(line)) {
    ++line_;
    switch (ParseTraceTextLine(line, record)) {
      case TextLineResult::kSkip:
        continue;
      case TextLineResult::kMalformed:
        if (error_line_ == 0) {
          error_line_ = line_;
        }
        continue;  // tolerate malformed lines; report where the first was
      case TextLineResult::kRecord:
        ++records_read_;
        return true;
    }
  }
  return false;
}

void TraceFileReader::Rewind() {
  std::fseek(file_, 0, SEEK_SET);
  Start();
  records_read_ = 0;
  line_ = 0;
}

}  // namespace flashsim
