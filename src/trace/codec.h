// The on-disk trace record codec, shared by the writer (trace_file.cc),
// the reader (fast_source.cc) and the tests' longhand reference reader.
// One definition of the byte layout and the validation rules means a
// record decodes, or is rejected, identically everywhere — the property
// tests/trace_fuzz_test.cc checks record for record.
//
//   Text ("fsim-text v1"): one record per line,
//     <R|W> <host> <thread> <file> <block> <count> [w]
//   with '#' comments and blank lines ignored; trailing "w" marks warmup.
//
//   Binary ("FSIMB1\n" magic): packed little-endian records, 22 bytes each:
//     [0] op (0=read, 1=write)   [1] warmup flag
//     [2..3] host                [4..5] thread
//     [6..9] file_id             [10..17] block
//     [18..21] block_count
#ifndef FLASHSIM_SRC_TRACE_CODEC_H_
#define FLASHSIM_SRC_TRACE_CODEC_H_

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/trace/record.h"

namespace flashsim {

inline constexpr char kTraceBinaryMagic[] = "FSIMB1\n";
inline constexpr size_t kTraceBinaryMagicLen = sizeof(kTraceBinaryMagic) - 1;
inline constexpr size_t kTraceBinaryRecordSize = 22;

inline void EncodeTraceRecord(const TraceRecord& r, unsigned char out[kTraceBinaryRecordSize]) {
  out[0] = static_cast<unsigned char>(r.op);
  out[1] = r.warmup ? 1 : 0;
  out[2] = static_cast<unsigned char>(r.host & 0xff);
  out[3] = static_cast<unsigned char>(r.host >> 8);
  out[4] = static_cast<unsigned char>(r.thread & 0xff);
  out[5] = static_cast<unsigned char>(r.thread >> 8);
  for (int i = 0; i < 4; ++i) {
    out[6 + i] = static_cast<unsigned char>((r.file_id >> (8 * i)) & 0xff);
  }
  for (int i = 0; i < 8; ++i) {
    out[10 + i] = static_cast<unsigned char>((r.block >> (8 * i)) & 0xff);
  }
  for (int i = 0; i < 4; ++i) {
    out[18 + i] = static_cast<unsigned char>((r.block_count >> (8 * i)) & 0xff);
  }
}

// Rejects records whose fields fall outside the ranges MakeBlockKey packs
// into a key; a corrupt or truncated-then-resynced byte stream otherwise
// produces keys that alias other files' blocks.
inline bool DecodeTraceRecord(const unsigned char in[kTraceBinaryRecordSize], TraceRecord* r) {
  if (in[0] > 1) {
    return false;
  }
  r->op = static_cast<TraceOp>(in[0]);
  r->warmup = in[1] != 0;
  r->host = static_cast<uint16_t>(in[2] | (in[3] << 8));
  r->thread = static_cast<uint16_t>(in[4] | (in[5] << 8));
  r->file_id = 0;
  for (int i = 3; i >= 0; --i) {
    r->file_id = (r->file_id << 8) | in[6 + i];
  }
  r->block = 0;
  for (int i = 7; i >= 0; --i) {
    r->block = (r->block << 8) | in[10 + i];
  }
  r->block_count = 0;
  for (int i = 3; i >= 0; --i) {
    r->block_count = (r->block_count << 8) | in[18 + i];
  }
  return r->block_count > 0 && r->file_id <= kMaxFileId && r->block <= kMaxBlockInFile &&
         r->block + r->block_count - 1 <= kMaxBlockInFile;
}

enum class TextLineResult {
  kSkip,       // blank line or comment
  kRecord,     // *record filled
  kMalformed,  // counts against error_line reporting, then skipped
};

// Parses one text-format line (as delivered by an fgets-style read: at most
// 255 chars plus NUL, newline included when it fit).
inline TextLineResult ParseTraceTextLine(const char* line, TraceRecord* record) {
  const char* p = line;
  while (*p == ' ' || *p == '\t') {
    ++p;
  }
  if (*p == '\0' || *p == '\n' || *p == '#') {
    return TextLineResult::kSkip;
  }
  char op_char = 0;
  unsigned long long host = 0;
  unsigned long long thread = 0;
  unsigned long long file_id = 0;
  unsigned long long block = 0;
  unsigned long long count = 0;
  char warm[8] = {0};
  const int n = std::sscanf(p, " %c %llu %llu %llu %llu %llu %7s", &op_char, &host, &thread,
                            &file_id, &block, &count, warm);
  const bool op_ok = op_char == 'R' || op_char == 'W' || op_char == 'r' || op_char == 'w';
  if (n < 6 || !op_ok || count == 0 || count > 0xffffffffULL || host > 0xffff ||
      thread > 0xffff || file_id > kMaxFileId || block > kMaxBlockInFile ||
      block + count - 1 > kMaxBlockInFile) {
    return TextLineResult::kMalformed;
  }
  record->op = (op_char == 'W' || op_char == 'w') ? TraceOp::kWrite : TraceOp::kRead;
  record->host = static_cast<uint16_t>(host);
  record->thread = static_cast<uint16_t>(thread);
  record->file_id = static_cast<uint32_t>(file_id);
  record->block = block;
  record->block_count = static_cast<uint32_t>(count);
  record->warmup = n == 7 && warm[0] == 'w';
  return TextLineResult::kRecord;
}

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACE_CODEC_H_
