// Deterministic fuzz of the trace import surfaces: the trace file reader
// (both formats) and the CSV block-trace importer. Inputs are valid streams
// mutated with truncation, duplication (repeated headers included), bit
// flips, and adversarial numeric fields. The properties checked:
//
//   - no crash, hang, or sanitizer report on any input;
//   - every record that does come back is in range (MakeBlockKey's
//     contract: file_id <= kMaxFileId, block + count - 1 <= kMaxBlockInFile,
//     count >= 1) — malformed rows are skipped and reported via
//     error_line()/skipped, never half-parsed into aliasing keys;
//   - well-formed prefixes of truncated files still parse;
//   - the block-buffered reader delivers exactly what a longhand stdio
//     loop (ReferenceReader below) delivers, records and error_line alike,
//     including where a line or a record straddles a buffer refill.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/trace/codec.h"
#include "src/trace/csv_import.h"
#include "src/trace/fast_source.h"
#include "src/trace/trace_file.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

// The longhand reference: the simulator's original streaming reader, one
// fgets(line, 256, f) per text line or one fread of a 22-byte record per
// binary record, through the shared codec. A short final fread (a partial
// tail) ends the stream.
class ReferenceReader {
 public:
  explicit ReferenceReader(const std::string& path) : file_(std::fopen(path.c_str(), "rb")) {
    EXPECT_NE(file_, nullptr) << path;
    char magic[kTraceBinaryMagicLen];
    binary_ = std::fread(magic, 1, sizeof(magic), file_) == sizeof(magic) &&
              std::memcmp(magic, kTraceBinaryMagic, sizeof(magic)) == 0;
    if (!binary_) {
      std::rewind(file_);
    }
  }
  ~ReferenceReader() { std::fclose(file_); }

  ReferenceReader(const ReferenceReader&) = delete;
  ReferenceReader& operator=(const ReferenceReader&) = delete;

  bool Next(TraceRecord* record) {
    const bool ok = binary_ ? NextBinary(record) : NextText(record);
    records_read_ += ok ? 1 : 0;
    return ok;
  }

  uint64_t error_line() const { return error_line_; }

 private:
  bool NextText(TraceRecord* record) {
    char line[256];
    while (std::fgets(line, sizeof(line), file_) != nullptr) {
      ++line_;
      switch (ParseTraceTextLine(line, record)) {
        case TextLineResult::kSkip:
          continue;
        case TextLineResult::kMalformed:
          if (error_line_ == 0) {
            error_line_ = line_;
          }
          continue;
        case TextLineResult::kRecord:
          return true;
      }
    }
    return false;
  }

  bool NextBinary(TraceRecord* record) {
    unsigned char bytes[kTraceBinaryRecordSize];
    while (std::fread(bytes, 1, sizeof(bytes), file_) == sizeof(bytes)) {
      if (DecodeTraceRecord(bytes, record)) {
        return true;
      }
      if (error_line_ == 0) {
        error_line_ = records_read_ + 1;
      }
    }
    return false;
  }

  std::FILE* file_;
  bool binary_ = false;
  uint64_t records_read_ = 0;
  uint64_t line_ = 0;
  uint64_t error_line_ = 0;
};

class TraceFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "flashsim_trace_fuzz";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& bytes) {
    const std::string path = (dir_ / name).string();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return path;
  }

  // Reads every record, checking the range contract on each.
  uint64_t DrainChecked(const std::string& path) {
    std::string error;
    auto source = OpenTraceSource(path, &error);
    EXPECT_NE(source, nullptr) << error;
    TraceRecord r;
    uint64_t n = 0;
    while (source->Next(&r)) {
      ++n;
      EXPECT_GE(r.block_count, 1u);
      EXPECT_LE(r.file_id, kMaxFileId);
      EXPECT_LE(r.block, kMaxBlockInFile);
      EXPECT_LE(r.block + r.block_count - 1, kMaxBlockInFile);
    }
    return n;
  }

  std::filesystem::path dir_;
};

std::string ValidTextTrace(uint64_t records, uint64_t seed) {
  Rng rng(seed);
  std::string text = "# fsim-text v1: <R|W> <host> <thread> <file> <block> <count> [w]\n";
  for (uint64_t i = 0; i < records; ++i) {
    char line[128];
    std::snprintf(line, sizeof(line), "%c %u %u %u %llu %u\n",
                  rng.NextBool(0.5) ? 'R' : 'W', static_cast<unsigned>(rng.NextBounded(4)),
                  static_cast<unsigned>(rng.NextBounded(8)),
                  static_cast<unsigned>(rng.NextBounded(100)),
                  static_cast<unsigned long long>(rng.NextBounded(1 << 20)),
                  static_cast<unsigned>(1 + rng.NextBounded(8)));
    text += line;
  }
  return text;
}

std::string ValidBinaryTrace(uint64_t records, uint64_t seed) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "flashsim_fuzz_bin_seed.trace").string();
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, nullptr);
  Rng rng(seed);
  for (uint64_t i = 0; i < records; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.5) ? TraceOp::kRead : TraceOp::kWrite;
    r.host = static_cast<uint16_t>(rng.NextBounded(4));
    r.thread = static_cast<uint16_t>(rng.NextBounded(8));
    r.file_id = static_cast<uint32_t>(rng.NextBounded(100));
    r.block = rng.NextBounded(1 << 20);
    r.block_count = static_cast<uint32_t>(1 + rng.NextBounded(8));
    writer->Write(r);
  }
  writer->Close();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::string bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  std::filesystem::remove(path);
  return bytes;
}

std::string Mutate(std::string bytes, Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:  // truncate
      bytes.resize(rng.NextBounded(bytes.size() + 1));
      break;
    case 1: {  // duplicate a chunk (repeats headers/partial records)
      const size_t start = rng.NextBounded(bytes.size());
      const size_t len = rng.NextBounded(bytes.size() - start) + 1;
      bytes.insert(rng.NextBounded(bytes.size()), bytes.substr(start, len));
      break;
    }
    case 2: {  // flip bits
      for (int flips = 0; flips < 8 && !bytes.empty(); ++flips) {
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    }
    default: {  // splice random garbage
      std::string garbage;
      for (uint64_t i = 0; i < 1 + rng.NextBounded(64); ++i) {
        garbage.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      bytes.insert(rng.NextBounded(bytes.size() + 1), garbage);
      break;
    }
  }
  return bytes;
}

TEST_F(TraceFuzzTest, TextMutationsNeverCrashOrEmitBadRecords) {
  const std::string valid = ValidTextTrace(200, 3);
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    const std::string path = WriteFile("text.trace", Mutate(valid, rng));
    DrainChecked(path);
  }
}

TEST_F(TraceFuzzTest, BinaryMutationsNeverCrashOrEmitBadRecords) {
  const std::string valid = ValidBinaryTrace(200, 4);
  Rng rng(18);
  for (int round = 0; round < 200; ++round) {
    const std::string path = WriteFile("bin.trace", Mutate(valid, rng));
    DrainChecked(path);
  }
}

TEST_F(TraceFuzzTest, TruncatedTextKeepsWellFormedPrefix) {
  const std::string valid = ValidTextTrace(100, 5);
  // Cut mid-line: everything before the cut line still parses.
  const std::string path = WriteFile("trunc.trace", valid.substr(0, valid.size() / 2));
  EXPECT_GT(DrainChecked(path), 0u);
}

TEST_F(TraceFuzzTest, TextAdversarialFieldsAreSkippedNotTruncated) {
  // count that overflows uint32, block+count crossing kMaxBlockInFile,
  // file id and block beyond their packed widths, zero count, 2^64-1.
  const std::string path = WriteFile(
      "adv.trace",
      "R 0 0 1 0 4294967296\n"                   // count 2^32: uint32 overflow
      "R 0 0 1 0 18446744073709551615\n"         // count 2^64-1
      "R 0 0 1 1099511627775 2\n"                // block+count-1 > kMaxBlockInFile
      "R 0 0 16777216 0 1\n"                     // file_id > kMaxFileId
      "R 0 0 1 1099511627776 1\n"                // block > kMaxBlockInFile
      "R 0 0 1 0 0\n"                            // zero count
      "R 65536 0 1 0 1\n"                        // host > uint16
      "W 1 2 3 4 5\n");                          // the one valid line
  std::string error;
  auto source = OpenTraceSource(path, &error);
  ASSERT_NE(source, nullptr);
  TraceRecord r;
  uint64_t n = 0;
  while (source->Next(&r)) {
    ++n;
    EXPECT_EQ(r.op, TraceOp::kWrite);
    EXPECT_EQ(r.block, 4u);
    EXPECT_EQ(r.block_count, 5u);
  }
  EXPECT_EQ(n, 1u);
  EXPECT_GT(source->error_line(), 0u);
}

TEST_F(TraceFuzzTest, BinaryRecordsWithOutOfRangeFieldsAreSkipped) {
  // Hand-build records that are structurally valid (22 bytes, op <= 1) but
  // carry out-of-range fields the decoder must reject.
  std::string bytes("FSIMB1\n");
  auto append_record = [&bytes](uint32_t file_id, uint64_t block, uint32_t count) {
    unsigned char rec[22] = {0};
    rec[0] = 0;  // read
    for (int i = 0; i < 4; ++i) rec[6 + i] = static_cast<unsigned char>(file_id >> (8 * i));
    for (int i = 0; i < 8; ++i) rec[10 + i] = static_cast<unsigned char>(block >> (8 * i));
    for (int i = 0; i < 4; ++i) rec[18 + i] = static_cast<unsigned char>(count >> (8 * i));
    bytes.append(reinterpret_cast<char*>(rec), sizeof(rec));
  };
  append_record(kMaxFileId + 1, 0, 1);         // file_id out of range
  append_record(1, kMaxBlockInFile + 1, 1);    // block out of range
  append_record(1, kMaxBlockInFile, 2);        // block span out of range
  append_record(1, 0, 0);                      // zero count
  append_record(7, 42, 3);                     // valid
  const std::string path = WriteFile("ranges.trace", bytes);
  std::string error;
  auto source = OpenTraceSource(path, &error);
  ASSERT_NE(source, nullptr);
  TraceRecord r;
  ASSERT_TRUE(source->Next(&r));
  EXPECT_EQ(r.file_id, 7u);
  EXPECT_EQ(r.block, 42u);
  EXPECT_EQ(r.block_count, 3u);
  EXPECT_FALSE(source->Next(&r));
  EXPECT_GT(source->error_line(), 0u);
}

// ---------------------------------------------------------------------------
// Reader identity: OpenTraceSource must deliver record for record exactly
// what the longhand ReferenceReader delivers on ANY input — valid, mutated,
// truncated, or adversarial — and report the same error_line.

std::vector<TraceRecord> Drain(TraceSource& source) {
  std::vector<TraceRecord> records;
  TraceRecord r;
  while (source.Next(&r)) {
    records.push_back(r);
  }
  return records;
}

void ExpectSameRecords(const std::vector<TraceRecord>& a, const std::vector<TraceRecord>& b,
                       const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].warmup, b[i].warmup);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].thread, b[i].thread);
    EXPECT_EQ(a[i].file_id, b[i].file_id);
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_EQ(a[i].block_count, b[i].block_count);
  }
}

// Reads the file through ReferenceReader and OpenTraceSource and requires
// identical records and error_line. Returns the records.
std::vector<TraceRecord> ExpectReaderMatchesReference(const std::string& path) {
  ReferenceReader reference(path);
  std::vector<TraceRecord> want;
  TraceRecord r;
  while (reference.Next(&r)) {
    want.push_back(r);
  }
  std::string error;
  auto reader = OpenTraceSource(path, &error);
  EXPECT_NE(reader, nullptr) << error;
  if (reader == nullptr) {
    return want;
  }
  ExpectSameRecords(want, Drain(*reader), "reference vs reader");
  EXPECT_EQ(reader->error_line(), reference.error_line());
  return want;
}

TEST_F(TraceFuzzTest, TextReaderMatchesReferenceOnMutations) {
  const std::string valid = ValidTextTrace(200, 21);
  Rng rng(22);
  for (int round = 0; round < 100; ++round) {
    ExpectReaderMatchesReference(WriteFile("ident_text.trace", Mutate(valid, rng)));
  }
}

TEST_F(TraceFuzzTest, BinaryReaderMatchesReferenceOnMutations) {
  const std::string valid = ValidBinaryTrace(200, 23);
  Rng rng(24);
  for (int round = 0; round < 100; ++round) {
    ExpectReaderMatchesReference(WriteFile("ident_bin.trace", Mutate(valid, rng)));
  }
}

TEST_F(TraceFuzzTest, TextReaderChunksLongLinesLikeFgets) {
  // Lines longer than 255 bytes split into fgets-sized chunks; each chunk
  // parses on its own. Line by line, as fgets(256) cuts them:
  //   1  "W 0 0 9 9 1"                     record
  //   2  255 x                             malformed (first error)
  //   3  45 x                              malformed
  //   4  255 spaces                        blank
  //   5  25 spaces + "R 0 0 1 2 3"         record (buried past the cut)
  //   6  "R 1 2 3 4 5"                     record
  std::string text = "W 0 0 9 9 1\n";
  text += std::string(300, 'x') + "\n";
  text += std::string(280, ' ') + "R 0 0 1 2 3\n";
  text += "R 1 2 3 4 5\n";
  const std::string path = WriteFile("longline.trace", text);
  const std::vector<TraceRecord> records = ExpectReaderMatchesReference(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].op, TraceOp::kWrite);
  EXPECT_EQ(records[0].file_id, 9u);
  EXPECT_EQ(records[1].op, TraceOp::kRead);
  EXPECT_EQ(records[1].file_id, 1u);
  EXPECT_EQ(records[1].block, 2u);
  EXPECT_EQ(records[1].block_count, 3u);
  EXPECT_EQ(records[2].host, 1);
  EXPECT_EQ(records[2].thread, 2);
  EXPECT_EQ(records[2].block_count, 5u);
  std::string error;
  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  Drain(*reader);
  EXPECT_EQ(reader->error_line(), 2u);
}

TEST_F(TraceFuzzTest, BinaryEdgeCases) {
  std::string error;
  // Zero-length file: no magic, so it reads as an empty text trace.
  {
    auto source = OpenTraceSource(WriteFile("empty.trace", ""), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->format(), TraceFormat::kText);
    EXPECT_EQ(source->SizeHint(), 0u);
    TraceRecord r;
    EXPECT_FALSE(source->Next(&r));
  }
  // Magic-only: binary, zero records, exact SizeHint.
  {
    auto source = OpenTraceSource(WriteFile("magic.trace", "FSIMB1\n"), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->format(), TraceFormat::kBinary);
    EXPECT_EQ(source->SizeHint(), 0u);
    TraceRecord r;
    EXPECT_FALSE(source->Next(&r));
  }
  // Unaligned tail: one whole record plus a partial one — the partial tail
  // is ignored, as the reference's short final fread ends its stream.
  {
    const std::string whole = ValidBinaryTrace(2, 25);
    const std::string path = WriteFile("tail.trace", whole.substr(0, whole.size() - 10));
    auto source = OpenTraceSource(path, &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->SizeHint(), 1u);
    EXPECT_EQ(ExpectReaderMatchesReference(path).size(), 1u);
  }
  // SizeHint counts invalid (skipped) records too: it is an upper bound.
  {
    const std::string valid = ValidBinaryTrace(5, 26);
    auto source = OpenTraceSource(WriteFile("hint.trace", valid), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->SizeHint(), 5u);
  }
}

TEST_F(TraceFuzzTest, RewindReplaysIdenticalStreams) {
  std::string error;
  for (const std::string& bytes : {ValidBinaryTrace(50, 27), ValidTextTrace(50, 28)}) {
    auto source = OpenTraceSource(WriteFile("rw.trace", bytes), &error);
    ASSERT_NE(source, nullptr) << error;
    const auto first = Drain(*source);
    ASSERT_EQ(first.size(), 50u);
    source->Rewind();
    ExpectSameRecords(first, Drain(*source), "rewind");
  }
}

// ---------------------------------------------------------------------------
// Refill boundaries: the reader holds TraceFileReader::kBufferBytes of the
// file at a time, so records and lines that straddle a refill must come out
// whole.

constexpr size_t kRefill = TraceFileReader::kBufferBytes;

TEST_F(TraceFuzzTest, BinaryRecordsStraddleRefills) {
  // Record k starts at byte 7 + 22k, so record 47662 spans the first
  // refill boundary (bytes 1048571..1048592); later refills fall at other
  // offsets into a record. An invalid record planted across the first
  // boundary pins error_line there; a second one lies past the second.
  const uint64_t kRecords = 3 * kRefill / kTraceBinaryRecordSize;
  std::string bytes = ValidBinaryTrace(kRecords, 29);
  const size_t straddler = (kRefill - kTraceBinaryMagicLen) / kTraceBinaryRecordSize;
  ASSERT_LT(kTraceBinaryMagicLen + straddler * kTraceBinaryRecordSize, kRefill);
  ASSERT_GT(kTraceBinaryMagicLen + (straddler + 1) * kTraceBinaryRecordSize, kRefill);
  bytes[kTraceBinaryMagicLen + straddler * kTraceBinaryRecordSize] = 7;  // op 7: invalid
  bytes[kTraceBinaryMagicLen + (2 * straddler + 5) * kTraceBinaryRecordSize] = 9;
  bytes += "tail";  // a partial record at the very end
  const std::string path = WriteFile("straddle.trace", bytes);
  const std::vector<TraceRecord> records = ExpectReaderMatchesReference(path);
  EXPECT_EQ(records.size(), kRecords - 2);
  std::string error;
  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->SizeHint(), kRecords);
  Drain(*reader);
  EXPECT_EQ(reader->error_line(), straddler + 1);
}

TEST_F(TraceFuzzTest, TextLinesStraddleRefills) {
  // A refill carries the unread part of the last line over to the front of
  // the next block, so buffer k+1 starts where buffer k's partial line
  // began. Built line by line around the first three boundaries:
  //   - a record line starting 7 bytes before the first boundary (the next
  //     buffer starts at kRefill - 7);
  //   - the first malformed line starting 4 bytes before the second
  //     (2 * kRefill - 11), pinning error_line across a refill;
  //   - a 300-byte line starting 100 bytes before the third, whose fgets
  //     cut at 255 bytes lands in the next buffer.
  std::string text;
  uint64_t lines = 0;
  uint64_t records = 0;
  auto add = [&](const std::string& line, bool record) {
    text += line;
    ++lines;
    records += record ? 1 : 0;
  };
  Rng rng(30);
  auto pad_to = [&](size_t offset) {  // valid lines, then a comment filler
    while (text.size() + 40 < offset) {
      add("R 0 1 2 " + std::to_string(rng.NextBounded(1000)) + " 1\n", true);
    }
    add(std::string(offset - text.size() - 1, '#') + "\n", false);
    ASSERT_EQ(text.size(), offset);
  };
  pad_to(kRefill - 7);
  add("W 3 4 5 6 7\n", true);
  pad_to(2 * kRefill - 11);
  const uint64_t bogus_line = lines + 1;
  add("R bogus line\n", false);
  pad_to(3 * kRefill - 111);
  add(std::string(300, ' ') + "R 9 9 9 9 9\n", true);  // two fgets chunks
  add("R 1 1 1 1 1\n", true);
  const std::string path = WriteFile("straddle_text.trace", text);
  const std::vector<TraceRecord> got = ExpectReaderMatchesReference(path);
  ASSERT_EQ(got.size(), records);
  EXPECT_EQ(got[got.size() - 2].host, 9);
  EXPECT_EQ(got[got.size() - 2].block_count, 9u);
  std::string error;
  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  Drain(*reader);
  EXPECT_EQ(reader->error_line(), bogus_line);
}

std::string ValidCsv(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string text = "timestamp,hostname,disk,type,offset,size\n";
  for (uint64_t i = 0; i < rows; ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "%llu,host%u,disk%u,%s,%llu,%u\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned>(rng.NextBounded(3)),
                  static_cast<unsigned>(rng.NextBounded(2)),
                  rng.NextBool(0.5) ? "Read" : "Write",
                  static_cast<unsigned long long>(rng.NextBounded(1 << 28)),
                  static_cast<unsigned>(512 * (1 + rng.NextBounded(64))));
    text += line;
  }
  return text;
}

TEST_F(TraceFuzzTest, CsvMutationsNeverCrashOrEmitBadRecords) {
  const std::string valid = ValidCsv(200, 6);
  Rng rng(19);
  for (int round = 0; round < 200; ++round) {
    const std::string path = WriteFile("fuzz.csv", Mutate(valid, rng));
    std::vector<TraceRecord> records;
    const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
    EXPECT_TRUE(result.error.empty());
    for (const TraceRecord& r : records) {
      EXPECT_GE(r.block_count, 1u);
      EXPECT_LE(r.block, kMaxBlockInFile);
      EXPECT_LE(r.block + r.block_count - 1, kMaxBlockInFile);
    }
  }
}

TEST_F(TraceFuzzTest, CsvAdversarialNumericFieldsAreSkipped) {
  // offset + size - 1 overflows uint64; offset alone maps past
  // kMaxBlockInFile; a size spanning more than 2^32 blocks.
  const std::string path = WriteFile(
      "adv.csv",
      "timestamp,hostname,disk,type,offset,size\n"
      "1,h,d,Read,18446744073709551615,4096\n"
      "2,h,d,Read,18446744073709551615,1\n"
      "3,h,d,Write,9007199254740992000,512\n"
      "4,h,d,Read,0,18446744073709551615\n"
      "5,h,d,Read,4096,4096\n");
  std::vector<TraceRecord> records;
  const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
  EXPECT_TRUE(result.error.empty());
  ASSERT_EQ(result.imported, 1u);
  EXPECT_EQ(result.skipped, 4u);
  EXPECT_EQ(result.first_bad_line, 2u);
  EXPECT_EQ(records[0].block, 1u);
  EXPECT_EQ(records[0].block_count, 1u);
}

TEST_F(TraceFuzzTest, CsvDuplicatedHeaderRowsAreCountedSkipped) {
  const std::string path = WriteFile(
      "dup.csv",
      "timestamp,hostname,disk,type,offset,size\n"
      "1,h,d,Read,0,4096\n"
      "timestamp,hostname,disk,type,offset,size\n"
      "2,h,d,Write,4096,4096\n");
  std::vector<TraceRecord> records;
  const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.imported, 2u);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.first_bad_line, 3u);
}

}  // namespace
}  // namespace flashsim
