#include "src/trace/trace_file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/trace/codec.h"
#include "src/trace/fast_source.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/flashsim_" + name;
  }

  // Writes `records` to `path` in `format`.
  void WriteTrace(const std::string& path, TraceFormat format,
                  const std::vector<TraceRecord>& records) {
    std::string error;
    auto writer = TraceFileWriter::Create(path, format, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (const auto& r : records) {
      writer->Write(r);
    }
    ASSERT_TRUE(writer->Close());
  }

  std::vector<TraceRecord> SampleRecords(int n) {
    std::vector<TraceRecord> records;
    Rng rng(7);
    for (int i = 0; i < n; ++i) {
      TraceRecord r;
      r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
      r.warmup = i < n / 2;
      r.host = static_cast<uint16_t>(rng.NextBounded(4));
      r.thread = static_cast<uint16_t>(rng.NextBounded(8));
      r.file_id = static_cast<uint32_t>(rng.NextBounded(1000));
      r.block = rng.NextBounded(1ULL << 39);
      r.block_count = static_cast<uint32_t>(rng.NextBounded(16)) + 1;
      records.push_back(r);
    }
    return records;
  }
};

TEST_F(TraceFileTest, BinaryRoundTrip) {
  const std::string path = TempPath("binary.trace");
  const auto records = SampleRecords(1000);
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (const auto& r : records) {
    writer->Write(r);
  }
  EXPECT_TRUE(writer->Close());

  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->format(), TraceFormat::kBinary);
  TraceRecord r;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader->Next(&r)) << i;
    ASSERT_EQ(r, records[i]) << i;
  }
  EXPECT_FALSE(reader->Next(&r));
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextRoundTrip) {
  const std::string path = TempPath("text.trace");
  const auto records = SampleRecords(500);
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kText, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (const auto& r : records) {
    writer->Write(r);
  }
  EXPECT_TRUE(writer->Close());

  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->format(), TraceFormat::kText);
  TraceRecord r;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader->Next(&r)) << i;
    ASSERT_EQ(r, records[i]) << i;
  }
  EXPECT_FALSE(reader->Next(&r));
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, RewindRestartsStream) {
  const std::string path = TempPath("rewind.trace");
  const auto records = SampleRecords(10);
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, &error);
  ASSERT_NE(writer, nullptr);
  for (const auto& r : records) {
    writer->Write(r);
  }
  writer->Close();

  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr);
  TraceRecord r;
  while (reader->Next(&r)) {
  }
  reader->Rewind();
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r, records[0]);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextToleratesCommentsAndBlankLines) {
  const std::string path = TempPath("comments.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# a comment\n\n   \nR 0 1 2 3 4\n# more\nW 1 2 3 4 5 w\n", f);
  std::fclose(f);

  std::string error;
  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr);
  TraceRecord r;
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.op, TraceOp::kRead);
  EXPECT_EQ(r.host, 0);
  EXPECT_EQ(r.thread, 1);
  EXPECT_EQ(r.file_id, 2u);
  EXPECT_EQ(r.block, 3u);
  EXPECT_EQ(r.block_count, 4u);
  EXPECT_FALSE(r.warmup);
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.op, TraceOp::kWrite);
  EXPECT_TRUE(r.warmup);
  EXPECT_FALSE(reader->Next(&r));
  EXPECT_EQ(reader->error_line(), 0u);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextSkipsMalformedLinesAndReportsFirst) {
  const std::string path = TempPath("malformed.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("R 0 0 1 0 1\nbogus line\nX 0 0 1 0 1\nR 0 0 1 0 0\nW 0 0 2 0 1\n", f);
  std::fclose(f);

  std::string error;
  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr);
  TraceRecord r;
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.file_id, 1u);
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.op, TraceOp::kWrite);
  EXPECT_EQ(r.file_id, 2u);
  EXPECT_FALSE(reader->Next(&r));
  EXPECT_EQ(reader->error_line(), 2u);  // "bogus line"
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, MissingFileReportsError) {
  std::string error;
  auto reader = OpenTraceSource("/nonexistent/nope.trace", &error);
  EXPECT_EQ(reader, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(TraceFileTest, DirectoryReportsError) {
  std::string error;
  auto reader = OpenTraceSource(testing::TempDir(), &error);
  EXPECT_EQ(reader, nullptr);
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

std::vector<TraceRecord> DrainPath(const std::string& path) {
  std::string error;
  std::unique_ptr<TraceSource> reader = OpenTraceSource(path, &error);
  EXPECT_NE(reader, nullptr) << error;
  std::vector<TraceRecord> records;
  TraceRecord r;
  while (reader != nullptr && reader->Next(&r)) {
    records.push_back(r);
  }
  return records;
}

// Streams a file's bytes into a pipe from a writer thread; path() names the
// pipe's read end, as /dev/stdin or a shell's <(...) would.
class PipeFeed {
 public:
  explicit PipeFeed(const std::string& file) {
    std::FILE* in = std::fopen(file.c_str(), "rb");
    EXPECT_NE(in, nullptr) << file;
    char buf[65536];
    size_t got;
    while (in != nullptr && (got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      bytes_.append(buf, got);
    }
    if (in != nullptr) {
      std::fclose(in);
    }
    std::signal(SIGPIPE, SIG_IGN);  // a failing reader may close early
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    read_fd_ = fds[0];
    writer_ = std::thread([this, fd = fds[1]] {
      for (size_t done = 0; done < bytes_.size();) {
        const ssize_t n = write(fd, bytes_.data() + done, bytes_.size() - done);
        if (n <= 0) {
          break;  // the reader went away
        }
        done += static_cast<size_t>(n);
      }
      close(fd);
    });
  }
  ~PipeFeed() {
    close(read_fd_);
    writer_.join();
  }

  PipeFeed(const PipeFeed&) = delete;
  PipeFeed& operator=(const PipeFeed&) = delete;

  std::string path() const { return "/dev/fd/" + std::to_string(read_fd_); }

 private:
  std::string bytes_;
  int read_fd_ = -1;
  std::thread writer_;
};

// A piped trace is opened once: the format sniff must not swallow the head
// of the stream. Both traces span several 1 MiB refills.
TEST_F(TraceFileTest, PipedTraceReadsLikeTheFile) {
  const auto records = SampleRecords(100000);
  for (const TraceFormat format : {TraceFormat::kText, TraceFormat::kBinary}) {
    const bool binary = format == TraceFormat::kBinary;
    SCOPED_TRACE(binary ? "binary" : "text");
    const std::string path = TempPath(binary ? "piped.bin" : "piped.trace");
    WriteTrace(path, format, records);
    const std::vector<TraceRecord> from_file = DrainPath(path);
    ASSERT_EQ(from_file, records);
    std::vector<TraceRecord> from_pipe;
    {
      PipeFeed feed(path);
      from_pipe = DrainPath(feed.path());
    }
    EXPECT_EQ(from_pipe.size(), from_file.size());
    EXPECT_TRUE(from_pipe == from_file);
    std::remove(path.c_str());
  }
}

TEST_F(TraceFileTest, PipedBinaryTraceHasNoSizeHint) {
  const std::string path = TempPath("hint.bin");
  WriteTrace(path, TraceFormat::kBinary, SampleRecords(10));
  std::string error;
  auto file = OpenTraceSource(path, &error);
  ASSERT_NE(file, nullptr) << error;
  EXPECT_EQ(file->SizeHint(), 10u);
  PipeFeed feed(path);
  auto piped = OpenTraceSource(feed.path(), &error);
  ASSERT_NE(piped, nullptr) << error;
  EXPECT_EQ(piped->format(), TraceFormat::kBinary);
  EXPECT_EQ(piped->SizeHint(), 0u);  // a pipe has no size to count
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, UnwritablePathReportsError) {
  std::string error;
  auto writer = TraceFileWriter::Create("/nonexistent/dir/out.trace", TraceFormat::kText, &error);
  EXPECT_EQ(writer, nullptr);
  EXPECT_NE(error.find("cannot create"), std::string::npos);
}

TEST_F(TraceFileTest, CountsRecordsWritten) {
  const std::string path = TempPath("count.trace");
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, &error);
  ASSERT_NE(writer, nullptr);
  TraceRecord r;
  writer->Write(r);
  writer->Write(r);
  EXPECT_EQ(writer->records_written(), 2u);
  writer->Close();
  std::remove(path.c_str());
}

// Binary records are written a buffer at a time: a trace spanning several
// buffers (and ending mid-buffer) must be byte for byte the magic followed
// by each record's own encoding, and read back record for record.
TEST_F(TraceFileTest, BufferedBinaryWritesMatchPerRecordEncoding) {
  const std::string path = TempPath("buffered.trace");
  const auto records = SampleRecords(10000);
  ASSERT_GT(records.size() * kTraceBinaryRecordSize, 3 * TraceFileWriter::kBufferBytes);
  WriteTrace(path, TraceFormat::kBinary, records);

  std::string expected(kTraceBinaryMagic, kTraceBinaryMagicLen);
  for (const TraceRecord& r : records) {
    unsigned char encoded[kTraceBinaryRecordSize];
    EncodeTraceRecord(r, encoded);
    expected.append(reinterpret_cast<const char*>(encoded), kTraceBinaryRecordSize);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(written.size(), expected.size());
  EXPECT_TRUE(written == expected);

  std::string error;
  auto reader = OpenTraceSource(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  TraceRecord r;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader->Next(&r)) << i;
    ASSERT_EQ(r, records[i]) << i;
  }
  EXPECT_FALSE(reader->Next(&r));
  std::remove(path.c_str());
}

// A write that the device refuses (here /dev/full) is latched: Close()
// reports it even though every Write call returned normally.
TEST_F(TraceFileTest, FailedWriteMakesCloseReturnFalse) {
  if (access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "no /dev/full";
  }
  for (const size_t n : {size_t{10}, size_t{10000}}) {
    std::string error;
    auto writer = TraceFileWriter::Create("/dev/full", TraceFormat::kBinary, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (const TraceRecord& r : SampleRecords(static_cast<int>(n))) {
      writer->Write(r);
    }
    EXPECT_FALSE(writer->Close()) << n;
    EXPECT_FALSE(writer->Close()) << n;  // and keeps reporting it
  }
}

}  // namespace
}  // namespace flashsim
