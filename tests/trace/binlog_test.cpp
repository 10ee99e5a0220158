// Binary columnar logfile format: round-trip fidelity, mixed-format
// directory merging, and hostile-input rejection (every corruption is
// counted in ReadStats, never UB — this file is the ASan/UBSan probe for
// the bounds-checked decoder).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "trace/sink.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

/// A record exercising every column the given type carries.
TraceRecord sample(std::size_t i, RecordType type, std::uint64_t machine = 1,
                   std::uint64_t process = 7) {
  TraceRecord r;
  r.t = static_cast<SimTime>(i + 1) * kMinute;
  r.type = type;
  r.machine = MachineId{machine};
  r.process = ProcessId{process};
  r.user = UserId{100 + i};
  r.session = SessionId{200 + i};
  switch (type) {
    case RecordType::kSession:
      r.session_event = SessionEvent::kOpen;
      r.duration = static_cast<SimTime>(1000 + i);
      break;
    case RecordType::kStorage:
    case RecordType::kStorageDone:
      r.api_op = ApiOp::kPutContent;
      r.node.bytes[0] = static_cast<std::uint8_t>(i + 1);
      r.node.bytes[15] = 0xaa;
      r.parent.bytes[3] = static_cast<std::uint8_t>(i + 2);
      r.volume.bytes[7] = 0x42;
      r.content.bytes[0] = static_cast<std::uint8_t>(i + 3);
      r.content.bytes[19] = 0x7f;
      r.size_bytes = 1000 + 13 * i;
      r.transferred_bytes = type == RecordType::kStorageDone ? 1000 + 13 * i
                                                             : 0;
      r.set_extension(i % 2 == 0 ? "jpg" : "pdf");
      r.is_update = (i % 2) != 0;
      r.is_dir = false;
      r.deduplicated = (i % 3) == 0;
      r.failed = (i % 5) == 0;
      if (type == RecordType::kStorageDone)
        r.duration = static_cast<SimTime>(5000 + i);
      break;
    case RecordType::kRpc:
      r.rpc_op = RpcOp::kMakeContent;
      r.shard = ShardId{i % 10};
      r.service_time = static_cast<std::uint32_t>(300 + i);
      break;
    case RecordType::kFault:
      r.set_fault("outage#3:begin");
      r.shard = ShardId{2};
      r.duration = 2 * kMinute;
      break;
  }
  return r;
}

/// A t-ordered stream over seven days from 3 machines x 4 processes,
/// every record type, one record every five minutes.
std::vector<TraceRecord> multi_day_stream() {
  std::vector<TraceRecord> out;
  for (std::size_t i = 0; i < 2000; ++i) {
    TraceRecord r = sample(i, static_cast<RecordType>(i % kRecordTypeCount),
                           1 + i % 3, 1 + (i / 3) % 4);
    r.t = static_cast<SimTime>(i) * 5 * kMinute;
    out.push_back(r);
  }
  return out;
}

/// Writes each logfile of `records` whole, its records in stream order,
/// with `write_file`; returns the bytes written.
template <typename WriteFile>
std::uint64_t write_per_file(const std::filesystem::path& dir,
                             const std::vector<TraceRecord>& records,
                             WriteFile write_file) {
  std::map<std::string, std::vector<TraceRecord>> files;
  for (const TraceRecord& r : records) files[r.logname()].push_back(r);
  std::filesystem::create_directories(dir);
  std::uint64_t bytes = 0;
  for (const auto& [name, recs] : files) bytes += write_file(dir, recs);
  return bytes;
}

/// SHA-1 over every file in `dir` in name order: name bytes, then content.
std::string hash_directory(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());
  Sha1 hasher;
  for (const auto& path : paths) {
    hasher.update(path.filename().string());
    std::ifstream in(path, std::ios::binary);
    hasher.update(std::string(std::istreambuf_iterator<char>(in), {}));
  }
  return hasher.finish().hex();
}

std::string csv_of(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& r : records) r.append_csv_row(out);
  return out;
}

class BinlogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("u1sim_binlogtest_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Files on disk with extension `ext`.
  std::size_t count_files(std::string_view ext) const {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_))
      if (e.path().extension() == ext) ++n;
    return n;
  }

  std::filesystem::path only_file(std::string_view ext) const {
    for (const auto& e : std::filesystem::directory_iterator(dir_))
      if (e.path().extension() == ext) return e.path();
    ADD_FAILURE() << "no " << ext << " file in " << dir_;
    return {};
  }

  /// Writes one multi-record file covering every record type; returns
  /// the records in write order.
  std::vector<TraceRecord> write_sample_file(std::size_t stripe_records = 64) {
    std::vector<TraceRecord> records;
    for (std::size_t i = 0; i < 10; ++i)
      records.push_back(
          sample(i, static_cast<RecordType>(i % kRecordTypeCount)));
    std::filesystem::create_directories(dir_);
    EXPECT_GT(write_binary_logfile(dir_, records, stripe_records), 0u);
    EXPECT_EQ(count_files(".u1b"), 1u);
    return records;
  }

  std::filesystem::path dir_;
};

TEST_F(BinlogTest, RoundTripsEveryRecordType) {
  const auto records = write_sample_file();
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.files_binary, 1u);
  EXPECT_EQ(stats.rows, records.size());
  EXPECT_EQ(stats.parsed, records.size());
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
  // Field-for-field equality, including the original interleaved order,
  // via the canonical CSV serialization (TraceRecord has no operator==).
  EXPECT_EQ(csv_of(decoded), csv_of(records));
}

TEST_F(BinlogTest, MultiStripeFilesPreserveOrder) {
  const auto records = write_sample_file(/*stripe_records=*/3);
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.parsed, records.size());
  EXPECT_EQ(csv_of(decoded), csv_of(records));
}

TEST_F(BinlogTest, ShardsByMachineProcessDayLikeCsv) {
  BinaryLogfileWriter writer(dir_);
  writer.append(sample(0, RecordType::kStorage, 1, 1));
  writer.append(sample(1, RecordType::kStorage, 1, 1));  // same file
  writer.append(sample(0, RecordType::kStorage, 1, 2));  // other process
  writer.append(sample(0, RecordType::kStorage, 2, 1));  // other machine
  TraceRecord next_day = sample(0, RecordType::kStorage, 1, 1);
  next_day.t += kDay;
  writer.append(next_day);
  writer.close();
  std::size_t logs = 0, sidecars = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    EXPECT_TRUE(e.path().filename().string().starts_with("production-"));
    if (e.path().extension() == ".u1b") ++logs;
    if (e.path().extension() == ".u1s") ++sidecars;
  }
  EXPECT_EQ(logs, 4u);
  EXPECT_EQ(sidecars, 4u);
}

TEST_F(BinlogTest, OneRecordStripesMatchPinnedBytes) {
  // Every record its own stripe: the most stripe headers and dictionary
  // hand-offs per file. Whole-file writes must produce the bytes of the
  // per-file streaming writer they replaced (pinned SHA).
  const auto records = multi_day_stream();
  write_per_file(dir_, records,
                 [](const std::filesystem::path& dir,
                    std::span<const TraceRecord> recs) {
                   return write_binary_logfile(dir, recs, 1);
                 });
  EXPECT_EQ(count_files(".u1b"), 84u);
  EXPECT_EQ(hash_directory(dir_), "0e178755357213f451328385c89aed95021d9540");
}

TEST_F(BinlogTest, DayRetiredStreamMatchesPerFileWrites) {
  // The seven-day stream plus one logfile of 2.5 stripes, through the
  // day-retiring writer: the bytes of writing each logfile whole.
  auto records = multi_day_stream();
  for (std::size_t i = 0; i < 5 * kStripeRecords / 2; ++i) {
    TraceRecord r = sample(i, static_cast<RecordType>(i % kRecordTypeCount),
                           4, 1);
    r.t = 2 * kDay + static_cast<SimTime>(i) * 4 * kSecond;
    records.push_back(r);
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.t < b.t;
                   });
  std::uint64_t bytes = 0;
  {
    BinaryLogfileWriter writer(dir_);
    writer.append_batch(records.data(), records.size());
    writer.close();
    EXPECT_EQ(writer.records_written(), records.size());
    bytes = writer.bytes_written();
  }
  EXPECT_EQ(count_files(".u1b"), 85u);
  const std::filesystem::path whole = dir_.string() + "_whole";
  std::filesystem::remove_all(whole);
  EXPECT_EQ(write_per_file(whole, records,
                           [](const std::filesystem::path& dir,
                              std::span<const TraceRecord> recs) {
                             return write_binary_logfile(dir, recs);
                           }),
            bytes);
  EXPECT_EQ(hash_directory(whole), hash_directory(dir_));
  std::filesystem::remove_all(whole);
}

TEST_F(BinlogTest, RecordsDaysAheadOfTheStreamAreBuffered) {
  // A transfer's completion is stamped with its end time, up to days
  // after the request that emitted it. Several such records per day, two
  // to five days ahead, must neither retire the day being produced nor
  // land anywhere but their own logfile, in arrival order.
  std::vector<TraceRecord> records;
  for (const TraceRecord& r : multi_day_stream()) {
    records.push_back(r);
    if (r.t < 2 * kDay && r.user.value % 7 == 0) {
      TraceRecord ahead = r;
      ahead.t += static_cast<SimTime>(2 + r.user.value % 4) * kDay;
      ahead.user = UserId{r.user.value + 5000};
      records.push_back(ahead);
    }
  }
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    std::filesystem::remove_all(dir_);
    {
      const auto writer = make_logfile_writer(dir_, format);
      for (const TraceRecord& r : records) writer->append(r);
      writer->close();
    }
    const std::filesystem::path whole = dir_.string() + "_whole";
    std::filesystem::remove_all(whole);
    write_per_file(whole, records,
                   [format](const std::filesystem::path& dir,
                            std::span<const TraceRecord> recs) {
                     return format == TraceFormat::kBinary
                                ? write_binary_logfile(dir, recs)
                                : write_csv_logfile(dir, recs);
                   });
    EXPECT_EQ(hash_directory(whole), hash_directory(dir_))
        << to_string(format);
    std::filesystem::remove_all(whole);
  }
}

TEST_F(BinlogTest, WholeFileWritersRejectRecordsOfAnotherLogfile) {
  // A writer names the file, and stamps the .u1b header, from the first
  // record: a record of another machine, process or day is an error, not
  // a record silently filed under the wrong name.
  TraceRecord next_day = sample(1, RecordType::kStorage);
  next_day.t += kDay;
  for (const TraceRecord& other :
       {sample(1, RecordType::kStorage, 2), sample(1, RecordType::kStorage, 1, 8),
        next_day}) {
    const std::vector<TraceRecord> records = {sample(0, RecordType::kStorage),
                                              other};
    std::filesystem::create_directories(dir_);
    try {
      write_binary_logfile(dir_, records);
      ADD_FAILURE() << "mixed logfile accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(other.logname()),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(write_csv_logfile(dir_, records), std::runtime_error);
    EXPECT_EQ(count_files(".u1b") + count_files(".csv"), 0u);
  }
}

TEST_F(BinlogTest, RecordForRetiredDayThrowsAndLeavesTheFile) {
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    std::filesystem::remove_all(dir_);
    const auto writer = make_logfile_writer(dir_, format);
    const TraceRecord day0 = sample(0, RecordType::kStorage);
    writer->append(day0);
    for (const int day : {1, 2}) {  // head at day 2 retires day 0
      TraceRecord r = sample(1, RecordType::kStorage);
      r.t += day * kDay;
      writer->append(r);
    }
    try {
      writer->append(sample(5, RecordType::kStorage));
      ADD_FAILURE() << "late record accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(day0.logname()),
                std::string::npos)
          << e.what();
    }
    writer->close();
    // The day-0 logfile was neither reopened nor truncated.
    InMemorySink sink;
    EXPECT_EQ(read_logfiles(dir_, sink).parsed, 3u);
    EXPECT_EQ(sink.records().front().t, day0.t);
  }
}

TEST_F(BinlogTest, StreamBuffersAboutTwoDays) {
  // After day d is appended, days up to d - 3 are on disk (their retire
  // task has been joined), d - 2 may be in flight, and d - 1 and d are
  // still buffered.
  const auto records = multi_day_stream();
  const auto day_of = [](const TraceRecord& r) { return r.t / kDay; };
  std::map<std::int64_t, std::vector<std::string>> names_by_day;
  for (const TraceRecord& r : records) {
    auto& names = names_by_day[day_of(r)];
    const std::string name = r.logname() + ".u1b";
    if (std::find(names.begin(), names.end(), name) == names.end())
      names.push_back(name);
  }
  ASSERT_GE(names_by_day.size(), 6u);
  BinaryLogfileWriter writer(dir_);
  std::size_t i = 0;
  for (const auto& [day, names] : names_by_day) {
    while (i < records.size() && day_of(records[i]) == day)
      writer.append(records[i++]);
    for (const auto& [other, other_names] : names_by_day) {
      for (const std::string& name : other_names) {
        const bool exists = std::filesystem::exists(dir_ / name);
        if (other <= day - 3) {
          EXPECT_TRUE(exists) << name << " at day " << day;
        }
        if (other >= day - 1) {
          EXPECT_FALSE(exists) << name << " at day " << day;
        }
      }
    }
  }
  writer.close();
  std::size_t expected = 0;
  for (const auto& [day, names] : names_by_day) expected += names.size();
  EXPECT_EQ(count_files(".u1b"), expected);
}

TEST_F(BinlogTest, WriteErrorSurfacesAtCloseNotInDestructor) {
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    std::filesystem::remove_all(dir_);
    {
      const auto writer = make_logfile_writer(dir_, format);
      std::filesystem::remove_all(dir_);
      std::ofstream(dir_) << "a regular file where the directory was\n";
      EXPECT_THROW(
          {
            for (const int day : {0, 1, 2}) {
              TraceRecord r = sample(0, RecordType::kStorage);
              r.t += day * kDay;
              writer->append(r);
            }
            writer->close();
          },
          std::runtime_error);
    }
    {
      // Same failure, no explicit close: the destructor must not throw.
      std::filesystem::remove_all(dir_);
      const auto writer = make_logfile_writer(dir_, format);
      std::filesystem::remove_all(dir_);
      std::ofstream(dir_) << "x\n";
      writer->append(sample(0, RecordType::kStorage));
    }
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(BinlogTest, PreTraceRecordsShareTheEpochFile) {
  // trace_date() maps every t < 0 to the epoch date, so the writer must
  // not open a second file (clobbering the first) for bootstrap records.
  BinaryLogfileWriter writer(dir_);
  TraceRecord pre = sample(0, RecordType::kStorage);
  pre.t = -3 * kDay;
  writer.append(pre);
  writer.append(sample(1, RecordType::kStorage));
  writer.close();
  EXPECT_EQ(count_files(".u1b"), 1u);
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.parsed, 2u);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].t, -3 * kDay);
}

TEST_F(BinlogTest, MixedFormatDirectoryMergesInTimestampOrder) {
  {
    LogfileWriter csv(dir_);
    csv.append(sample(2, RecordType::kStorage, 1, 1));  // t = 3 min
    BinaryLogfileWriter bin(dir_);
    bin.append(sample(0, RecordType::kStorage, 2, 1));  // t = 1 min
    bin.append(sample(4, RecordType::kStorage, 2, 1));  // t = 5 min
  }
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.files_binary, 1u);
  EXPECT_EQ(stats.parsed, 3u);
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_EQ(sink.records().size(), 3u);
  EXPECT_EQ(sink.records()[0].t, 1 * kMinute);
  EXPECT_EQ(sink.records()[1].t, 3 * kMinute);
  EXPECT_EQ(sink.records()[2].t, 5 * kMinute);
  EXPECT_EQ(sink.records()[0].machine.value, 2u);
  EXPECT_EQ(sink.records()[1].machine.value, 1u);
}

TEST_F(BinlogTest, MergedReadDropsPreTraceRecordsForCsvParity) {
  // The CSV text format prints t unsigned, so t < 0 records never
  // survive the text parse; the merged read drops binary-decoded ones
  // too (as malformed) so analyzers see the same stream per format.
  {
    BinaryLogfileWriter writer(dir_);
    TraceRecord pre = sample(0, RecordType::kStorage);
    pre.t = -kDay;
    writer.append(pre);
    writer.append(sample(1, RecordType::kStorage));
  }
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_GT(sink.records()[0].t, 0);
  // Raw per-file access still delivers everything (convert depends on
  // this for byte-faithful transcoding).
  std::vector<TraceRecord> raw;
  EXPECT_EQ(read_binary_logfile(only_file(".u1b"), raw).parsed, 2u);
}

TEST_F(BinlogTest, BadMagicRejected) {
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / "production-bogus-1-20140111.u1b";
  std::ofstream(path, std::ios::binary) << "this is not a u1b file at all";
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, TruncatedHeaderRejected) {
  write_sample_file();
  const auto path = only_file(".u1b");
  std::filesystem::resize_file(path, 8);  // magic only
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, UnsupportedVersionRejected) {
  write_sample_file();
  const auto path = only_file(".u1b");
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field
  const char v99 = 99;
  f.write(&v99, 1);
  f.close();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, TruncatedTailLosesOnlyOverlappedStripes) {
  const auto records = write_sample_file(/*stripe_records=*/4);  // 4+4+2
  const auto path = only_file(".u1b");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);  // cut into last stripe
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, records.size());
  EXPECT_EQ(stats.parsed, 8u);  // the two intact stripes
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.checksum_failures, 0u);  // truncation, not corruption
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(csv_of(out),
            csv_of({records.begin(), records.begin() + 8}));
}

TEST_F(BinlogTest, CorruptedChecksumRejectsWholeFile) {
  const auto records = write_sample_file();
  const auto path = only_file(".u1b");
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(64 + 30);  // somewhere in the payload
  const char junk = '\x5a';
  f.write(&junk, 1);
  f.close();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.malformed, records.size());
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, MissingSidecarRejectsWholeFile) {
  const auto records = write_sample_file();
  std::filesystem::remove(only_file(".u1s"));
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), out);
  EXPECT_EQ(stats.malformed, records.size());
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, CorruptedSidecarRejectsWholeFile) {
  const auto records = write_sample_file();
  const auto sidecar = only_file(".u1s");
  std::fstream f(sidecar, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(48);  // first payload byte (a symbol length prefix)
  const char junk = '\xff';
  f.write(&junk, 1);
  f.close();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), out);
  EXPECT_EQ(stats.malformed, records.size());
  EXPECT_EQ(stats.parsed, 0u);
}

TEST_F(BinlogTest, CorruptFileDoesNotPoisonTheDirectory) {
  // One good CSV file plus one corrupt binary file: the merge keeps the
  // good records and counts the bad file's in stats.
  {
    LogfileWriter csv(dir_);
    csv.append(sample(0, RecordType::kStorage, 1, 1));
    BinaryLogfileWriter bin(dir_);
    bin.append(sample(1, RecordType::kStorage, 2, 1));
  }
  const auto path = only_file(".u1b");
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(70);
  const char junk = '\x13';
  f.write(&junk, 1);
  f.close();
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].machine.value, 1u);
}

TEST_F(BinlogTest, ReadLogfileSniffsMagic) {
  // read_logfile dispatches on leading bytes, not extension.
  const auto records = write_sample_file();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_logfile(only_file(".u1b"), out);
  EXPECT_EQ(stats.files_binary, 1u);
  EXPECT_EQ(stats.parsed, records.size());
}

TEST_F(BinlogTest, FormatSelection) {
  EXPECT_EQ(trace_format_from_string("csv"), TraceFormat::kCsv);
  EXPECT_EQ(trace_format_from_string("bin"), TraceFormat::kBinary);
  EXPECT_EQ(trace_format_from_string("binary"), TraceFormat::kBinary);
  EXPECT_EQ(trace_format_from_string("parquet"), std::nullopt);
  EXPECT_EQ(to_string(TraceFormat::kCsv), "csv");
  EXPECT_EQ(to_string(TraceFormat::kBinary), "bin");
  const auto csv = make_logfile_writer(dir_, TraceFormat::kCsv);
  const auto bin = make_logfile_writer(dir_, TraceFormat::kBinary);
  EXPECT_NE(dynamic_cast<LogfileWriter*>(csv.get()), nullptr);
  EXPECT_NE(dynamic_cast<BinaryLogfileWriter*>(bin.get()), nullptr);
}

}  // namespace
}  // namespace u1
