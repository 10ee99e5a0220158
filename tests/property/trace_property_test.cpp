// Parameterized round-trip properties of the trace layer: any record of
// any type must survive CSV serialization bit-for-bit, and any trace must
// survive the logfile write/merge cycle.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "stats/reservoir.hpp"
#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "trace/sink.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

TraceRecord random_record(Rng& rng, RecordType type) {
  TraceRecord r;
  r.t = static_cast<SimTime>(rng.below(30ull * kDay));
  r.type = type;
  r.machine = MachineId{rng.below(6) + 1};
  r.process = ProcessId{rng.below(72) + 1};
  r.user = UserId{rng.below(100000) + 1};
  r.session = SessionId{rng.below(1000000) + 1};
  switch (type) {
    case RecordType::kSession:
      r.session_event = static_cast<SessionEvent>(1 + rng.below(5));
      r.duration = static_cast<SimTime>(rng.below(8ull * kHour));
      break;
    case RecordType::kStorage:
    case RecordType::kStorageDone: {
      const auto ops = all_api_ops();
      r.api_op = ops[rng.below(ops.size())];
      r.node = Uuid::v4(rng);
      if (rng.chance(0.5)) r.parent = Uuid::v4(rng);
      r.volume = Uuid::v4(rng);
      r.size_bytes = rng.below(1ull << 31);
      r.transferred_bytes = rng.chance(0.8) ? r.size_bytes : 0;
      if (rng.chance(0.7))
        r.content = Sha1::of("c" + std::to_string(rng.next()));
      if (rng.chance(0.5)) r.set_extension("mp3");
      r.is_update = rng.chance(0.2);
      r.is_dir = rng.chance(0.1);
      r.deduplicated = rng.chance(0.15);
      r.failed = rng.chance(0.02);
      if (type == RecordType::kStorageDone)
        r.duration = static_cast<SimTime>(rng.below(60ull * kSecond)) + 1;
      break;
    }
    case RecordType::kRpc: {
      const auto ops = all_rpc_ops();
      r.rpc_op = ops[rng.below(ops.size())];
      r.shard = ShardId{rng.below(10) + 1};
      r.service_time = static_cast<std::uint32_t>(rng.below(1000000)) + 1;
      break;
    }
    case RecordType::kFault:
      r.user = UserId{};
      r.session = SessionId{};
      r.set_fault("fault#" + std::to_string(rng.below(8)) + ":" +
                  (rng.chance(0.5) ? "begin" : "end"));
      break;
  }
  return r;
}

class RecordRoundTrip : public ::testing::TestWithParam<RecordType> {};

TEST_P(RecordRoundTrip, CsvIsLossless) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  for (int i = 0; i < 500; ++i) {
    const TraceRecord r = random_record(rng, GetParam());
    const auto parsed = TraceRecord::from_csv(r.to_csv());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->t, r.t);
    EXPECT_EQ(parsed->type, r.type);
    EXPECT_EQ(parsed->machine, r.machine);
    EXPECT_EQ(parsed->process, r.process);
    EXPECT_EQ(parsed->user, r.user);
    EXPECT_EQ(parsed->session, r.session);
    EXPECT_EQ(parsed->session_event, r.session_event);
    if (r.type == RecordType::kStorage ||
        r.type == RecordType::kStorageDone) {
      EXPECT_EQ(parsed->api_op, r.api_op);
      EXPECT_EQ(parsed->node, r.node);
      EXPECT_EQ(parsed->parent, r.parent);
      EXPECT_EQ(parsed->volume, r.volume);
      EXPECT_EQ(parsed->size_bytes, r.size_bytes);
      EXPECT_EQ(parsed->transferred_bytes, r.transferred_bytes);
      EXPECT_EQ(parsed->content, r.content);
      EXPECT_EQ(parsed->extension(), r.extension());
      EXPECT_EQ(parsed->is_update, r.is_update);
      EXPECT_EQ(parsed->is_dir, r.is_dir);
      EXPECT_EQ(parsed->deduplicated, r.deduplicated);
      EXPECT_EQ(parsed->failed, r.failed);
    }
    if (r.type == RecordType::kRpc) {
      EXPECT_EQ(parsed->rpc_op, r.rpc_op);
      EXPECT_EQ(parsed->shard, r.shard);
      EXPECT_EQ(parsed->service_time, r.service_time);
    }
    if (r.type == RecordType::kFault) EXPECT_EQ(parsed->fault(), r.fault());
    EXPECT_EQ(parsed->duration, r.duration);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, RecordRoundTrip,
                         ::testing::Values(RecordType::kSession,
                                           RecordType::kStorage,
                                           RecordType::kStorageDone,
                                           RecordType::kRpc,
                                           RecordType::kFault),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class LogfileRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LogfileRoundTrip, MergePreservesEveryRecordInOrder) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("u1_prop_" + std::to_string(::getpid()) + "_" +
                    std::to_string(GetParam()));
  std::filesystem::remove_all(dir);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 2000;
  // Random timestamps over 30 days: each logfile is written whole by its
  // format's writer (alternating CSV and binary), rows left in generation
  // order rather than time order, so the merge must sort.
  std::map<std::string, std::vector<TraceRecord>> files;
  for (int i = 0; i < n; ++i) {
    const auto type = static_cast<RecordType>(rng.below(kRecordTypeCount));
    const TraceRecord r = random_record(rng, type);
    files[r.logname()].push_back(r);
  }
  std::filesystem::create_directories(dir);
  bool binary = false;
  for (const auto& [name, records] : files) {
    if (binary)
      write_binary_logfile(dir, records);
    else
      write_csv_logfile(dir, records);
    binary = !binary;
  }
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir, sink);
  EXPECT_EQ(stats.parsed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_EQ(sink.records().size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < sink.records().size(); ++i) {
    EXPECT_LE(sink.records()[i - 1].t, sink.records()[i].t);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogfileRoundTrip, ::testing::Values(1, 2, 3));

// Reservoir sampling keeps a uniform subsample whatever the stream size.
class ReservoirProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReservoirProperty, MeanPreserved) {
  const std::size_t stream = GetParam();
  ReservoirSampler sampler(500, 42);
  Rng rng(7);
  double true_sum = 0;
  for (std::size_t i = 0; i < stream; ++i) {
    const double x = rng.uniform(0, 100);
    true_sum += x;
    sampler.add(x);
  }
  EXPECT_EQ(sampler.seen(), stream);
  EXPECT_EQ(sampler.size(), std::min<std::size_t>(500, stream));
  double sample_sum = 0;
  for (const double x : sampler.sample()) sample_sum += x;
  const double true_mean = true_sum / static_cast<double>(stream);
  const double sample_mean =
      sample_sum / static_cast<double>(sampler.size());
  EXPECT_NEAR(sample_mean, true_mean, 6.0);
}

INSTANTIATE_TEST_SUITE_P(StreamSizes, ReservoirProperty,
                         ::testing::Values(10u, 500u, 5000u, 200000u));

}  // namespace
}  // namespace u1
