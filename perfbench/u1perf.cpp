// u1perf — the workload runner behind perfbench/run.py (see
// perfbench/README.md for the workloads and every metric).
//
//   u1perf month --sink bin|analysis --dir DIR [--trace 0|1]
//                [--raw] [--users N] [--days D]
//   u1perf mix --port PORT --seed S --seconds T [--trace 0|1] [--no-load]
//              [--cpus A,B,C] [--daemon-pid PID]
//              [--sabotage leftover|missing]
//
// `month` runs one ParallelSimulation of the pinned month (seed 20140111)
// at 4 worker threads, into the binary trace writer (`bin`, which leaves
// the closed trace in DIR) or into the five sharded analyzers over a
// NullSink (`analysis`). `mix` drives a running u1d over three blocking
// loopback connections with a storage mix drawn from the workload model:
// closed-loop passes, then an open-loop load.
//
// With --trace 1 the runner wraps every call it makes into a layer in a
// timing span (the forwarding trace sink, the analyzer decorators, the
// client-side codec, an in-process replay into U1Backend::call()) and
// reports the per-layer totals; with --trace 0 only the probes the
// end-to-end metrics need are in place. Every invocation prints one JSON
// object as the last line of stdout; run.py turns it into metrics and
// checks it.
#include <dirent.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/file_types.hpp"
#include "analysis/rpc_perf.hpp"
#include "analysis/sessions.hpp"
#include "analysis/sharded.hpp"
#include "analysis/traffic.hpp"
#include "analysis/users.hpp"
#include "net/client.hpp"
#include "proto/envelope.hpp"
#include "server/backend.hpp"
#include "sim/parallel.hpp"
#include "trace/binlog.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"
#include "workload/content_pool.hpp"
#include "workload/file_model.hpp"
#include "workload/transitions.hpp"
#include "workload/user_model.hpp"

namespace {

using namespace u1;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
double secs_since(Clock::time_point t0) { return secs(t0, Clock::now()); }

/// Linear-interpolated quantile of an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Minimal flat JSON object writer: keys in insertion order, numbers
/// printed with all their digits.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& u64(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(key, q + "\"");
  }
  Json& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& obj(std::string_view key, const Json& o) { return raw(key, o.text()); }
  Json& raw(std::string_view key, std::string_view value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void emit(const Json& j) {
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
}

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const bool flag = i + 1 >= argc ||
                          std::string_view(argv[i + 1]).rfind("--", 0) == 0;
        kv[a.substr(2)] = flag ? "1" : argv[++i];
      } else {
        positional.push_back(a);
      }
    }
  }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  long num(const std::string& k, long dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : std::atol(it->second.c_str());
  }
};

std::size_t open_fds() {
  std::size_t n = 0;
  if (DIR* d = ::opendir("/proc/self/fd")) {
    while (const dirent* e = ::readdir(d))
      if (e->d_name[0] != '.') ++n;
    ::closedir(d);
  }
  return n;
}

// --- month workloads ---------------------------------------------------------

/// Fixed engine width: the month's figures never depend on the host's
/// core count, and its wall time is measured at one width.
constexpr std::size_t kMonthThreads = 4;

/// Wall-clock arrival of simulated hours at the benchmark's consumer (the
/// trace sink in `bin`, an analyzer shard in `analysis`). The first
/// in-window record (timestamp >= 0; bootstrap history is negative) ends
/// set-up; each later hour's first record stamps that hour's delivery.
class HourClock {
 public:
  void start() { start_ = Clock::now(); }

  /// `last_ts` is the largest timestamp of a batch (batches arrive
  /// timestamp-sorted). Thread-safe; lock-free unless the hour advances.
  void observe(SimTime last_ts) {
    if (last_ts < 0) return;
    const std::int64_t hour = last_ts / kHour;
    if (hour <= max_hour_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (hour <= max_hour_.load(std::memory_order_relaxed)) return;
    const double t = secs_since(start_);
    if (stamps_.empty()) setup_s_ = t;
    stamps_.push_back(t);
    max_hour_.store(hour, std::memory_order_relaxed);
  }

  double setup_s() const { return setup_s_; }
  /// Wall time between consecutive hour deliveries, sorted, in ms.
  std::vector<double> gaps_ms() const {
    std::vector<double> g;
    for (std::size_t i = 1; i < stamps_.size(); ++i)
      g.push_back(1e3 * (stamps_[i] - stamps_[i - 1]));
    std::sort(g.begin(), g.end());
    return g;
  }

 private:
  Clock::time_point start_ = Clock::now();
  std::atomic<std::int64_t> max_hour_{-1};
  std::mutex mu_;
  double setup_s_ = 0.0;
  std::vector<double> stamps_;
};

/// Forwards every batch to the trace writer. Always stamps hours; with
/// `timed` it also records the busy time of each call into the writer
/// and samples the process's open fds once per simulated day.
class ForwardingSink final : public TraceSink {
 public:
  ForwardingSink(TraceSink& inner, HourClock& clock, bool timed)
      : inner_(inner), clock_(clock), timed_(timed) {}

  void append(const TraceRecord& record) override { append_batch(&record, 1); }

  void append_batch(const TraceRecord* records, std::size_t count) override {
    if (count == 0) return;
    clock_.observe(records[0].t);
    if (!timed_) {
      inner_.append_batch(records, count);
      return;
    }
    const auto t0 = Clock::now();
    inner_.append_batch(records, count);
    busy_s += secs_since(t0);
    ++calls;
    this->records += count;
    const SimTime day = records[count - 1].t / kDay;
    if (day != last_day_) {
      last_day_ = day;
      fds_peak = std::max(fds_peak, open_fds());
    }
  }

  double busy_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t records = 0;
  std::size_t fds_peak = 0;

 private:
  TraceSink& inner_;
  HourClock& clock_;
  bool timed_;
  SimTime last_day_ = -1000;
};

/// Decorates one analyzer shard: stamps hours (when given a clock) and,
/// with `timed`, accumulates consume() busy time. A shard is only ever
/// touched by one thread at a time, so the counters need no lock.
class ProbedShard final : public AnalyzerShard {
 public:
  ProbedShard(std::unique_ptr<AnalyzerShard> inner, HourClock* clock,
              bool timed)
      : inner(std::move(inner)), clock_(clock), timed_(timed) {}

  void consume(const TraceRecord* records, std::size_t count) override {
    if (clock_ != nullptr && count > 0)
      clock_->observe(records[0].t);
    if (!timed_) {
      inner->consume(records, count);
      return;
    }
    const auto t0 = Clock::now();
    inner->consume(records, count);
    busy_s += secs_since(t0);
    this->records += count;
  }

  std::unique_ptr<AnalyzerShard> inner;
  double busy_s = 0.0;
  std::uint64_t records = 0;

 private:
  HourClock* clock_;
  bool timed_;
};

/// Decorates a sharded analyzer: every shard it hands the engine is a
/// ProbedShard; merge and finish are timed.
class ProbedAnalyzer final : public ShardedAnalyzer {
 public:
  ProbedAnalyzer(std::string name, ShardedAnalyzer& inner, HourClock* clock,
                 bool timed)
      : name(std::move(name)), inner_(inner), clock_(clock), timed_(timed) {}

  std::unique_ptr<AnalyzerShard> make_shard() override {
    return std::make_unique<ProbedShard>(inner_.make_shard(), clock_, timed_);
  }
  void merge_shard(AnalyzerShard& shard) override {
    auto& probed = static_cast<ProbedShard&>(shard);
    busy_s += probed.busy_s;
    records += probed.records;
    const auto t0 = Clock::now();
    inner_.merge_shard(*probed.inner);
    merge_s += secs_since(t0);
  }
  void finish() override {
    const auto t0 = Clock::now();
    inner_.finish();
    finish_s += secs_since(t0);
  }

  std::string name;
  double busy_s = 0.0;
  double merge_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t records = 0;

 private:
  ShardedAnalyzer& inner_;
  HourClock* clock_;
  bool timed_;
};

Json phases_json(const ParallelSimulation& sim) {
  const auto& p = sim.phases();
  return Json()
      .u64("epochs", p.epochs)
      .num("compute_s", p.compute_s)
      .num("merge_s", p.merge_s)
      .num("flush_s", p.flush_s)
      .num("write_s", p.write_s)
      .num("flush_stall_s", p.flush_stall_s)
      .num("ring_stall_s", p.ring_stall_s)
      .u64("plan_rebuilds", p.plan_rebuilds)
      .num("cal_scanned_per_find",
           p.cal_finds > 0 ? static_cast<double>(p.cal_scanned) /
                                 static_cast<double>(p.cal_finds)
                           : 0.0)
      .u64("records", sim.records_flushed());
}

int run_month(const Args& args) {
  const std::string sink_kind = args.get("sink");
  const std::filesystem::path dir = args.get("dir");
  const bool traced = args.num("trace", 0) != 0;
  const bool raw = args.num("raw", 0) != 0;
  if ((sink_kind != "bin" && sink_kind != "analysis") || dir.empty()) {
    std::fprintf(stderr, "u1perf month: need --sink bin|analysis --dir DIR\n");
    return 2;
  }

  SimulationConfig cfg;
  cfg.users = static_cast<std::size_t>(args.num("users", 8000));
  cfg.days = static_cast<int>(args.num("days", 30));
  cfg.seed = 20140111;
  cfg.enable_ddos = true;
  const SimTime horizon = static_cast<SimTime>(cfg.days) * kDay;

  Json out;
  out.str("workload", sink_kind)
      .u64("users", cfg.users)
      .u64("days", static_cast<std::uint64_t>(cfg.days))
      .u64("seed", cfg.seed)
      .u64("threads", kMonthThreads)
      .boolean("traced", traced);
  HourClock clock;

  if (sink_kind == "bin") {
    std::filesystem::remove_all(dir);
    BinaryLogfileWriter writer(dir);
    ForwardingSink sink(writer, clock, traced);
    // --raw hands the engine the writer itself (self-test reference).
    TraceSink& engine_sink =
        raw ? static_cast<TraceSink&>(writer) : static_cast<TraceSink&>(sink);
    clock.start();
    const auto t0 = Clock::now();
    ParallelSimulation sim(cfg, engine_sink, kMonthThreads);
    sim.run();
    const std::size_t fds_before_close = open_fds();
    const auto tc = Clock::now();
    writer.close();
    const auto t1 = Clock::now();
    const double wall = secs(t0, t1);
    // The clock has stopped: the trace is complete on disk. run.py hashes
    // and deletes it after this process exits, so this process's CPU time
    // is the simulation's and the writer's alone.

    const auto gaps = clock.gaps_ms();
    out.num("wall_s", wall)
        .num("setup_s", clock.setup_s())
        .num("hour_p50_ms", quantile(gaps, 0.50))
        .num("hour_p90_ms", quantile(gaps, 0.90))
        .num("hour_p99_ms", quantile(gaps, 0.99))
        .u64("hours", gaps.size() + 1)
        .u64("records", sim.records_flushed())
        .boolean("analysis_only", sim.analysis_only())
        .u64("flush_depth", sim.flush_depth())
        .obj("sim", phases_json(sim))
        .obj("trace",
             Json()
                 .num("append_busy_s", sink.busy_s)
                 .u64("append_calls", sink.calls)
                 .u64("records", traced ? sink.records
                                        : writer.records_written())
                 .num("close_s", secs(tc, t1))
                 .u64("open_fds_peak",
                      std::max(sink.fds_peak, fds_before_close)));
    emit(out);
    return 0;
  }

  // analysis: the five sharded analyzers over a real NullSink.
  RpcPerfAnalyzer rpcs;
  TrafficAnalyzer traffic(0, horizon);
  UserActivityAnalyzer users(0, horizon);
  SessionAnalyzer sessions(0, horizon);
  FileTypeAnalyzer types;
  std::vector<std::unique_ptr<ProbedAnalyzer>> probed;
  const std::pair<const char*, ShardedAnalyzer*> suite[] = {
      {"rpc_perf", &rpcs}, {"traffic", &traffic}, {"users", &users},
      {"sessions", &sessions}, {"file_types", &types}};
  NullSink null;
  clock.start();
  const auto t0 = Clock::now();
  ParallelSimulation sim(cfg, null, kMonthThreads);
  for (const auto& [name, analyzer] : suite) {
    // Untraced runs decorate only the first analyzer (the hour probe);
    // traced runs time every one of them.
    if (traced || probed.empty()) {
      probed.push_back(std::make_unique<ProbedAnalyzer>(
          name, *analyzer, probed.empty() ? &clock : nullptr, traced));
      sim.attach_analyzer(*probed.back());
    } else {
      sim.attach_analyzer(*analyzer);
    }
  }
  sim.run();
  const double wall = secs_since(t0);

  std::uint64_t rpc_total = 0;
  for (const RpcOp op : all_rpc_ops()) rpc_total += rpcs.count(op);
  Json analysis;
  double merge_s = 0.0, finish_s = 0.0;
  for (const auto& p : probed) {
    analysis.num(p->name + ".consume_busy_s", p->busy_s);
    merge_s += p->merge_s;
    finish_s += p->finish_s;
  }
  analysis.num("merge_s", merge_s)
      .num("finish_s", finish_s)
      .u64("records", probed.front()->records);
  const auto gaps = clock.gaps_ms();
  out.num("wall_s", wall)
      .num("setup_s", clock.setup_s())
      .num("hour_p50_ms", quantile(gaps, 0.50))
      .num("hour_p90_ms", quantile(gaps, 0.90))
      .num("hour_p99_ms", quantile(gaps, 0.99))
      .u64("hours", gaps.size() + 1)
      .u64("records", sim.records_flushed())
      .boolean("analysis_only", sim.analysis_only())
      .u64("flush_depth", sim.flush_depth())
      .obj("check", Json()
                        .u64("users_seen", users.users_seen())
                        .u64("sessions_closed", sessions.sessions_closed())
                        .u64("distinct_files", types.distinct_files())
                        .u64("upload_ops", traffic.upload_ops())
                        .u64("download_ops", traffic.download_ops())
                        .u64("upload_bytes", traffic.upload_bytes())
                        .u64("download_bytes", traffic.download_bytes())
                        .u64("rpcs", rpc_total))
      .obj("sim", phases_json(sim))
      .obj("analysis", analysis);
  emit(out);
  return 0;
}

// --- u1d_mix -----------------------------------------------------------------

/// Generator shape. The offered rates are storage ops per second across
/// all connections, stepped through in order.
constexpr std::size_t kConns = 3;
constexpr std::size_t kUsers = 900;
constexpr double kRates[] = {2000, 4000, 6000, 8000};
constexpr std::size_t kSteps = sizeof kRates / sizeof kRates[0];
/// The top rate, whose latencies the traced run reports, gets this share
/// of --seconds; the lower steps share the rest equally.
constexpr double kTopShare = 0.5;
/// Tail latency is taken per window of this length and the median of
/// the windows' percentiles reported, so one stall of the (shared) host
/// moves one window, not the run.
constexpr double kWindowS = 1.0;

/// Start of step s (s == kSteps: end of the run), seconds from origin.
double step_start(std::size_t s, double seconds) {
  const double low = seconds * (1.0 - kTopShare) / (kSteps - 1);
  return s < kSteps ? low * static_cast<double>(s) : seconds;
}

/// The population is drawn once from this seed, so every --seed meets the
/// same namespaces; --seed picks the request sequence.
constexpr std::uint64_t kPopulationSeed = 20140111;
/// A namespace stays within this many files of its fill size: a new-file
/// upload above it is sent as an update of an existing file, an unlink
/// below it as a download. GetDelta walks the whole volume, so this keeps
/// its cost independent of run length.
constexpr long kMaxExcess = 8;
/// Closed-loop mix passes (the timed end-to-end figure) and the ops each
/// connection sends in one pass.
constexpr std::size_t kMixPasses = 12;
constexpr std::size_t kPassOps = 3000;

/// What the generator sends for one chain step.
enum class MixOp : std::uint8_t { kWrite, kUpdate, kUnlink, kDownload,
                                  kGetDelta, kListVolumes };
constexpr const char* kMixOpNames[] = {"write", "update", "unlink",
                                       "download", "get_delta",
                                       "list_volumes"};

/// The six request ops the mix sends, in metric-name order.
constexpr ProtoOp kTimedOps[] = {ProtoOp::kMakeFile,  ProtoOp::kUpload,
                                 ProtoOp::kUnlink,    ProtoOp::kDownload,
                                 ProtoOp::kGetDelta,  ProtoOp::kListVolumes};

struct MixFile {
  NodeId node;
  std::uint64_t size = 0;
};

/// One user of the mix: traits from the workload model and the
/// generator's model of the user's namespace and session.
struct MixUser {
  UserId uid;
  UserProfile profile;
  /// Expected storage ops per day: the user's weight in the mix.
  double rate = 0.0;
  std::size_t target_files = 0;
  VolumeId volume;
  NodeId root;
  SessionId session;
  SimTime vnow = kHour;
  std::vector<MixFile> files;
  /// Files above (negative: below) the fill size.
  long excess = 0;
  /// Ops left in the current active session (0: the next op opens one)
  /// and the transition chain's last action in it.
  std::uint64_t ops_left = 0;
  std::optional<ClientAction> prev;
};

/// The mix's population, from the repository's workload model: profiles
/// from UserModel (class mix, Pareto activity multiplier); namespace sizes
/// from the engine's bootstrap rule (ParallelSimulation::bootstrap_phase:
/// exponential around bootstrap_files_mean scaled by class, a 2.5% tail
/// x40, capped at 4000); and as weight the expected storage ops per day
/// ClientAgent gives the user (sessions per day x P(active session) x mean
/// ops of an active session of its class).
std::vector<MixUser> make_population() {
  const UserModel model;
  double mean_ops[kUserClassCount];
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    Rng draws(kPopulationSeed + c);
    constexpr int kDraws = 100000;
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i)
      sum += static_cast<double>(
          model.sample_session_ops(static_cast<UserClass>(c), draws));
    mean_ops[c] = sum / kDraws;
  }
  const double files_mean = SimulationConfig{}.bootstrap_files_mean;
  Rng rng(kPopulationSeed);
  std::vector<MixUser> users(kUsers);
  for (std::size_t i = 0; i < kUsers; ++i) {
    MixUser& u = users[i];
    u.uid = UserId{1000 + i};
    u.profile = model.sample(rng);
    double mean = files_mean;
    switch (u.profile.user_class) {
      case UserClass::kOccasional: mean *= 0.4; break;
      case UserClass::kUploadOnly: mean *= 2.0; break;
      case UserClass::kDownloadOnly: mean *= 1.5; break;
      case UserClass::kHeavy: mean *= 4.0; break;
    }
    double n = -mean * std::log(1.0 - rng.uniform());
    if (rng.chance(0.025)) n *= 40.0;
    u.target_files = static_cast<std::size_t>(std::min(n, 4000.0));
    const double p_active =
        std::min(0.65, u.profile.active_session_prob *
                           std::max(0.25, u.profile.activity));
    u.rate = u.profile.sessions_per_day * p_active *
             mean_ops[static_cast<std::size_t>(u.profile.user_class)];
  }
  return users;
}

/// Where requests go: the live daemon over a socket, or (traced replay)
/// an in-process back-end.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::optional<Response> call(const Request& q) = 0;
};

std::size_t op_slot(ProtoOp op) {
  for (std::size_t i = 0; i < std::size(kTimedOps); ++i)
    if (kTimedOps[i] == op) return i;
  return std::size(kTimedOps);
}

/// Per-op latency samples in microseconds, one vector per kTimedOps slot.
struct OpTimes {
  std::vector<double> us[std::size(kTimedOps)];
  void add(ProtoOp op, double micros) {
    const std::size_t s = op_slot(op);
    if (s < std::size(kTimedOps)) us[s].push_back(micros);
  }
  void merge(OpTimes& o) {
    for (std::size_t i = 0; i < std::size(kTimedOps); ++i)
      us[i].insert(us[i].end(), o.us[i].begin(), o.us[i].end());
  }
};

class NetTransport final : public Transport {
 public:
  NetTransport(std::uint16_t port, bool time_codec) : time_codec_(time_codec) {
    connected_ = client_.connect_loopback(port);
  }
  bool connected() const { return connected_; }

  std::optional<Response> call(const Request& q) override {
    const auto t0 = Clock::now();
    std::optional<Response> r;
    if (!time_codec_) {
      r = client_.call(q);
    } else {
      const std::vector<std::uint8_t> frame = encode_request_frame(q);
      const auto te = Clock::now();
      encode_ns += std::chrono::duration<double, std::nano>(te - t0).count();
      r = client_.send_bytes(frame.data(), frame.size())
              ? client_.recv_response()
              : std::nullopt;
    }
    rtt.add(q.op, std::chrono::duration<double, std::micro>(Clock::now() - t0)
                      .count());
    if (r && time_codec_) {
      // The client decodes inside recv_response(); time the same decode
      // on an identical frame, outside the round trip.
      const std::vector<std::uint8_t> rframe = encode_response_frame(*r);
      Response back;
      const auto td = Clock::now();
      decode_response_frame(rframe.data(), rframe.size(), back);
      decode_ns += std::chrono::duration<double, std::nano>(Clock::now() - td)
                       .count();
      ++frames;
    }
    ++requests;
    return r;
  }

  OpTimes rtt;
  std::uint64_t requests = 0;
  std::uint64_t frames = 0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;

 private:
  BlockingClient client_;
  bool connected_ = false;
  bool time_codec_;
};

class LocalTransport final : public Transport {
 public:
  explicit LocalTransport(U1Backend& backend) : backend_(backend) {}
  std::optional<Response> call(const Request& q) override {
    const auto t0 = Clock::now();
    Response r = backend_.call(q);
    calls.add(q.op, std::chrono::duration<double, std::micro>(
                        Clock::now() - t0).count());
    return r;
  }
  OpTimes calls;

 private:
  U1Backend& backend_;
};

/// Outcome of one connection's share of the run.
struct ConnResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sent = 0;  // storage ops sent during the load steps
  std::uint64_t connect_retries = 0;
  std::uint64_t uploads_ok = 0;
  std::uint64_t downloads_ok = 0;
  std::uint64_t ops[std::size(kMixOpNames)] = {};
  std::uint64_t files_verified = 0;
  std::uint64_t files_end = 0;
  std::uint64_t unlinked_gone = 0;
  std::vector<std::string> errors;
  // Per step: storage-op latency from due time, and send lateness (ms).
  std::vector<double> lat_ms[kSteps];
  std::vector<double> late_ms[kSteps];
  std::vector<double> due_s[kSteps];  // due time, seconds into the step
  double step_last_done[kSteps] = {};
  std::uint64_t step_done[kSteps] = {};
};

/// Self-test hook: one deliberate disagreement between the server and
/// the generator's model, which the final verification must catch.
enum class Sabotage : std::uint8_t {
  kNone,
  kLeftover,  // one unlink is not sent, but the model drops the file
  kMissing,   // one unlink is sent, but the model keeps the file
};

/// One connection's users and the seeded sequence it runs. The same
/// (seed, connection) always yields the same request sequence; only node
/// ids come back from the server.
class MixConnection {
 public:
  MixConnection(std::uint64_t seed, std::size_t conn,
                std::vector<MixUser>& all_users,
                Sabotage sabotage = Sabotage::kNone)
      : rng_(seed * 0x100000001b3ull + conn + 1),
        content_pool_(0.20, 0.9, seed * 0x100000001b3ull + conn + 1),
        sabotage_(sabotage) {
    double acc = 0.0;
    for (std::size_t i = conn; i < all_users.size(); i += kConns) {
      users_.push_back(&all_users[i]);
      cum_.push_back(acc += all_users[i].rate);
    }
  }

  /// Registers, connects and fills every user's namespace.
  bool fill(Transport& t, ConnResult& res) {
    for (MixUser* u : users_) {
      Request reg;
      reg.op = ProtoOp::kRegisterUser;
      reg.user = u->uid;
      reg.now = u->vnow;
      const auto acc = expect(t, *u, reg, res, "RegisterUser");
      if (!acc) return false;
      u->volume = acc->volume;
      u->root = acc->root_dir;
      // Authentication fails transiently (the paper's 2.76%): retry.
      for (int attempt = 0;; ++attempt) {
        Request conn;
        conn.op = ProtoOp::kConnect;
        conn.user = u->uid;
        conn.now = u->vnow;
        ++res.attempted;
        const auto s = t.call(conn);
        if (!s) return dead(res, "Connect: connection lost");
        u->vnow = std::max(u->vnow, s->end);
        if (s->ok()) {
          u->session = s->session;
          break;
        }
        ++res.connect_retries;
        if (attempt >= 20) return fail(res, "Connect: retries exhausted");
      }
      for (std::size_t f = 0; f < u->target_files; ++f)
        if (!write_file(t, *u, res)) return false;
    }
    // Sharers (UserProfile::sharer) share their root volume with the next
    // user of the connection, as the engine's set-up does; changes to a
    // shared volume go out on the notification queue.
    for (std::size_t k = 0; users_.size() > 1 && k < users_.size(); ++k) {
      MixUser& u = *users_[k];
      if (!u.profile.sharer) continue;
      Request sh;
      sh.op = ProtoOp::kShareVolume;
      sh.user = u.uid;
      sh.peer = users_[(k + 1) % users_.size()]->uid;
      sh.volume = u.volume;
      sh.now = u.vnow;
      if (!expect(t, u, sh, res, "ShareVolume")) return false;
    }
    return true;
  }

  /// Sends the next `ops` ops of the sequence back to back (closed loop).
  void replay(Transport& t, ConnResult& res, std::size_t ops) {
    for (std::size_t i = 0; i < ops && alive_; ++i) {
      const auto [u, op] = next_op();
      run_op(t, *u, op, res);
    }
  }

  /// Runs the open-loop steps. `start` is the shared due-time origin;
  /// paced=false replays the same sequence back to back.
  void load(Transport& t, ConnResult& res, Clock::time_point start,
            double seconds, bool paced) {
    double due = 0.0;  // seconds since start
    for (std::size_t s = 0; s < kSteps; ++s) {
      const double rate = kRates[s] / kConns;
      const double step_begin = step_start(s, seconds);
      const double step_end = step_start(s + 1, seconds);
      due = std::max(due, step_begin);
      for (;;) {
        due += -std::log(1.0 - rng_.uniform()) / rate;
        if (due >= step_end) {
          due = step_end;
          break;
        }
        const auto [u, op] = next_op();
        if (!alive_) {
          // A dead daemon fails every op still scheduled.
          ++res.attempted;
          ++res.failed;
          continue;
        }
        const auto due_tp =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due));
        if (paced) std::this_thread::sleep_until(due_tp);
        const auto sent_tp = Clock::now();
        ++res.sent;
        if (!run_op(t, *u, op, res)) continue;
        const auto done_tp = Clock::now();
        if (paced) {
          res.lat_ms[s].push_back(1e3 * secs(due_tp, done_tp));
          res.late_ms[s].push_back(1e3 * std::max(0.0, secs(due_tp, sent_tp)));
          res.due_s[s].push_back(due - step_begin);
          res.step_last_done[s] = secs(start, done_tp);
          ++res.step_done[s];
        }
      }
    }
  }

  /// Returns every namespace to its fill size.
  void settle(Transport& t, ConnResult& res) {
    for (MixUser* u : users_) {
      while (alive_ && u->excess > 0 && unlink_file(t, *u, res)) {}
      while (alive_ && u->excess < 0 && write_file(t, *u, res)) ++u->excess;
    }
  }

  /// Checks the server against the model: each volume answers GetDelta,
  /// every modelled file downloads with its uploaded size, and every file
  /// the connection unlinked is gone.
  void verify(Transport& t, ConnResult& res) {
    for (MixUser* u : users_) {
      if (u->files.size() != u->target_files)
        fail(res, "namespace size differs from its fill size");
      Request gd;
      gd.op = ProtoOp::kGetDelta;
      gd.session = u->session;
      gd.volume = u->volume;
      gd.now = u->vnow;
      if (!expect(t, *u, gd, res, "GetDelta")) return;
      for (const MixFile& f : u->files) {
        const auto r = download(t, *u, f, res);
        if (!r) return;
        if (*r) ++res.files_verified;
      }
      res.files_end += u->files.size();
    }
    for (const auto& [u, node] : unlinked_) {
      Request dl;
      dl.op = ProtoOp::kDownload;
      dl.session = u->session;
      dl.node = node;
      dl.now = u->vnow;
      ++res.attempted;
      const auto r = t.call(dl);
      if (!r) {
        dead(res, "Download: connection lost");
        return;
      }
      if (r->status == Status::kError)
        ++res.unlinked_gone;
      else
        fail(res, "Download of an unlinked file did not fail");
    }
  }

  std::size_t unlinked() const { return unlinked_.size(); }

 private:
  /// The next op: a user drawn by weight, then the op its session and
  /// transition chain give. An active session opens with the ListVolumes
  /// handshake; chain steps the mix does not send (Move, MakeDir,
  /// CreateUDF, DeleteVolume) are skipped.
  std::pair<MixUser*, MixOp> next_op() {
    const double x = rng_.uniform() * cum_.back();
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), x);
    MixUser& u = *users_[std::min<std::size_t>(it - cum_.begin(),
                                               users_.size() - 1)];
    const UserClass cls = u.profile.user_class;
    if (u.ops_left == 0) {
      u.ops_left = user_model_.sample_session_ops(cls, rng_);
      u.prev.reset();
      return {&u, MixOp::kListVolumes};
    }
    --u.ops_left;
    ClientAction a;
    do {
      a = u.prev ? chain_.next(*u.prev, cls, rng_) : chain_.initial(cls, rng_);
      u.prev = a;
    } while (a != ClientAction::kUploadNew &&
             a != ClientAction::kUploadUpdate &&
             a != ClientAction::kDownload && a != ClientAction::kUnlink &&
             a != ClientAction::kGetDelta);
    const bool empty = u.files.empty();
    switch (a) {
      case ClientAction::kUploadNew:
        return {&u, u.excess < kMaxExcess ? MixOp::kWrite : MixOp::kUpdate};
      case ClientAction::kUploadUpdate:
        return {&u, empty ? MixOp::kWrite : MixOp::kUpdate};
      case ClientAction::kUnlink:
        if (empty) return {&u, MixOp::kListVolumes};
        return {&u, u.excess > -kMaxExcess ? MixOp::kUnlink
                                           : MixOp::kDownload};
      case ClientAction::kDownload:
        return {&u, empty ? MixOp::kListVolumes : MixOp::kDownload};
      default:
        return {&u, MixOp::kGetDelta};
    }
  }

  bool run_op(Transport& t, MixUser& u, MixOp op, ConnResult& res) {
    ++res.ops[static_cast<std::size_t>(op)];
    switch (op) {
      case MixOp::kWrite:
        if (!write_file(t, u, res)) return false;
        ++u.excess;
        return true;
      case MixOp::kUpdate:
        return update_file(t, u, res);
      case MixOp::kUnlink:
        return unlink_file(t, u, res);
      case MixOp::kDownload: {
        const auto r = download(t, u, u.files[rng_.below(u.files.size())],
                                res);
        return r && *r;
      }
      case MixOp::kGetDelta: {
        Request gd;
        gd.op = ProtoOp::kGetDelta;
        gd.session = u.session;
        gd.volume = u.volume;
        gd.now = u.vnow;
        return expect(t, u, gd, res, "GetDelta").has_value();
      }
      case MixOp::kListVolumes: {
        Request lv;
        lv.op = ProtoOp::kListVolumes;
        lv.session = u.session;
        lv.now = u.vnow;
        return expect(t, u, lv, res, "ListVolumes").has_value();
      }
    }
    return false;
  }

  /// Downloads `f`: nullopt if the connection died, else whether the
  /// server returned the modelled size.
  std::optional<bool> download(Transport& t, MixUser& u, const MixFile& f,
                               ConnResult& res) {
    Request dl;
    dl.op = ProtoOp::kDownload;
    dl.session = u.session;
    dl.node = f.node;
    dl.now = u.vnow;
    const auto r = expect(t, u, dl, res, "Download");
    if (!r) return alive_ ? std::optional<bool>(false) : std::nullopt;
    if (r->transferred_bytes != f.size)
      return fail(res, "Download: size differs from the uploaded size");
    return true;
  }

  /// MakeFile + Upload of a fresh file: extension and size from the
  /// workload's FileModel, content (fresh, or a copy of circulating
  /// content, which the server deduplicates) from its ContentPool.
  bool write_file(Transport& t, MixUser& u, ConnResult& res) {
    char name[17];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(rng_.next()));
    const FileSpec spec = file_model_.sample(rng_);
    const ContentDraw content = content_pool_.draw(spec, rng_);
    Request mk;
    mk.op = ProtoOp::kMakeFile;
    mk.session = u.session;
    mk.volume = u.volume;
    mk.parent = u.root;
    mk.set_name_hash(name);
    mk.set_extension(spec.extension);
    mk.now = u.vnow;
    const auto mr = expect(t, u, mk, res, "MakeFile");
    if (!mr) return false;
    if (mr->node.is_nil()) return fail(res, "MakeFile: no node id");
    const MixFile f{mr->node, std::max<std::uint64_t>(1, content.size_bytes)};
    if (!upload(t, u, f, content.id, false, res)) return false;
    u.files.push_back(f);
    return true;
  }

  /// Upload of new content over an existing file (FileModel's update
  /// size).
  bool update_file(Transport& t, MixUser& u, ConnResult& res) {
    MixFile& f = u.files[rng_.below(u.files.size())];
    FileSpec original;
    original.size_bytes = f.size;
    const MixFile updated{f.node, file_model_.sample_update_size(original,
                                                                 rng_)};
    const ContentDraw content = content_pool_.draw_update(updated.size, rng_);
    if (!upload(t, u, updated, content.id, true, res)) return false;
    f.size = updated.size;
    return true;
  }

  bool upload(Transport& t, MixUser& u, const MixFile& f,
              const ContentId& content, bool is_update, ConnResult& res) {
    Request up;
    up.op = ProtoOp::kUpload;
    up.session = u.session;
    up.node = f.node;
    up.content = content;
    up.size_bytes = f.size;
    up.set_is_update(is_update);
    up.now = u.vnow;
    return expect(t, u, up, res, "Upload").has_value();
  }

  bool unlink_file(Transport& t, MixUser& u, ConnResult& res) {
    if (u.files.empty()) return fail(res, "Unlink: model has no file");
    const std::size_t i = rng_.below(u.files.size());
    const Sabotage sabotage = std::exchange(sabotage_, Sabotage::kNone);
    if (sabotage != Sabotage::kLeftover) {
      Request ul;
      ul.op = ProtoOp::kUnlink;
      ul.session = u.session;
      ul.node = u.files[i].node;
      ul.now = u.vnow;
      if (!expect(t, u, ul, res, "Unlink")) return false;
    }
    if (sabotage == Sabotage::kMissing) return true;  // the model keeps it
    --u.excess;
    unlinked_.emplace_back(&u, u.files[i].node);
    u.files[i] = u.files.back();
    u.files.pop_back();
    return true;
  }

  /// Sends `q`, requires kOk; advances the user's virtual clock.
  std::optional<Response> expect(Transport& t, MixUser& u, const Request& q,
                                 ConnResult& res, const char* what) {
    ++res.attempted;
    const auto r = t.call(q);
    if (!r) {
      dead(res, std::string(what) + ": connection lost");
      return std::nullopt;
    }
    if (!r->ok()) {
      fail(res, std::string(what) + ": status " +
                    std::string(to_string(r->status)));
      return std::nullopt;
    }
    if (q.op == ProtoOp::kUpload) ++res.uploads_ok;
    if (q.op == ProtoOp::kDownload) ++res.downloads_ok;
    u.vnow = std::max(u.vnow, r->end);
    return r;
  }

  bool fail(ConnResult& res, const std::string& why) {
    ++res.failed;
    if (res.errors.size() < 8) res.errors.push_back(why);
    return false;
  }
  bool dead(ConnResult& res, const std::string& why) {
    alive_ = false;
    return fail(res, why);
  }

  Rng rng_;
  const UserModel user_model_;
  const TransitionModel chain_;
  const FileModel file_model_;
  ContentPool content_pool_;
  std::vector<MixUser*> users_;
  std::vector<double> cum_;
  std::vector<std::pair<MixUser*, NodeId>> unlinked_;
  Sabotage sabotage_;
  bool alive_ = true;
};

/// CPU time a process's main thread has run, in microseconds
/// (/proc/PID/schedstat; 0 when unavailable).
double task_cpu_us(long pid) {
  if (pid <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/schedstat");
  double ns = 0.0;
  in >> ns;
  return ns / 1e3;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

Json op_quantiles(OpTimes& t, const char* prefix_p50, const char* prefix_p99) {
  Json j;
  for (std::size_t i = 0; i < std::size(kTimedOps); ++i) {
    std::sort(t.us[i].begin(), t.us[i].end());
    const std::string op(to_string(kTimedOps[i]));
    j.num(std::string(prefix_p50) + op, quantile(t.us[i], 0.50));
    j.num(std::string(prefix_p99) + op, quantile(t.us[i], 0.99));
  }
  return j;
}

std::string num_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

/// Per-step latency and lateness summary of the open-loop load.
std::string steps_json(const std::vector<ConnResult>& results,
                       double seconds) {
  std::string steps = "[";
  for (std::size_t s = 0; s < kSteps; ++s) {
    const double begin = step_start(s, seconds);
    const double len = step_start(s + 1, seconds) - begin;
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, std::floor(len / kWindowS)));
    std::vector<std::vector<double>> lat_w(windows), late_w(windows);
    std::vector<double> lat, late_first, late_last;
    double last_done = 0.0;
    std::uint64_t done = 0;
    for (const ConnResult& r : results) {
      for (std::size_t i = 0; i < r.lat_ms[s].size(); ++i) {
        const double due = r.due_s[s][i];
        const std::size_t w = std::min(
            windows - 1, static_cast<std::size_t>(due / kWindowS));
        lat_w[w].push_back(r.lat_ms[s][i]);
        late_w[w].push_back(r.late_ms[s][i]);
        lat.push_back(r.lat_ms[s][i]);
        if (due < 0.25 * len) late_first.push_back(r.late_ms[s][i]);
        if (due >= 0.75 * len) late_last.push_back(r.late_ms[s][i]);
      }
      last_done = std::max(last_done, r.step_last_done[s]);
      done += r.step_done[s];
    }
    for (auto* v : {&lat, &late_first, &late_last})
      std::sort(v->begin(), v->end());
    // Median over windows of each window's p99.
    const auto windowed_p99 = [](std::vector<std::vector<double>>& ws) {
      std::vector<double> p;
      for (auto& w : ws) {
        if (w.empty()) continue;
        std::sort(w.begin(), w.end());
        p.push_back(quantile(w, 0.99));
      }
      std::sort(p.begin(), p.end());
      return quantile(p, 0.5);
    };
    Json js;
    js.num("offered_rps", kRates[s])
        .num("seconds", len)
        .u64("ops", done)
        .num("achieved_rps",
             last_done > begin ? static_cast<double>(done) / (last_done - begin)
                               : 0.0)
        .num("p50_ms", quantile(lat, 0.50))
        .num("p90_ms", quantile(lat, 0.90))
        .num("p99_ms", windowed_p99(lat_w))
        .num("p99_whole_ms", quantile(lat, 0.99))
        .num("late_p99_ms", windowed_p99(late_w))
        .num("late_first_p50_ms", quantile(late_first, 0.50))
        .num("late_last_p50_ms", quantile(late_last, 0.50));
    steps += (s ? ", " : "") + js.text();
  }
  return steps + "]";
}

int run_mix(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.num("port", 0));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const double seconds = static_cast<double>(args.num("seconds", 20));
  const bool traced = args.num("trace", 0) != 0;
  const bool no_load = args.num("no-load", 0) != 0;
  const long daemon_pid = args.num("daemon-pid", 0);
  const std::string sabotage_arg = args.get("sabotage", "none");
  if (port == 0) {
    std::fprintf(stderr, "u1perf mix: need --port\n");
    return 2;
  }
  const Sabotage sabotage = sabotage_arg == "leftover" ? Sabotage::kLeftover
                            : sabotage_arg == "missing" ? Sabotage::kMissing
                                                        : Sabotage::kNone;

  // --cpus a,b,c pins connection thread i to the i-th listed CPU (the
  // daemon runs on a CPU of its own, set by run.py).
  std::vector<int> cpus;
  for (std::string list = args.get("cpus"); !list.empty();) {
    const std::size_t comma = list.find(',');
    cpus.push_back(std::atoi(list.substr(0, comma).c_str()));
    list = comma == std::string::npos ? "" : list.substr(comma + 1);
  }

  std::vector<MixUser> users = make_population();
  std::vector<std::unique_ptr<MixConnection>> conns;
  std::vector<std::unique_ptr<NetTransport>> nets;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<MixConnection>(
        seed, c, users, c == 0 ? sabotage : Sabotage::kNone));
    nets.push_back(std::make_unique<NetTransport>(port, traced));
    if (!nets.back()->connected()) {
      std::fprintf(stderr, "u1perf mix: cannot connect to port %u\n",
                   static_cast<unsigned>(port));
      return 1;
    }
  }
  std::vector<ConnResult> results(kConns);
  const auto each_conn = [&](const auto& body) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        if (!cpus.empty()) pin_to(cpus[c % cpus.size()]);
        body(c);
      });
    }
    for (auto& th : threads) th.join();
  };
  const auto sent_requests = [&] {
    std::uint64_t n = 0;
    for (const auto& net : nets) n += net->requests;
    return n;
  };

  // Set-up: every connection fills its users' namespaces concurrently.
  std::atomic<bool> fill_ok{true};
  const auto fill_t0 = Clock::now();
  each_conn([&](std::size_t c) {
    if (!conns[c]->fill(*nets[c], results[c])) fill_ok = false;
  });
  const double fill_wall = secs_since(fill_t0);

  // Closed-loop mix passes, one connection at a time, so the daemon sees
  // exactly one request in flight: every request then costs it the same
  // wake-up, read and write, and its CPU time per request is comparable
  // across runs.
  std::vector<double> pass_s;
  double mix_cpu_us = 0.0;
  std::uint64_t mix_requests = 0;
  if (fill_ok) {
    if (!cpus.empty()) pin_to(cpus[0]);
    const double cpu0 = task_cpu_us(daemon_pid);
    const std::uint64_t sent0 = sent_requests();
    for (std::size_t p = 0; p < kMixPasses; ++p) {
      const auto t0 = Clock::now();
      for (std::size_t c = 0; c < kConns; ++c)
        conns[c]->replay(*nets[c], results[c], kPassOps);
      pass_s.push_back(secs_since(t0));
    }
    mix_cpu_us = task_cpu_us(daemon_pid) - cpu0;
    mix_requests = sent_requests() - sent0;
  }

  // The open-loop load, then every namespace back to its fill size.
  if (fill_ok) {
    // Start the clock a little ahead so every thread begins on time.
    const auto origin = Clock::now() + std::chrono::milliseconds(20);
    each_conn([&](std::size_t c) {
      if (!no_load)
        conns[c]->load(*nets[c], results[c], origin, seconds, true);
      conns[c]->settle(*nets[c], results[c]);
    });
    for (std::size_t c = 0; c < kConns; ++c)
      conns[c]->verify(*nets[c], results[c]);
  }

  ConnResult total;
  std::uint64_t unlinked = 0;
  OpTimes rtt;
  double enc = 0.0, dec = 0.0;
  std::uint64_t frames = 0;
  std::vector<std::string> errors;
  for (std::size_t c = 0; c < kConns; ++c) {
    const ConnResult& r = results[c];
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.sent += r.sent;
    total.connect_retries += r.connect_retries;
    total.uploads_ok += r.uploads_ok;
    total.downloads_ok += r.downloads_ok;
    for (std::size_t i = 0; i < std::size(kMixOpNames); ++i)
      total.ops[i] += r.ops[i];
    total.files_verified += r.files_verified;
    total.files_end += r.files_end;
    total.unlinked_gone += r.unlinked_gone;
    unlinked += conns[c]->unlinked();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    rtt.merge(nets[c]->rtt);
    enc += nets[c]->encode_ns;
    dec += nets[c]->decode_ns;
    frames += nets[c]->frames;
  }
  std::uint64_t files_fill = 0;
  for (const MixUser& u : users) files_fill += u.target_files;
  std::string err_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i)
    err_list += (i ? ", \"" : "\"") + errors[i] + "\"";
  Json ops;
  for (std::size_t i = 0; i < std::size(kMixOpNames); ++i)
    ops.u64(kMixOpNames[i], total.ops[i]);

  Json out;
  out.str("workload", "mix")
      .u64("seed", seed)
      .boolean("traced", traced)
      .u64("users", kUsers)
      .u64("connections", kConns)
      .u64("files_fill", files_fill)
      .num("fill_s", fill_wall)
      .u64("attempted", total.attempted)
      .u64("failed", total.failed)
      .u64("requests", sent_requests())
      .u64("uploads", total.uploads_ok)
      .u64("downloads", total.downloads_ok)
      .u64("connect_retries", total.connect_retries)
      .raw("errors", err_list + "]")
      .obj("mix_ops", ops)
      .raw("mix_s", num_list(pass_s))
      .num("mix_cpu_us_per_request",
           mix_requests ? mix_cpu_us / static_cast<double>(mix_requests)
                        : 0.0)
      .raw("steps", steps_json(results, seconds))
      .u64("sent", total.sent)
      .u64("files_verified", total.files_verified)
      .u64("files_end", total.files_end)
      .u64("unlinked", unlinked)
      .u64("unlinked_gone", total.unlinked_gone)
      .obj("net", op_quantiles(rtt, "rtt_p50_us.", "rtt_p99_us."));

  if (traced) {
    const double per_frame = frames ? 1.0 / static_cast<double>(frames) : 0;
    out.obj("proto", Json()
                         .num("encode_ns", enc * per_frame)
                         .num("decode_ns", dec * per_frame)
                         .u64("frames", frames));
    // Replay the identical seeded sequence into an in-process back-end
    // (u1d's defaults: 10 shards, NullSink), one connection after the
    // other, timing each U1Backend::call().
    NullSink null;
    U1Backend backend(BackendConfig{}, null);
    LocalTransport local(backend);
    std::vector<MixUser> replay_users = make_population();
    ConnResult replay;
    for (std::size_t c = 0; c < kConns; ++c) {
      MixConnection conn(seed, c, replay_users);
      if (!conn.fill(local, replay)) continue;
      for (std::size_t p = 0; p < kMixPasses; ++p)
        conn.replay(local, replay, kPassOps);
      if (!no_load) conn.load(local, replay, Clock::now(), seconds, false);
      conn.settle(local, replay);
      conn.verify(local, replay);
    }
    const BackendStats& bs = backend.stats();
    const MetadataStore& store = backend.store();
    const AuthStats& as = backend.auth().stats();
    Json server = op_quantiles(local.calls, "call_p50_us.", "call_p99_us.");
    server.u64("rpcs", bs.rpcs)
        .u64("dedup_hits", bs.dedup_hits)
        .u64("failed", replay.failed)
        .u64("total_nodes", store.total_nodes())
        .u64("total_users", store.total_users())
        .num("volume_nodes_mean",
             static_cast<double>(store.total_nodes()) /
                 static_cast<double>(
                     std::max<std::size_t>(1, store.total_users())))
        .u64("auth_requests", as.issue_requests + as.verify_requests)
        .u64("auth_failures", as.failures)
        .u64("objects", backend.s3().object_count())
        .u64("notifications", bs.notifications);
    out.obj("server", server);
  }
  emit(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s month|mix ...\n", argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (cmd == "month") return run_month(args);
    if (cmd == "mix") return run_mix(args);
    if (cmd == "build-info") {
      emit(Json()
               .str("compiler", U1PERF_COMPILER)
               .str("build_type", U1PERF_BUILD_TYPE));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "u1perf %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "u1perf: unknown command %s\n", cmd.c_str());
  return 2;
}
