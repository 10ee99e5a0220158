#include "trace/logfile.hpp"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "trace/binlog.hpp"
#include "util/csv.hpp"

namespace u1 {

namespace {

/// Logfile day of a record. Mirrors trace_date(): pre-trace bootstrap
/// records (t < 0) all land on the epoch date, so they share day 0.
std::int64_t day_of(SimTime t) noexcept { return t < 0 ? 0 : t / kDay; }

/// (machine, process): the logfile key within one day.
std::uint32_t process_key(const TraceRecord& r) noexcept {
  return (static_cast<std::uint32_t>(r.machine.value) << 16) |
         r.process.value;
}

/// CPU seconds the calling thread has run.
double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

LogfileSink::LogfileSink(std::filesystem::path directory,
                         FileWriter write_file)
    : dir_(std::move(directory)), write_file_(write_file) {
  std::filesystem::create_directories(dir_);
}

LogfileSink::~LogfileSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() reports errors.
  }
}

void LogfileSink::append_batch(const TraceRecord* records,
                               std::size_t count) {
  if (task_failed_.load(std::memory_order_acquire)) join_task();
  for (std::size_t i = 0; i < count;) {
    // Copy each run of same-day records in one insert.
    const std::int64_t day = day_of(records[i].t);
    const SimTime begin =
        day == 0 ? std::numeric_limits<SimTime>::min() : day * kDay;
    const SimTime end = (day + 1) * kDay;
    std::size_t j = i + 1;
    while (j < count && records[j].t >= begin && records[j].t < end) ++j;
    std::vector<TraceRecord>& buffer = buffer_for(day, records[i]);
    buffer.insert(buffer.end(), records + i, records + j);
    i = j;
  }
  records_ += count;
}

std::vector<TraceRecord>& LogfileSink::buffer_for(std::int64_t day,
                                                  const TraceRecord& first) {
  if (day < retired_below_)
    throw std::logic_error("LogfileSink: record for " + first.logname() +
                           " arrived after that logfile was written "
                           "(records must arrive in day order, less than "
                           "one day late)");
  if (head_ < 0 || day == head_ + 1) {  // see the class comment
    head_ = day;
    retire_below(head_ - 1);
  }
  auto it = open_.begin();
  while (it != open_.end() && it->index < day) ++it;
  if (it != open_.end() && it->index == day) return it->records;
  Day fresh{day, {}};
  if (!spare_.empty()) {
    fresh.records = std::move(spare_.back());
    spare_.pop_back();
  }
  return open_.insert(it, std::move(fresh))->records;
}

void LogfileSink::retire_below(std::int64_t day) {
  if (day <= retired_below_) return;
  retired_below_ = day;
  std::vector<std::vector<TraceRecord>> batch;
  auto it = open_.begin();
  for (; it != open_.end() && it->index < day; ++it)
    batch.push_back(std::move(it->records));
  open_.erase(open_.begin(), it);
  if (batch.empty()) return;
  join_task();  // backpressure: one retire task in flight
  task_days_ = std::move(batch);
  task_ = std::thread(&LogfileSink::write_days, this);
}

void LogfileSink::join_task() {
  if (!task_.joinable()) return;
  task_.join();
  bytes_written_ += task_bytes_;
  retire_busy_s_ += task_busy_s_;
  task_bytes_ = 0;
  task_busy_s_ = 0.0;
  // Keep retired capacity for later days, but not a buffer far larger
  // than the complete day now buffered: the epoch day also carries the
  // pre-trace bootstrap corpus, several trace days' worth of records,
  // and keeping its buffer would pin that memory for the whole run.
  std::size_t typical = 0;
  for (const Day& day : open_) typical = std::max(typical, day.records.size());
  for (auto& records : task_days_) {
    if (records.capacity() > 4 * typical) continue;  // freed below
    records.clear();
    spare_.push_back(std::move(records));
  }
  task_days_.clear();
  if (task_error_) {
    task_failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(task_error_, nullptr));
  }
}

void LogfileSink::write_days() noexcept {
  // CPU time, not wall time: the task shares the cores with the
  // simulation's workers and is descheduled when they oversubscribe them.
  const double t0 = thread_cpu_s();
  try {
    for (const auto& records : task_days_) write_day(records);
  } catch (...) {
    task_error_ = std::current_exception();
    task_failed_.store(true, std::memory_order_release);
  }
  task_busy_s_ = thread_cpu_s() - t0;
}

void LogfileSink::write_day(const std::vector<TraceRecord>& records) {
  // Counting sort of record indices by (machine, process), then each
  // logfile's records gathered, in arrival order, into one contiguous
  // buffer for its whole-file write.
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_key;
  task_slot_.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto next = static_cast<std::uint32_t>(slot_of_key.size());
    task_slot_[i] =
        slot_of_key.try_emplace(process_key(records[i]), next).first->second;
  }
  std::vector<std::size_t> start(slot_of_key.size() + 1, 0);
  for (const std::uint32_t slot : task_slot_) ++start[slot + 1];
  for (std::size_t s = 1; s < start.size(); ++s) start[s] += start[s - 1];
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  task_order_.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    task_order_[fill[task_slot_[i]]++] = static_cast<std::uint32_t>(i);
  for (std::size_t s = 0; s + 1 < start.size(); ++s) {
    task_file_.clear();
    for (std::size_t k = start[s]; k < start[s + 1]; ++k)
      task_file_.push_back(records[task_order_[k]]);
    task_bytes_ += write_file_(dir_, task_file_);
  }
}

void LogfileSink::close() {
  retire_below(std::numeric_limits<std::int64_t>::max());
  join_task();
}

LogfileWriter::LogfileWriter(std::filesystem::path directory)
    : LogfileSink(std::move(directory), write_csv_logfile) {}

void check_one_logfile(std::span<const TraceRecord> records) {
  if (records.empty()) return;
  const TraceRecord& front = records.front();
  const std::uint32_t key = process_key(front);
  const std::int64_t day = day_of(front.t);
  for (const TraceRecord& r : records)
    if (process_key(r) != key || day_of(r.t) != day)
      throw std::runtime_error("record for " + r.logname() +
                               " among the records of " + front.logname() +
                               " (a logfile holds one machine, process "
                               "and day)");
}

std::uint64_t write_csv_logfile(const std::filesystem::path& directory,
                                std::span<const TraceRecord> records) {
  if (records.empty()) return 0;
  check_one_logfile(records);
  const std::filesystem::path path =
      directory / (records.front().logname() + ".csv");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open())
    throw std::runtime_error("LogfileWriter: cannot open " + path.string());
  CsvWriter writer(out);
  writer.write_row(TraceRecord::csv_header());
  for (const TraceRecord& r : records) writer.write_row(r.to_csv());
  const auto bytes = static_cast<std::uint64_t>(out.tellp());
  out.close();
  if (!out)
    throw std::runtime_error("LogfileWriter: write failed for " +
                             path.string());
  return bytes;
}

ReadStats read_logfile(const std::filesystem::path& file,
                       std::vector<TraceRecord>& out) {
  ReadStats stats;
  std::ifstream in(file, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("read_logfile: cannot open " + file.string());
  {  // sniff the leading magic: binary logfiles are never valid CSV
    unsigned char magic[8] = {};
    in.read(reinterpret_cast<char*>(magic),
            static_cast<std::streamsize>(sizeof(magic)));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (is_binary_logfile_magic(magic, got)) {
      in.close();
      return read_binary_logfile(file, out);
    }
    in.clear();
    in.seekg(0);
  }
  stats.files = 1;
  std::error_code ec;
  const auto size = std::filesystem::file_size(file, ec);
  if (!ec) stats.bytes_read += size;
  CsvReader reader(in);
  std::vector<std::string> fields;
  bool first = true;
  while (reader.next(fields)) {
    ++stats.rows;
    if (first) {
      first = false;
      if (!fields.empty() && fields[0] == "t_us") continue;  // header
    }
    if (auto rec = TraceRecord::from_csv(fields)) {
      out.push_back(std::move(*rec));
      ++stats.parsed;
    } else {
      ++stats.malformed;
    }
  }
  stats.malformed += reader.error_count();
  stats.rows += reader.error_count();
  return stats;
}

ReadStats read_logfiles(const std::filesystem::path& directory,
                        TraceSink& sink) {
  ReadStats stats;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("production-")) continue;
    // Symbol sidecars ride along with their .u1b logfile; they are not
    // logfiles themselves.
    if (entry.path().extension() == kSymbolSidecarExt) continue;
    paths.push_back(entry.path());
  }
  // Directory iteration order is unspecified; name order makes the merge
  // (and any tie-breaking below) deterministic across filesystems.
  std::sort(paths.begin(), paths.end());
  std::vector<TraceRecord> all;
  for (const auto& path : paths) stats.add(read_logfile(path, all));
  // CSV serialization prints t as unsigned, so pre-trace bootstrap
  // records (t < 0) have never survived the text parse — they count as
  // malformed rows. Binary files decode them losslessly; drop them here
  // so analyzers see the identical stream whichever format the
  // directory holds. (Raw per-file access — read_logfile, `u1trace
  // convert` — still delivers every record.)
  const auto dropped = static_cast<std::uint64_t>(
      all.end() - std::remove_if(all.begin(), all.end(),
                                 [](const TraceRecord& r) { return r.t < 0; }));
  all.resize(all.size() - dropped);
  stats.parsed -= dropped;
  stats.malformed += dropped;
  // Stable sort keeps intra-process (already causal) order for ties.
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.t < b.t;
                   });
  sink.append_batch(all.data(), all.size());
  return stats;
}

}  // namespace u1
