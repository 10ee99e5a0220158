// Logfile persistence matching the paper's collection methodology (§4):
// "Each logfile corresponds to the entire activity of a single API/RPC
// process in a machine for a period of time ... there is one log file per
// server/service and day", named production-<machine>-<proc>-<date>.
// The writer shards records into such files; the reader merges a directory
// of them back into timestamp order, tolerating malformed lines (~1% in
// the real dataset).
//
// Two on-disk formats share the sharding rule and the reader API: the
// original CSV logfiles (this header) and the binary columnar `.u1b`
// format (trace/binlog.hpp). read_logfile sniffs the leading magic, so a
// directory may freely mix both; read_logfiles merges either kind into
// one timestamp-ordered stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace u1 {

/// Common core of the per-(machine, process, day) logfile writers — CSV
/// LogfileWriter and binary BinaryLogfileWriter — so engines, tools and
/// benches select a trace format without caring which.
///
/// A logfile is one process-day (paper §4), so it is complete once its
/// day has passed. Records are buffered per day in arrival order; when
/// the stream head reaches day h, every buffered day below h - 1 is
/// retired: one background task writes each of its logfiles whole, one
/// file (one fd) at a time, while the producer keeps appending. Only one
/// task is in flight — the next retirement joins the previous one first,
/// and that join bounds memory to about two days of records.
///
/// The head starts at the first record's day and moves one day at a
/// time, on the first record of the day after it. A record further
/// ahead — a transfer's completion, stamped with its end time up to
/// days after the request that emitted it — is buffered in its own day
/// and moves nothing. (A day with no records at all therefore stops
/// retirement: later days stay buffered until close().)
///
/// Day-order contract: the stream is t-ordered with under one day of
/// lag, apart from such records ahead of it (stage B, the distributed
/// merge and read_logfiles all are). A record for a day already retired
/// throws std::logic_error naming its logfile; a written file is never
/// reopened or truncated. A write error in the task is rethrown by the
/// next append_batch() or close().
class LogfileSink : public TraceSink {
 public:
  /// Closes (joins the retire task); a write error is swallowed here —
  /// call close() to see it.
  ~LogfileSink() override;
  LogfileSink(const LogfileSink&) = delete;
  LogfileSink& operator=(const LogfileSink&) = delete;

  void append(const TraceRecord& record) override {
    append_batch(&record, 1);
  }
  void append_batch(const TraceRecord* records, std::size_t count) override;
  /// Retires every buffered day and waits until all files are on disk;
  /// rethrows a write error. Idempotent.
  void close();

  /// Records appended so far.
  std::uint64_t records_written() const noexcept { return records_; }
  /// Bytes handed to the filesystem by joined retire tasks (every byte
  /// of the trace once close() has returned).
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// CPU seconds the retire tasks spent writing logfiles, summed over
  /// joined tasks (every task once close() has returned): the encoder's
  /// cost, which no longer shows on the caller's thread.
  double retire_busy_s() const noexcept { return retire_busy_s_; }

 protected:
  /// Writes one whole logfile — every record of one (machine, process,
  /// day), in arrival order — into a directory; returns the bytes
  /// written. Runs on the retire task.
  using FileWriter = std::uint64_t (*)(const std::filesystem::path& directory,
                                       std::span<const TraceRecord> records);

  LogfileSink(std::filesystem::path directory, FileWriter write_file);

 private:
  struct Day {
    std::int64_t index = 0;
    std::vector<TraceRecord> records;  // arrival order
  };

  std::vector<TraceRecord>& buffer_for(std::int64_t day,
                                       const TraceRecord& first);
  void retire_below(std::int64_t day);
  void join_task();
  void write_days() noexcept;
  void write_day(const std::vector<TraceRecord>& records);

  std::filesystem::path dir_;
  const FileWriter write_file_;
  std::vector<Day> open_;  // buffered days, ascending (about two)
  std::int64_t head_ = -1;            // stream head day (-1: no record yet)
  std::int64_t retired_below_ = 0;    // days below this are written
  std::vector<std::vector<TraceRecord>> spare_;  // retired capacity
  std::uint64_t records_ = 0;
  std::uint64_t bytes_written_ = 0;
  double retire_busy_s_ = 0.0;

  // The retire task's state. Producer-side code touches it only after
  // joining the task (task_failed_ excepted).
  std::vector<std::vector<TraceRecord>> task_days_;
  std::vector<std::uint32_t> task_slot_;   // file slot of each record
  std::vector<std::uint32_t> task_order_;  // record indices, by file
  std::vector<TraceRecord> task_file_;     // one logfile's records
  std::uint64_t task_bytes_ = 0;
  double task_busy_s_ = 0.0;
  std::exception_ptr task_error_;
  std::atomic<bool> task_failed_{false};
  std::thread task_;  // after everything the task uses
};

/// Writes records into per-(machine, process, day) CSV logfiles under a
/// directory. Files carry a header row.
class LogfileWriter final : public LogfileSink {
 public:
  explicit LogfileWriter(std::filesystem::path directory);
};

/// Throws std::runtime_error unless every record belongs to the logfile
/// of the first — same machine, process and day. The whole-file writers
/// name a file, and stamp its header, from the first record alone.
void check_one_logfile(std::span<const TraceRecord> records);

/// Writes `records` — all of one logfile, kept in the order given — as
/// "<directory>/<logname>.csv": the header row, then one row per record.
/// Opens, writes and closes the file; returns the bytes written (0, and
/// no file, for an empty span). Throws std::runtime_error if the records
/// span several logfiles (check_one_logfile).
std::uint64_t write_csv_logfile(const std::filesystem::path& directory,
                                std::span<const TraceRecord> records);

struct ReadStats {
  std::uint64_t rows = 0;
  std::uint64_t parsed = 0;
  std::uint64_t malformed = 0;  // CSV/field failures, or binary records
                                // lost to integrity errors
  std::uint64_t files = 0;      // logfiles of either format
  std::uint64_t files_binary = 0;      // .u1b logfiles among `files`
  std::uint64_t bytes_read = 0;        // on-disk bytes, both formats
  std::uint64_t checksum_failures = 0; // binary files failing their digest

  void add(const ReadStats& other) noexcept {
    rows += other.rows;
    parsed += other.parsed;
    malformed += other.malformed;
    files += other.files;
    files_binary += other.files_binary;
    bytes_read += other.bytes_read;
    checksum_failures += other.checksum_failures;
  }
};

/// Reads every "production-*" logfile in a directory — CSV, binary, or a
/// mix (sniffed per file) — merges the records and delivers them to
/// `sink` in global timestamp order (files visited in name order, so the
/// merge is deterministic). Returns parsing statistics.
ReadStats read_logfiles(const std::filesystem::path& directory,
                        TraceSink& sink);

/// Reads a single logfile of either format (sniffed by leading magic),
/// appending to `out`.
ReadStats read_logfile(const std::filesystem::path& file,
                       std::vector<TraceRecord>& out);

}  // namespace u1
