#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "tools/u1trace_cli.hpp"

namespace u1::cli {
namespace {

TEST(Args, ParsesPositionalsFlagsSwitches) {
  const Args args = Args::parse({"dir1", "--users", "500", "--no-ddos",
                                 "dir2"},
                                {"users"}, {"no-ddos"});
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "dir1");
  EXPECT_EQ(args.int_flag("users"), 500);
  EXPECT_TRUE(args.has_switch("no-ddos"));
  EXPECT_FALSE(args.flag("days").has_value());
}

TEST(Args, RejectsUnknownAndDangling) {
  const Args bad = Args::parse({"--bogus", "x"}, {"users"}, {});
  EXPECT_FALSE(bad.ok());
  const Args dangling = Args::parse({"--users"}, {"users"}, {});
  EXPECT_FALSE(dangling.ok());
}

TEST(Args, NonNumericIntFlag) {
  const Args args = Args::parse({"--users", "abc"}, {"users"}, {});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.int_flag("users").has_value());
}

TEST(Run, UnknownCommandFails) {
  std::ostringstream out, err;
  EXPECT_NE(run({"frobnicate"}, out, err), 0);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Run, NoArgsShowsUsage) {
  std::ostringstream out, err;
  EXPECT_NE(run({}, out, err), 0);
}

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("u1trace_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CliPipeline, GenerateSummarizeAnalyzeValidate) {
  std::ostringstream out, err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "120", "--days", "2",
                 "--seed", "7", "--no-ddos"},
                out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("sessions"), std::string::npos);

  std::ostringstream sum_out, sum_err;
  ASSERT_EQ(run({"summarize", dir_}, sum_out, sum_err), 0) << sum_err.str();
  EXPECT_NE(sum_out.str().find("unique users"), std::string::npos);

  for (const char* figure :
       {"traffic", "dedup", "sessions", "users", "ops", "ddos"}) {
    std::ostringstream a_out, a_err;
    EXPECT_EQ(run({"analyze", dir_, "--figure", figure}, a_out, a_err), 0)
        << figure << ": " << a_err.str();
    EXPECT_FALSE(a_out.str().empty()) << figure;
  }

  std::ostringstream v_out, v_err;
  EXPECT_EQ(run({"validate", dir_}, v_out, v_err), 0) << v_err.str();
  EXPECT_NE(v_out.str().find("TRACE SOUND"), std::string::npos)
      << v_out.str();
}

namespace {

/// Concatenated contents of every regular file under dir, in sorted
/// name order — a cheap byte-identity fingerprint for trace dirs.
std::string dir_bytes(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());
  std::string all;
  for (const auto& p : paths) {
    all += p.filename().string();
    all += '\n';
    std::ifstream in(p, std::ios::binary);
    all.append(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return all;
}

/// Analyzer output minus '#'-prefixed stats lines (bytes_read and
/// files_binary legitimately differ across formats).
std::string strip_comments(const std::string& text) {
  std::istringstream in(text);
  std::string line, kept;
  while (std::getline(in, line))
    if (!line.starts_with("#")) kept += line + "\n";
  return kept;
}

}  // namespace

TEST_F(CliPipeline, BinaryFormatConvertsToIdenticalCsv) {
  const std::string csv_dir = dir_ + "_csv";
  const std::string bin_dir = dir_ + "_bin";
  const std::string conv_dir = dir_ + "_conv";
  std::filesystem::remove_all(csv_dir);
  std::filesystem::remove_all(bin_dir);
  std::filesystem::remove_all(conv_dir);

  const std::vector<std::string> common = {"--users", "80", "--days", "1",
                                           "--seed", "11", "--no-ddos",
                                           "--fault-plan", "standard"};
  std::ostringstream out, err;
  auto gen = [&](const std::string& target, const char* format) {
    std::vector<std::string> argv = {"generate", "--out", target,
                                     "--format", format};
    argv.insert(argv.end(), common.begin(), common.end());
    ASSERT_EQ(run(argv, out, err), 0) << err.str();
  };
  gen(csv_dir, "csv");
  gen(bin_dir, "bin");

  // The binary trace re-encoded as CSV is byte-identical to the trace
  // generated as CSV directly — for every record type, kFault included.
  std::ostringstream c_out, c_err;
  ASSERT_EQ(run({"convert", bin_dir, "--out", conv_dir, "--to", "csv"},
                c_out, c_err),
            0)
      << c_err.str();
  EXPECT_EQ(dir_bytes(conv_dir), dir_bytes(csv_dir));

  // Analyzers see the identical stream whichever format they read.
  for (const std::string& cmd : {std::string("summarize")}) {
    std::ostringstream csv_a, bin_a, e1, e2;
    ASSERT_EQ(run({cmd, csv_dir}, csv_a, e1), 0) << e1.str();
    ASSERT_EQ(run({cmd, bin_dir}, bin_a, e2), 0) << e2.str();
    EXPECT_EQ(strip_comments(csv_a.str()), strip_comments(bin_a.str()))
        << cmd;
  }
  for (const char* figure : {"traffic", "sessions", "ops"}) {
    std::ostringstream csv_a, bin_a, e1, e2;
    ASSERT_EQ(run({"analyze", csv_dir, "--figure", figure}, csv_a, e1), 0);
    ASSERT_EQ(run({"analyze", bin_dir, "--figure", figure}, bin_a, e2), 0);
    EXPECT_EQ(strip_comments(csv_a.str()), strip_comments(bin_a.str()))
        << figure;
  }

  // CSV -> bin -> CSV is a fixpoint of the parseable subset: whatever
  // survives the text parse round-trips through the binary encoding
  // unchanged. (The direct CSV itself is not the baseline — it carries
  // pre-trace bootstrap rows whose unsigned-printed t never reparses,
  // so ANY re-encode drops them; a csv->csv pass is the normal form.)
  const std::string norm_csv = dir_ + "_normcsv";
  const std::string fix_bin = dir_ + "_fixbin";
  const std::string fix_csv = dir_ + "_fixcsv";
  for (const auto& d : {norm_csv, fix_bin, fix_csv})
    std::filesystem::remove_all(d);
  std::ostringstream f_out, f_err;
  ASSERT_EQ(run({"convert", csv_dir, "--out", norm_csv, "--to", "csv"},
                f_out, f_err),
            0)
      << f_err.str();
  ASSERT_EQ(run({"convert", csv_dir, "--out", fix_bin, "--to", "bin"},
                f_out, f_err),
            0)
      << f_err.str();
  ASSERT_EQ(run({"convert", fix_bin, "--out", fix_csv, "--to", "csv"},
                f_out, f_err),
            0)
      << f_err.str();
  EXPECT_EQ(dir_bytes(fix_csv), dir_bytes(norm_csv));

  for (const auto& d :
       {csv_dir, bin_dir, conv_dir, norm_csv, fix_bin, fix_csv})
    std::filesystem::remove_all(d);
}

TEST_F(CliPipeline, GenerateIsThreadCountInvariant) {
  // One configuration, one trace: the worker-thread count moves only the
  // wall clock, in both trace formats.
  for (const char* format : {"csv", "bin"}) {
    std::string dirs[2];
    const char* threads[2] = {"1", "3"};
    for (int i = 0; i < 2; ++i) {
      dirs[i] = dir_ + "_" + format + "_t" + threads[i];
      std::filesystem::remove_all(dirs[i]);
      std::ostringstream out, err;
      ASSERT_EQ(run({"generate", "--out", dirs[i], "--users", "150", "--days",
                     "2", "--seed", "5", "--threads", threads[i], "--format",
                     format},
                    out, err),
                0)
          << err.str();
    }
    const std::string one = dir_bytes(dirs[0]);
    EXPECT_FALSE(one.empty()) << format;
    EXPECT_TRUE(one == dir_bytes(dirs[1]))
        << format << ": --threads 1 and --threads 3 traces differ";
    for (const auto& d : dirs) std::filesystem::remove_all(d);
  }
}

TEST_F(CliPipeline, GenerateCompletesUnderLowFdLimit) {
  // Logfiles are written whole, one open file at a time, as their day
  // retires, so a 6-day run needs a handful of fds however many logfiles
  // it writes. A child lowers its own soft RLIMIT_NOFILE to 64 and must
  // write the same bytes as an unconstrained run.
  for (const char* format : {"csv", "bin"}) {
    const std::string free_dir = dir_ + "_" + format + "_free";
    const std::string low_dir = dir_ + "_" + format + "_low";
    const auto argv = [&](const std::string& out_dir) {
      return std::vector<std::string>{"generate", "--out", out_dir,
                                      "--users",  "300",   "--days",
                                      "6",        "--format", format};
    };
    std::filesystem::remove_all(free_dir);
    std::filesystem::remove_all(low_dir);
    std::ostringstream out, err;
    ASSERT_EQ(run(argv(free_dir), out, err), 0) << err.str();

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      rlimit lim{};
      ::getrlimit(RLIMIT_NOFILE, &lim);
      lim.rlim_cur = 64;
      if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(3);
      std::ostringstream c_out, c_err;
      const int code = run(argv(low_dir), c_out, c_err);
      if (code != 0) std::fputs(c_err.str().c_str(), stderr);
      ::_exit(code);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << format;
    EXPECT_EQ(WEXITSTATUS(status), 0) << format;
    EXPECT_TRUE(dir_bytes(low_dir) == dir_bytes(free_dir))
        << format << ": the fd-limited trace differs";
    std::filesystem::remove_all(free_dir);
    std::filesystem::remove_all(low_dir);
  }
}

TEST_F(CliPipeline, UnwritableOutputIsAnErrorExit) {
  // --out under a regular file cannot be created: exit 1 with a
  // message, not an uncaught exception. (Permissions would not do: the
  // tests may run as root.)
  const std::string blocker = dir_ + "_blocker";
  std::ofstream(blocker) << "not a directory\n";
  std::ostringstream out, err;
  EXPECT_EQ(run({"generate", "--out", blocker + "/trace", "--users", "20",
                 "--days", "1"},
                out, err),
            1);
  EXPECT_TRUE(err.str().starts_with("u1trace generate: ")) << err.str();

  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "20", "--days", "1"},
                out, err),
            0)
      << err.str();
  std::ostringstream c_out, c_err;
  EXPECT_EQ(run({"convert", dir_, "--out", blocker + "/conv"}, c_out, c_err),
            1);
  EXPECT_TRUE(c_err.str().starts_with("u1trace convert: ")) << c_err.str();
  std::filesystem::remove(blocker);
}

TEST_F(CliPipeline, ConvertRejectsALogfileMixingProcesses) {
  // Each source logfile is rewritten whole under its own name, so a CSV
  // whose rows belong to several (machine, process, day) logfiles is an
  // error exit, not rows filed under the first row's name.
  std::ostringstream out, err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "20", "--days", "1",
                 "--no-ddos"},
                out, err),
            0)
      << err.str();
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir_))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 2u);
  std::string foreign_row;
  {
    // The last row: one of the trace period, which parses (pre-trace
    // rows print t < 0 as unsigned and are dropped as malformed).
    std::ifstream in(files[1]);
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) foreign_row = line;
  }
  ASSERT_FALSE(foreign_row.empty());
  std::ofstream(files[0], std::ios::app) << foreign_row << '\n';
  const std::string foreign = files[1].stem().string();
  for (const char* to : {"csv", "bin"}) {
    const std::string conv = dir_ + "_conv";
    std::filesystem::remove_all(conv);
    std::ostringstream c_out, c_err;
    EXPECT_EQ(run({"convert", dir_, "--out", conv, "--to", to}, c_out, c_err),
              1)
        << to;
    EXPECT_TRUE(c_err.str().starts_with("u1trace convert: ")) << c_err.str();
    EXPECT_NE(c_err.str().find(foreign), std::string::npos) << c_err.str();
    std::filesystem::remove_all(conv);
  }
}

TEST_F(CliPipeline, ConvertRejectsBadArguments) {
  std::ostringstream out, err;
  EXPECT_NE(run({"convert"}, out, err), 0);
  EXPECT_NE(run({"convert", dir_ + "_missing", "--out", dir_}, out, err), 0);
  std::ostringstream g_out, g_err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "20", "--days", "1",
                 "--no-ddos"},
                g_out, g_err),
            0);
  EXPECT_NE(run({"convert", dir_, "--out", dir_ + "_x", "--to", "xml"}, out,
                err),
            0);
}

TEST_F(CliPipeline, GenerateRejectsUnknownFormat) {
  std::ostringstream out, err;
  EXPECT_NE(run({"generate", "--out", dir_, "--users", "10", "--format",
                 "parquet"},
                out, err),
            0);
}

TEST_F(CliPipeline, AnalyzeUnknownFigureFails) {
  std::ostringstream out, err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "50", "--days", "1",
                 "--no-ddos"},
                out, err),
            0);
  std::ostringstream a_out, a_err;
  EXPECT_NE(run({"analyze", dir_, "--figure", "nope"}, a_out, a_err), 0);
}

TEST_F(CliPipeline, GenerateRequiresOut) {
  std::ostringstream out, err;
  EXPECT_NE(run({"generate", "--users", "10"}, out, err), 0);
}

TEST_F(CliPipeline, SummarizeRequiresDir) {
  std::ostringstream out, err;
  EXPECT_NE(run({"summarize"}, out, err), 0);
}

}  // namespace
}  // namespace u1::cli
