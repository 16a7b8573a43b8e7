// The lucidc command line: one subcommand per mode (build, emit, sweep,
// fit, run), each accepting only its own flags plus the shared
// observability ones. Exit codes: 0 ok, 1 compile/input error, 2 usage
// error. The old mode flags (--emit=, --sweep=, --fit=, --native-demo,
// --ctrl-demo, ...) and the older aliases (--p4, --check) are unknown
// options, not aliases.
//
// Runs the real lucidc binary as a child process (an argv, no shell).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/process.hpp"

namespace lucid {
namespace {

namespace fs = std::filesystem;
using support::ProcessResult;

constexpr std::chrono::seconds kChildTimeout{120};
const std::string kExample =
    std::string(LUCID_SOURCE_DIR) + "/examples/rate_meter.lucid";

ProcessResult lucidc(std::vector<std::string> args) {
  args.insert(args.begin(), LUCIDC_PATH);
  const ProcessResult r = support::run_process(args, kChildTimeout);
  EXPECT_TRUE(r.started) << r.error;
  return r;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// A scratch directory removed on scope exit.
struct TempDir {
  fs::path path =
      fs::temp_directory_path() /
      ("lucidc-test-" + std::to_string(::getpid()) + "-" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  TempDir() { fs::create_directories(path); }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name,
                                 const std::string& text) const {
    const std::string p = (path / name).string();
    std::ofstream(p) << text;
    return p;
  }
};

TEST(Lucidc, TopLevelFlags) {
  const ProcessResult version = lucidc({"--version"});
  EXPECT_EQ(version.exit_code, 0);
  EXPECT_TRUE(contains(version.out, "lucidc (Lucid compiler)"));

  const ProcessResult backends = lucidc({"--list-backends"});
  EXPECT_EQ(backends.exit_code, 0);
  for (const char* name : {"p4", "ebpf", "interp", "native"}) {
    EXPECT_TRUE(contains(backends.out, name)) << name;
  }

  const ProcessResult help = lucidc({"--help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_TRUE(contains(help.out, "lucidc sweep GRID")) << help.out;

  const ProcessResult none = lucidc({});
  EXPECT_EQ(none.exit_code, 2);
  EXPECT_TRUE(contains(none.err, "no subcommand")) << none.err;
}

TEST(Lucidc, OldModeFlagsAreUnknownOptions) {
  for (const std::string flag :
       {"--emit=p4", "--stop-after=sema", "--sweep=stages=8",
        "--fit=stages=1..9", "--native-demo", "--native-shards=2",
        "--ctrl-demo", "--p4", "--check", "--native-dispatch=goto"}) {
    SCOPED_TRACE(flag);
    const ProcessResult r = lucidc({flag, kExample});
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_TRUE(contains(r.err, "unknown option '" + flag + "'")) << r.err;
  }
  // The old bare form names no subcommand.
  const ProcessResult bare = lucidc({kExample});
  EXPECT_EQ(bare.exit_code, 2);
  EXPECT_TRUE(contains(bare.err, "unknown subcommand")) << bare.err;
}

TEST(Lucidc, FlagOfAnotherSubcommandIsAUsageError) {
  const std::vector<std::vector<std::string>> cases = {
      {"build", "--jobs=2", kExample},
      {"build", "--shards=2", kExample},
      {"build", "--cache-dir=/tmp", kExample},
      {"emit", "p4", "--stop-after=sema", kExample},
      {"emit", "p4", "--ir", kExample},
      {"sweep", "stages=8", "--time-passes", kExample},
      {"sweep", "stages=8", "--incremental-from=" + kExample, kExample},
      {"fit", "stages=1..9", "--backends=p4", kExample},
      {"fit", "stages=1..9", "--cache-dir=/tmp", kExample},
      {"run", "--time-passes", kExample},
      {"run", "--sema-workers=2", kExample},
  };
  for (const auto& args : cases) {
    SCOPED_TRACE(args[0] + " " + args[1]);
    const ProcessResult r = lucidc(args);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_TRUE(contains(r.err, "unknown option")) << r.err;
    EXPECT_TRUE(contains(r.err, "for 'lucidc " + args[0] + "'")) << r.err;
  }
}

TEST(Lucidc, Build) {
  const ProcessResult summary = lucidc({"build", kExample});
  EXPECT_EQ(summary.exit_code, 0) << summary.err;
  EXPECT_TRUE(contains(summary.out, "compiled OK")) << summary.out;

  const ProcessResult sema = lucidc({"build", "--stop-after=sema", kExample});
  EXPECT_EQ(sema.exit_code, 0) << sema.err;
  EXPECT_TRUE(contains(sema.out, "OK after stage 'sema' (2 events, 2 arrays)"))
      << sema.out;

  const ProcessResult ir = lucidc({"build", "--ir", kExample});
  EXPECT_EQ(ir.exit_code, 0) << ir.err;
  EXPECT_TRUE(contains(ir.out, "pkt")) << ir.out;

  const ProcessResult layout =
      lucidc({"build", "--layout", "--sema-workers=2", kExample});
  EXPECT_EQ(layout.exit_code, 0) << layout.err;
  EXPECT_FALSE(layout.out.empty());

  // An incremental rebuild against itself reuses every decl, and the JSON
  // timing object is the last line of stderr.
  const ProcessResult inc =
      lucidc({"build", "--incremental-from=" + kExample, "--time-passes=json",
              kExample});
  EXPECT_EQ(inc.exit_code, 0) << inc.err;
  EXPECT_TRUE(contains(inc.out, "decls reused")) << inc.out;
  EXPECT_TRUE(contains(inc.err, "\"decls_reused\"")) << inc.err;

  // Usage errors: a dump deeper than the stop stage, a bad stage name, a
  // second input file.
  EXPECT_EQ(lucidc({"build", "--ir", "--stop-after=parse", kExample}).exit_code,
            2);
  EXPECT_EQ(lucidc({"build", "--stop-after=emit", kExample}).exit_code, 2);
  EXPECT_EQ(lucidc({"build", kExample, kExample}).exit_code, 2);
  EXPECT_EQ(lucidc({"build"}).exit_code, 2);

  // Input errors: a missing file, a program sema rejects.
  EXPECT_EQ(lucidc({"build", kExample + ".missing"}).exit_code, 1);
  const TempDir tmp;
  const std::string bad =
      tmp.file("bad.lucid", "event e();\nhandle e() { y = 1; }\n");
  const ProcessResult r = lucidc({"build", bad});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(contains(r.err, "sema-undefined")) << r.err;
}

TEST(Lucidc, Emit) {
  const ProcessResult p4 = lucidc({"emit", "p4", kExample});
  EXPECT_EQ(p4.exit_code, 0) << p4.err;
  EXPECT_TRUE(contains(p4.out, "Switch(pipe) main;"));

  // The disk cache serves the second run the same text.
  const TempDir tmp;
  const std::string dir = "--cache-dir=" + tmp.path.string();
  const ProcessResult first = lucidc({"emit", "ebpf", dir, kExample});
  const ProcessResult second = lucidc({"emit", "ebpf", dir, kExample});
  EXPECT_EQ(first.exit_code, 0) << first.err;
  EXPECT_EQ(second.exit_code, 0) << second.err;
  EXPECT_EQ(first.out, second.out);
  EXPECT_FALSE(fs::is_empty(tmp.path));

  const ProcessResult timed =
      lucidc({"emit", "interp", "--time-passes", kExample});
  EXPECT_EQ(timed.exit_code, 0) << timed.err;
  EXPECT_FALSE(timed.err.empty());

  const ProcessResult unknown = lucidc({"emit", "nosuch", kExample});
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_TRUE(contains(unknown.err, "unknown backend 'nosuch'")) << unknown.err;
  EXPECT_EQ(lucidc({"emit", kExample}).exit_code, 2);  // file taken as BACKEND
}

TEST(Lucidc, Sweep) {
  const ProcessResult r = lucidc(
      {"sweep", "stages=8,12", "--jobs=2", "--backends=p4", kExample});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "(2 variants)")) << r.out;
  EXPECT_TRUE(contains(r.out, "front end: 1 run")) << r.out;

  EXPECT_EQ(lucidc({"sweep", "bogus=1", kExample}).exit_code, 2);
  EXPECT_EQ(lucidc({"sweep", "stages=8", "--backends=nosuch", kExample})
                .exit_code,
            2);
  EXPECT_EQ(lucidc({"sweep", "stages=8", kExample + ".missing"}).exit_code, 1);
}

TEST(Lucidc, Fit) {
  const ProcessResult r = lucidc({"fit", "stages=1..20", "--jobs=1", kExample});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "min stages")) << r.out;

  // The program needs 3 stages: a range below that has no fit.
  EXPECT_EQ(lucidc({"fit", "stages=1..2", kExample}).exit_code, 1);
  EXPECT_EQ(lucidc({"fit", "stages=8", kExample}).exit_code, 2);  // no range
}

TEST(Lucidc, Run) {
  const TempDir tmp;
  const std::string prom = (tmp.path / "run.prom").string();
  const ProcessResult r =
      lucidc({"run", "--shards=2", "--metrics-out=" + prom, kExample});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "native run, 2 shard(s)")) << r.out;
  EXPECT_TRUE(fs::exists(prom));

  EXPECT_EQ(lucidc({"run", "--shards=0", kExample}).exit_code, 2);
  EXPECT_EQ(lucidc({"run", "--trace-sample=4", kExample}).exit_code, 2);
  const ProcessResult bad = lucidc(
      {"run", tmp.file("bad.lucid", "event e();\nhandle e() { y = 1; }\n")});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_TRUE(contains(bad.err, "sema-undefined")) << bad.err;
}

}  // namespace
}  // namespace lucid
