// The JIT module cache (src/native/jit.hpp): the persistent module store
// shared across processes, its collision and ownership guards, the
// in-memory layer under concurrent loads, and the shell-free, time-bounded
// compiler spawn (src/support/process.hpp).
//
// Cross-process cases drive the real `lucidc --native-demo` through
// `env TMPDIR=... lucidc ...` — an argv, no shell — on a fresh $TMPDIR per
// test, and read the JIT counters from its --metrics-out snapshot.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/driver.hpp"
#include "native/emit.hpp"
#include "native/jit.hpp"
#include "obs/metrics.hpp"
#include "support/fs.hpp"
#include "support/process.hpp"

namespace lucid::native {
namespace {

namespace fs = std::filesystem;
using support::ProcessResult;
using support::run_process;

constexpr std::chrono::seconds kChildTimeout{120};

class JitStore : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::path(::testing::TempDir()) / "lucid-jit-test-XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  [[nodiscard]] static std::string store_of(const std::string& tmpdir) {
    return tmpdir + "/lucid-jit-cache-" + std::to_string(::geteuid());
  }

  /// `lucidc --native-demo` on the rate-meter example with $TMPDIR set to
  /// `tmpdir`, writing its metrics snapshot to `prom`.
  [[nodiscard]] static ProcessResult demo(const std::string& tmpdir,
                                          const std::string& prom,
                                          std::vector<std::string> env = {}) {
    std::vector<std::string> argv = {"env", "TMPDIR=" + tmpdir};
    argv.insert(argv.end(), env.begin(), env.end());
    argv.insert(argv.end(),
                {LUCIDC_PATH, "--native-demo", "--metrics-out=" + prom,
                 std::string(LUCID_SOURCE_DIR) + "/examples/rate_meter.lucid"});
    return run_process(argv, kChildTimeout);
  }

  /// One sample of a Prometheus snapshot, e.g.
  /// `lucid_jit_cache_hits_total{layer="disk"}`; nullopt when absent.
  [[nodiscard]] static std::optional<long long> sample(
      const std::string& prom, const std::string& series) {
    std::ifstream in(prom);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(series + " ", 0) == 0) {
        return std::stoll(line.substr(series.size() + 1));
      }
    }
    return std::nullopt;
  }

  /// Every path under `dir` whose name shows debris: a per-process
  /// `lucid-native-*` work dir or a `*.tmp*` temp.
  [[nodiscard]] static std::vector<std::string> debris(const std::string& dir) {
    std::vector<std::string> found;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("lucid-native-", 0) == 0 ||
          name.find(".tmp") != std::string::npos) {
        found.push_back(e.path().string());
      }
    }
    return found;
  }

  /// The store's only `<key>.<ext>` entry.
  [[nodiscard]] static std::string only_entry(const std::string& store,
                                              const std::string& ext) {
    std::vector<std::string> hits;
    for (const auto& e : fs::directory_iterator(store)) {
      if (e.path().extension() == ext) hits.push_back(e.path().string());
    }
    EXPECT_EQ(hits.size(), 1u) << store;
    return hits.empty() ? std::string() : hits.front();
  }

  std::string root_;
};

TEST_F(JitStore, SecondProcessHitsTheDiskStore) {
  const std::string prom1 = root_ + "/m1.prom";
  const std::string prom2 = root_ + "/m2.prom";
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));

  const ProcessResult first = demo(tmp, prom1);
  ASSERT_TRUE(first.ok()) << first.err << first.error;
  EXPECT_EQ(sample(prom1, "lucid_jit_cache_misses_total{layer=\"disk\"}"), 1);
  EXPECT_EQ(sample(prom1, "lucid_jit_compile_ms_count"), 1);

  const ProcessResult second = demo(tmp, prom2);
  ASSERT_TRUE(second.ok()) << second.err << second.error;
  EXPECT_GE(sample(prom2, "lucid_jit_cache_hits_total{layer=\"disk\"}"), 1);
  EXPECT_EQ(sample(prom2, "lucid_jit_cache_misses_total{layer=\"disk\"}"), 0);
  EXPECT_EQ(sample(prom2, "lucid_jit_compile_ms_count"), 0);
  // Same program, same state: the warm run prints the same report.
  EXPECT_EQ(first.out.substr(0, first.out.find("event-loop rate")),
            second.out.substr(0, second.out.find("event-loop rate")));

  // The store is private to its owner.
  struct stat st {};
  ASSERT_EQ(::stat(store_of(tmp).c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0700u);
  EXPECT_TRUE(debris(tmp).empty()) << debris(tmp).front();
}

TEST_F(JitStore, ShellMetacharactersInTmpdirArePlainBytes) {
  // A quote, a space and a command substitution: the old shell-pasted
  // command broke on the first and ran the last.
  const std::string tmp = root_ + "/it's a $(touch pwned) dir";
  ASSERT_TRUE(fs::create_directory(tmp));
  const ProcessResult r = demo(tmp, root_ + "/m.prom");
  ASSERT_TRUE(r.ok()) << r.err << r.error;
  EXPECT_TRUE(fs::exists(only_entry(store_of(tmp), ".so")));
  EXPECT_FALSE(fs::exists("pwned"));
  EXPECT_FALSE(fs::exists(root_ + "/pwned"));
  EXPECT_TRUE(debris(root_).empty()) << debris(root_).front();
}

TEST_F(JitStore, CompilerVariableIsSplitNotShellParsed) {
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));
  // A wrapper prefix works the way `ccache c++` does...
  const ProcessResult wrapped =
      demo(tmp, root_ + "/m1.prom", {"LUCID_NATIVE_CXX=env c++"});
  ASSERT_TRUE(wrapped.ok()) << wrapped.err << wrapped.error;
  // ...and shell syntax is never evaluated: the words reach the compiler
  // as file names and the compile fails without running anything.
  const std::string marker = root_ + "/pwned";
  const ProcessResult injected =
      demo(root_ + "/other", root_ + "/m2.prom",
           {"LUCID_NATIVE_CXX=c++ $(touch " + marker + ")"});
  EXPECT_FALSE(injected.ok());
  EXPECT_NE(injected.err.find("native module compile failed"),
            std::string::npos)
      << injected.err;
  EXPECT_FALSE(fs::exists(marker));
}

TEST_F(JitStore, TruncatedSharedObjectIsRecompiled) {
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));
  ASSERT_TRUE(demo(tmp, root_ + "/m1.prom").ok());
  const std::string so = only_entry(store_of(tmp), ".so");
  const auto size = fs::file_size(so);
  fs::resize_file(so, size / 2);

  const std::string prom = root_ + "/m2.prom";
  const ProcessResult r = demo(tmp, prom);
  ASSERT_TRUE(r.ok()) << r.err << r.error;
  EXPECT_EQ(sample(prom, "lucid_jit_cache_misses_total{layer=\"disk\"}"), 1);
  EXPECT_EQ(sample(prom, "lucid_jit_compile_ms_count"), 1);
  EXPECT_EQ(fs::file_size(so), size);  // the entry was replaced
  EXPECT_TRUE(debris(tmp).empty()) << debris(tmp).front();
}

TEST_F(JitStore, EditedStoredSourceIsRecompiled) {
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));
  ASSERT_TRUE(demo(tmp, root_ + "/m1.prom").ok());
  const std::string cpp = only_entry(store_of(tmp), ".cpp");
  const std::optional<std::string> original = support::read_file(cpp);
  ASSERT_TRUE(original.has_value());
  ASSERT_TRUE(support::write_file(cpp, *original + "// edited\n"));

  const std::string prom = root_ + "/m2.prom";
  const ProcessResult r = demo(tmp, prom);
  ASSERT_TRUE(r.ok()) << r.err << r.error;
  EXPECT_EQ(sample(prom, "lucid_jit_cache_misses_total{layer=\"disk\"}"), 1);
  EXPECT_EQ(sample(prom, "lucid_jit_compile_ms_count"), 1);
  EXPECT_EQ(support::read_file(cpp), original);
  EXPECT_TRUE(debris(tmp).empty()) << debris(tmp).front();
}

TEST_F(JitStore, StaleTempsOfAKilledCompileAreTrimmed) {
  // A SIGKILLed compile leaves <key>.tmp-<pid>-<seq>.{cpp,so} behind. The
  // next process's store open removes the ones older than kStaleTempAge and
  // keeps one as old as a live compile can hold (primary + fallback).
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));
  const std::string store = store_of(tmp);
  ASSERT_EQ(::mkdir(store.c_str(), 0700), 0);
  const auto plant = [&](const std::string& name,
                         std::chrono::seconds age) {
    const std::string path = store + "/" + name;
    EXPECT_TRUE(support::write_file(path, "// partial\n"));
    timespec when{};
    ::clock_gettime(CLOCK_REALTIME, &when);
    when.tv_sec -= static_cast<time_t>(age.count());
    const timespec times[2] = {when, when};
    EXPECT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
    return path;
  };
  const auto stale = kStaleTempAge + std::chrono::seconds(60);
  const std::string old_cpp = plant("00000000deadbeef.tmp-1-0.cpp", stale);
  const std::string old_so = plant("00000000deadbeef.tmp-1-1.so", stale);
  const std::string live =
      plant("00000000feedface.tmp-2-0.cpp", 2 * kCompileTimeout);

  const ProcessResult r = demo(tmp, root_ + "/m.prom");
  ASSERT_TRUE(r.ok()) << r.err << r.error;
  EXPECT_FALSE(fs::exists(old_cpp));
  EXPECT_FALSE(fs::exists(old_so));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(fs::exists(only_entry(store, ".so")));  // the store still works
}

TEST_F(JitStore, WorldWritableStoreIsRefused) {
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));
  const std::string store = store_of(tmp);
  ASSERT_TRUE(fs::create_directory(store));
  fs::permissions(store, fs::perms::all);  // 0777
  const ProcessResult r = demo(tmp, root_ + "/m.prom");
  EXPECT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("refusing JIT module store '" + store + "'"),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("world-writable"), std::string::npos) << r.err;
  EXPECT_TRUE(fs::is_empty(store));  // nothing was written into it
}

TEST_F(JitStore, ConcurrentLoadsOfOneSourceCompileOnce) {
  // Eight threads race one never-seen source on a fresh store: one
  // compile, one Module, seven memory-layer hits that waited on it.
  CompilerDriver driver;
  const CompilationPtr comp = driver.start(apps::app("RR").source);
  ASSERT_TRUE(driver.run_until(comp, Stage::Layout));
  // The fresh store dir in a trailing comment keeps the source new to this
  // process's memory layer too (e.g. under --gtest_repeat).
  const std::string source =
      emit_source(*comp, "jit-concurrency").text + "// " + root_ + "\n";

  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ASSERT_EQ(::setenv("TMPDIR", root_.c_str(), 1), 0);
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& compiles = reg.histogram("lucid_jit_compile_ms");
  obs::Counter& mem_hits =
      reg.counter("lucid_jit_cache_hits_total", {{"layer", "mem"}});
  const std::uint64_t compiles0 = compiles.count();
  const std::uint64_t hits0 = mem_hits.value();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<Module>> mods(kThreads);
  std::vector<std::string> errors(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      mods[static_cast<std::size_t>(i)] =
          Module::load(source, &errors[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();
  if (old != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }

  for (int i = 0; i < kThreads; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ASSERT_NE(mods[k], nullptr) << errors[k];
    EXPECT_EQ(mods[k].get(), mods[0].get());
  }
  EXPECT_EQ(compiles.count() - compiles0, 1u);
  EXPECT_EQ(mem_hits.value() - hits0, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(mods[0]->origin(), Origin::kCompiled);
  EXPECT_GT(mods[0]->compile_ms(), 0.0);

  // A later load in this process is a memory hit on the same module.
  Origin served = Origin::kCompiled;
  std::string err;
  EXPECT_EQ(Module::load(source, &err, &served).get(), mods[0].get()) << err;
  EXPECT_EQ(served, Origin::kMemory);
  EXPECT_TRUE(debris(root_).empty()) << debris(root_).front();
}

// ---------------------------------------------------------------------------
// The spawn helper
// ---------------------------------------------------------------------------

TEST(Process, TimeoutKillsTheChildAndKeepsItsStderr) {
  const auto t0 = std::chrono::steady_clock::now();
  const ProcessResult r =
      run_process({"/bin/sh", "-c", "echo partial >&2; exec /bin/sleep 10"},
                  std::chrono::milliseconds(100));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(r.started);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.err, "partial\n");
  EXPECT_LT(waited, std::chrono::seconds(5));

  const ProcessResult sleep = run_process({"/bin/sleep", "10"},
                                          std::chrono::milliseconds(100));
  EXPECT_TRUE(sleep.timed_out);
}

TEST(Process, CapturesOutputAndExitStatus) {
  const ProcessResult r = run_process(
      {"/bin/sh", "-c", "echo out; echo err >&2; exit 3"},
      std::chrono::seconds(30));
  EXPECT_TRUE(r.started);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(r.out, "out\n");
  EXPECT_EQ(r.err, "err\n");

  const ProcessResult missing =
      run_process({"/nonexistent/lucid-cxx"}, std::chrono::seconds(30));
  EXPECT_FALSE(missing.started);
  EXPECT_NE(missing.error.find("/nonexistent/lucid-cxx"), std::string::npos);
}

TEST(Process, SplitCommandIsWhitespaceOnly) {
  EXPECT_EQ(support::split_command("  ccache   c++\t-O2 "),
            (std::vector<std::string>{"ccache", "c++", "-O2"}));
  EXPECT_EQ(support::split_command("c++ '$(x)' \"a b\""),
            (std::vector<std::string>{"c++", "'$(x)'", "\"a", "b\""}));
  EXPECT_TRUE(support::split_command(" \t ").empty());
}

TEST(Fs, TempPathKeepsTheExtension) {
  const std::string a = support::temp_path_for("/d/k.cpp");
  const std::string b = support::temp_path_for("/d/k.cpp");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("/d/k.tmp-", 0), 0u) << a;
  EXPECT_EQ(a.substr(a.size() - 4), ".cpp");
  EXPECT_EQ(support::temp_path_for("/d.x/k").rfind("/d.x/k.tmp-", 0), 0u);
}

}  // namespace
}  // namespace lucid::native
