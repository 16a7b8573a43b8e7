// The JIT module cache (src/native/jit.hpp): the persistent module store
// shared across processes, its collision and ownership guards, the
// in-memory layer under concurrent loads, the shell-free, time-bounded
// compiler spawn (src/support/process.hpp), and the link contract of a
// stored module (three ABI v2 symbols, no DT_NEEDED, libc from the host).
//
// Cross-process cases drive the real `lucidc run` through
// `env TMPDIR=... lucidc ...` — an argv, no shell — on a fresh $TMPDIR per
// test, and read the JIT counters from its --metrics-out snapshot.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <elf.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
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

/// $TMPDIR pointed at `dir` for this process until destruction, so
/// in-process Module::load calls use a store under `dir`.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const std::string& dir) {
    const char* old = std::getenv("TMPDIR");
    if (old != nullptr) saved_ = old;
    EXPECT_EQ(::setenv("TMPDIR", dir.c_str(), 1), 0);
  }
  ScopedTmpdir(const ScopedTmpdir&) = delete;
  ScopedTmpdir& operator=(const ScopedTmpdir&) = delete;
  ~ScopedTmpdir() {
    if (saved_) {
      ::setenv("TMPDIR", saved_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }

 private:
  std::optional<std::string> saved_;
};

/// What `readelf --dyn-syms -d` shows of a shared object: its global
/// dynamic symbols, defined and undefined, its DT_NEEDED libraries, and
/// whether it has DT_INIT/DT_FINI (the crt files' _init/_fini).
struct DynamicLinkage {
  std::set<std::string> defined;
  std::set<std::string> undefined;
  std::vector<std::string> needed;
  bool init_fini = false;
};

DynamicLinkage read_linkage(const std::string& path) {
  DynamicLinkage out;
  const std::optional<std::string> file = support::read_file(path);
  Elf64_Ehdr eh{};
  if (!file || file->size() < sizeof(eh)) {
    ADD_FAILURE() << "unreadable ELF " << path;
    return out;
  }
  std::memcpy(&eh, file->data(), sizeof(eh));
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
          file->size()) {
    ADD_FAILURE() << "not a whole ELF64 image " << path;
    return out;
  }
  // Copies a T out of the image; a reference past its end fails loudly.
  const auto at = [&](auto* dst, std::uint64_t off) {
    if (off + sizeof(*dst) > file->size()) {
      throw std::out_of_range("ELF reference past EOF in " + path);
    }
    std::memcpy(dst, file->data() + off, sizeof(*dst));
  };
  const auto section = [&](std::uint64_t i) {
    Elf64_Shdr sh{};
    at(&sh, eh.e_shoff + i * sizeof(sh));
    return sh;
  };
  const auto str = [&](const Elf64_Shdr& strtab, std::uint64_t off) {
    return std::string(file->c_str() + strtab.sh_offset + off);
  };
  for (std::uint64_t i = 0; i < eh.e_shnum; ++i) {
    const Elf64_Shdr sh = section(i);
    if (sh.sh_type == SHT_DYNSYM) {
      const Elf64_Shdr strtab = section(sh.sh_link);
      for (std::uint64_t off = sizeof(Elf64_Sym); off < sh.sh_size;
           off += sizeof(Elf64_Sym)) {  // entry 0 is the null symbol
        Elf64_Sym sym{};
        at(&sym, sh.sh_offset + off);
        if (ELF64_ST_BIND(sym.st_info) == STB_LOCAL) continue;
        (sym.st_shndx == SHN_UNDEF ? out.undefined : out.defined)
            .insert(str(strtab, sym.st_name));
      }
    } else if (sh.sh_type == SHT_DYNAMIC) {
      const Elf64_Shdr strtab = section(sh.sh_link);
      for (std::uint64_t off = 0; off < sh.sh_size; off += sizeof(Elf64_Dyn)) {
        Elf64_Dyn dyn{};
        at(&dyn, sh.sh_offset + off);
        if (dyn.d_tag == DT_NULL) break;
        if (dyn.d_tag == DT_NEEDED) {
          out.needed.push_back(str(strtab, dyn.d_un.d_val));
        }
        if (dyn.d_tag == DT_INIT || dyn.d_tag == DT_FINI) {
          out.init_fini = true;
        }
      }
    }
  }
  return out;
}

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

  /// `lucidc run` on the rate-meter example with $TMPDIR set to
  /// `tmpdir`, writing its metrics snapshot to `prom`.
  [[nodiscard]] static ProcessResult demo(const std::string& tmpdir,
                                          const std::string& prom,
                                          std::vector<std::string> env = {}) {
    std::vector<std::string> argv = {"env", "TMPDIR=" + tmpdir};
    argv.insert(argv.end(), env.begin(), env.end());
    argv.insert(argv.end(),
                {LUCIDC_PATH, "run", "--metrics-out=" + prom,
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

  std::optional<ScopedTmpdir> tmpdir(root_);
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
  tmpdir.reset();

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
// The link contract of a stored module
// ---------------------------------------------------------------------------

TEST_F(JitStore, StoredModuleExportsThreeSymbolsAndNeedsNoLibrary) {
  const std::string tmp = root_ + "/tmp";
  ASSERT_TRUE(fs::create_directory(tmp));
  const ProcessResult r = demo(tmp, root_ + "/m.prom");
  ASSERT_TRUE(r.ok()) << r.err << r.error;
  const std::string so = only_entry(store_of(tmp), ".so");
  ASSERT_FALSE(so.empty());

  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(handle, nullptr) << ::dlerror();
  EXPECT_NE(::dlsym(handle, kSymAbiVersion), nullptr);
  EXPECT_NE(::dlsym(handle, kSymMaxGens), nullptr);
  EXPECT_NE(::dlsym(handle, kSymRunBatch), nullptr);
  EXPECT_EQ(::dlsym(handle, "lucid_native_run_one"), nullptr);
  const auto abi = reinterpret_cast<AbiVersionFn>(
      ::dlsym(handle, kSymAbiVersion));
  if (abi != nullptr) {
    EXPECT_EQ(abi(), kAbiVersion);
  }
  ::dlclose(handle);

  const DynamicLinkage link = read_linkage(so);
  std::set<std::string> exported;
  for (const std::string& name : link.defined) {
    if (name.rfind("lucid_native_", 0) == 0) exported.insert(name);
  }
  EXPECT_EQ(exported, (std::set<std::string>{kSymAbiVersion, kSymMaxGens,
                                              kSymRunBatch}));
  // -nostdlib: no library and no crt file (which would add _init/_fini).
  EXPECT_TRUE(link.needed.empty()) << "DT_NEEDED " << link.needed.front();
  EXPECT_FALSE(link.init_fini);
}

TEST_F(JitStore, LibcCallInAModuleBindsToTheHost) {
  // A hand-written module whose run_batch copies a 64 KiB struct: far past
  // any inline expansion, so the compiler emits a memcpy call that the
  // -nostdlib link leaves undefined and dlopen binds to the host's libc.
  // The trailing store path keeps the source new to the memory layer.
  const std::string source =
      "using i32 = __INT32_TYPE__;\n"
      "using u32 = __UINT32_TYPE__;\n"
      "using i64 = __INT64_TYPE__;\n"
      "struct Big { i64 cells[8192]; };\n"
      "extern \"C\" u32 lucid_native_abi_version() { return " +
      std::to_string(kAbiVersion) +
      "; }\n"
      "extern \"C\" i32 lucid_native_max_gens() { return 0; }\n"
      "extern \"C\" void lucid_native_run_batch(i64* const* R, const void*,\n"
      "                                       i32 n, void*, i32* counts) {\n"
      "  for (i32 i = 0; i < n; ++i) {\n"
      "    Big b;\n"
      "    __builtin_memcpy(&b, R[0], sizeof(Big));\n"
      "    b.cells[0] += 1;\n"
      "    __builtin_memcpy(R[1], &b, sizeof(Big));\n"
      "    counts[i] = 0;\n"
      "  }\n"
      "}\n"
      "// " + root_ + "\n";

  std::shared_ptr<Module> mod;
  std::string err;
  {
    ScopedTmpdir tmpdir(root_);
    mod = Module::load(source, &err);
  }
  ASSERT_NE(mod, nullptr) << err;
  EXPECT_EQ(mod->origin(), Origin::kCompiled);
  EXPECT_EQ(mod->max_gens(), 0);

  // The call is really there: the module imports memcpy and no library.
  const DynamicLinkage link = read_linkage(only_entry(store_of(root_), ".so"));
  EXPECT_EQ(link.undefined.count("memcpy"), 1u);
  EXPECT_TRUE(link.needed.empty()) << "DT_NEEDED " << link.needed.front();

  std::vector<std::int64_t> src(8192);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::int64_t>(i * 7 + 3);
  }
  std::vector<std::int64_t> dst(src.size(), -1);
  std::int64_t* arrays[] = {src.data(), dst.data()};
  PacketIn in[2];
  std::int32_t counts[2] = {-1, -1};
  mod->raw_run_batch()(arrays, in, 2, nullptr, counts);
  EXPECT_EQ(dst[0], src[0] + 1);
  EXPECT_TRUE(std::equal(src.begin() + 1, src.end(), dst.begin() + 1));
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 0);
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
