#include "native/jit.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/chrono.hpp"
#include "support/fs.hpp"
#include "support/process.hpp"
#include "support/strings.hpp"

#include <dlfcn.h>
#include <elf.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#ifndef LUCID_NATIVE_CXX_DEFAULT
#define LUCID_NATIVE_CXX_DEFAULT "c++"
#endif

namespace lucid::native {

namespace {

// This is a host JIT: tune for the machine we are running on. Not every
// toolchain accepts -march=native (e.g. some cross setups), so a compile
// that fails with it is retried with the plain flags. The key names the
// first list; the fallback is a pure function of the same toolchain.
const std::vector<std::string> kFlags = {
    "-O3", "-march=native", "-fPIC", "-shared", "-nostdlib", "-pipe",
    "-std=c++17"};
const std::vector<std::string> kFallbackFlags = {
    "-O3", "-fPIC", "-shared", "-nostdlib", "-pipe", "-std=c++17"};

struct JitMetrics {
  obs::Histogram& compile_ms = obs::Registry::global().histogram(
      "lucid_jit_compile_ms", "External compiler wall time per module (ms)");
  obs::Counter& mem_hits = hits("mem");
  obs::Counter& mem_misses = misses("mem");
  obs::Counter& disk_hits = hits("disk");
  obs::Counter& disk_misses = misses("disk");

  static obs::Counter& hits(const char* layer) {
    return obs::Registry::global().counter(
        "lucid_jit_cache_hits_total", {{"layer", layer}},
        "JIT module loads answered by a cache layer");
  }
  static obs::Counter& misses(const char* layer) {
    return obs::Registry::global().counter(
        "lucid_jit_cache_misses_total", {{"layer", layer}},
        "JIT module loads a cache layer could not answer");
  }
};

JitMetrics& metrics() {
  static JitMetrics m;
  return m;
}

/// The "model name" and "flags" lines of /proc/cpuinfo (empty elsewhere).
const std::string& cpu_identity() {
  static const std::string id = [] {
    std::ifstream in("/proc/cpuinfo");
    std::string model;
    std::string flags;
    std::string line;
    while (std::getline(in, line) && (model.empty() || flags.empty())) {
      if (model.empty() && starts_with(line, "model name")) model = line;
      if (flags.empty() && starts_with(line, "flags")) flags = line;
    }
    return model + "\n" + flags;
  }();
  return id;
}

/// The compiler argv and its `--version` output. The probe runs once per
/// process per compiler, outside every lock (two racing first loads may
/// both probe; they store the same text).
struct Toolchain {
  std::vector<std::string> cxx;
  std::string version;
};

bool resolve_toolchain(Toolchain* tc, std::string* error) {
  const char* env = std::getenv("LUCID_NATIVE_CXX");
  tc->cxx = support::split_command(env != nullptr && *env != '\0'
                                       ? env
                                       : LUCID_NATIVE_CXX_DEFAULT);
  if (tc->cxx.empty()) {
    *error = "native module compile failed: $LUCID_NATIVE_CXX is blank";
    return false;
  }
  static std::mutex mu;
  static std::map<std::vector<std::string>, std::string> versions;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (const auto it = versions.find(tc->cxx); it != versions.end()) {
      tc->version = it->second;
      return true;
    }
  }
  std::vector<std::string> argv = tc->cxx;
  argv.emplace_back("--version");
  const support::ProcessResult r =
      support::run_process(argv, kCompileTimeout);
  if (!r.ok()) {
    *error = "native module compile failed: " +
             (r.started ? "'" + join(argv, " ") + "' failed: " + r.err
                        : r.error);
    return false;
  }
  tc->version = r.out;
  std::lock_guard<std::mutex> lock(mu);
  versions.emplace(tc->cxx, r.out);
  return true;
}

/// The module key over every input that shapes the generated code.
std::uint64_t module_key(const std::string& source, const Toolchain& tc) {
  std::string in = source;
  for (const std::string& part :
       {tc.version, cpu_identity(), join(tc.cxx, " "), join(kFlags, " "),
        std::to_string(kAbiVersion)}) {
    in += '\0';
    in += part;
  }
  return fnv1a64(in);
}

/// The exact bytes a store entry's `.cpp` must hold: a one-line identity
/// header, then the source. Tokens of argv and flags hold no whitespace, so
/// the header stays one line.
std::string stored_text(const std::string& key_hex, const std::string& source,
                        const Toolchain& tc) {
  return "// lucid-jit-module key=" + key_hex +
         " abi=" + std::to_string(kAbiVersion) + " cxx=" + join(tc.cxx, ",") +
         " flags=" + join(kFlags, ",") +
         " toolchain=" + hex64(fnv1a64(tc.version)) +
         " cpu=" + hex64(fnv1a64(cpu_identity())) + "\n" + source;
}

/// Removes the temps of compiles that died mid-flight (see kStaleTempAge).
/// Runs once per store per process: later opens find nothing new to trim
/// that a dead process could have left.
void trim_stale_temps(const std::string& dir) {
  static std::mutex mu;
  static std::set<std::string> trimmed;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!trimmed.insert(dir).second) return;
  }
  namespace fs = std::filesystem;
  const auto cutoff = fs::file_time_type::clock::now() - kStaleTempAge;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().filename().string().find(".tmp-") == std::string::npos) {
      continue;
    }
    std::error_code file_ec;  // another process may remove it first
    const auto written = it->last_write_time(file_ec);
    if (!file_ec && written < cutoff) fs::remove(it->path(), file_ec);
  }
}

/// The module store for the current $TMPDIR: created 0700 on first use,
/// refused unless it is a directory the effective uid owns that no one
/// else can write. Empty (with `error` set) when refused.
std::string open_store(std::string* error) {
  const char* env = std::getenv("TMPDIR");
  std::string base = (env != nullptr && *env != '\0') ? env : "/tmp";
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  const uid_t euid = ::geteuid();
  const std::string dir = base + "/lucid-jit-cache-" + std::to_string(euid);
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) {
    *error = "cannot create JIT module store '" + dir +
             "': " + std::strerror(errno);
    return {};
  }
  struct stat st {};
  const auto refuse = [&](const std::string& why) {
    *error = "refusing JIT module store '" + dir + "': " + why +
             "; remove it (rm -rf) to start a fresh one";
    return std::string();
  };
  if (::lstat(dir.c_str(), &st) != 0) return refuse(std::strerror(errno));
  if (!S_ISDIR(st.st_mode)) return refuse("not a directory");
  if (st.st_uid != euid) {
    return refuse("owned by uid " + std::to_string(st.st_uid) +
                  ", not the effective uid " + std::to_string(euid));
  }
  if ((st.st_mode & (S_IWGRP | S_IWOTH)) != 0) {
    char mode[8];
    std::snprintf(mode, sizeof(mode), "%04o",
                  static_cast<unsigned>(st.st_mode & 07777));
    return refuse(std::string("group- or world-writable (mode ") + mode +
                  ")");
  }
  trim_stale_temps(dir);
  return dir;
}

/// True when the ELF image at `path` is whole: its program and section
/// header tables and every loadable segment lie inside the file. dlopen
/// maps segments past EOF without complaint and then faults on them, so a
/// truncated store entry must be caught here.
bool elf_complete(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  Elf64_Ehdr eh{};
  if (!in.read(reinterpret_cast<char*>(&eh), sizeof(eh)) ||
      std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64) {
    return false;
  }
  const auto fits = [size](std::uint64_t off, std::uint64_t len) {
    return off <= size && len <= size - off;
  };
  if (!fits(eh.e_phoff, std::uint64_t{eh.e_phnum} * eh.e_phentsize) ||
      !fits(eh.e_shoff, std::uint64_t{eh.e_shnum} * eh.e_shentsize) ||
      eh.e_phentsize != sizeof(Elf64_Phdr)) {
    return false;
  }
  for (int i = 0; i < eh.e_phnum; ++i) {
    Elf64_Phdr ph{};
    in.seekg(static_cast<std::streamoff>(eh.e_phoff + i * sizeof(ph)));
    if (!in.read(reinterpret_cast<char*>(&ph), sizeof(ph))) return false;
    if (ph.p_type == PT_LOAD && !fits(ph.p_offset, ph.p_filesz)) return false;
  }
  return true;
}

/// Opens the verified store entry at `stem`, or returns nullptr (a miss).
void* open_stored(const std::string& stem, const std::string& text) {
  const auto stored = support::read_file(stem + ".cpp");
  if (!stored || *stored != text || !elf_complete(stem + ".so")) {
    return nullptr;
  }
  return ::dlopen((stem + ".so").c_str(), RTLD_NOW | RTLD_LOCAL);
}

/// A store entry being written: the compiler's unique temps, removed on
/// destruction unless install() renamed them into place.
class PendingEntry {
 public:
  explicit PendingEntry(std::string stem)
      : stem_(std::move(stem)),
        cpp_(support::temp_path_for(stem_ + ".cpp")),
        so_(support::temp_path_for(stem_ + ".so")) {}
  PendingEntry(const PendingEntry&) = delete;
  PendingEntry& operator=(const PendingEntry&) = delete;
  ~PendingEntry() {
    std::remove(cpp_.c_str());
    std::remove(so_.c_str());
  }

  [[nodiscard]] const std::string& cpp() const { return cpp_; }
  [[nodiscard]] const std::string& so() const { return so_; }

  /// The `.so` first: a `.cpp` that matches always has its `.so` in place.
  void install() {
    if (support::install_file(so_, stem_ + ".so")) {
      support::install_file(cpp_, stem_ + ".cpp");
    }
  }

 private:
  std::string stem_;
  std::string cpp_;
  std::string so_;
};

std::string describe_failure(const support::ProcessResult& r) {
  if (!r.started) return "native module compile failed: " + r.error;
  if (r.timed_out) {
    return "native module compile timed out after " +
           std::to_string(kCompileTimeout.count()) +
           " s and was killed; compiler stderr: " + r.err;
  }
  if (r.term_signal != 0) {
    return "native module compile killed by signal " +
           std::to_string(r.term_signal) + ": " + r.err;
  }
  return "native module compile failed (exit " + std::to_string(r.exit_code) +
         "): " + r.err;
}

/// Runs the compiler on `entry`'s source temp and dlopens the result.
void* compile(const PendingEntry& entry, const std::string& key_hex,
              const Toolchain& tc, double* ms, std::string* error) {
  obs::ScopedSpan span("native", "jit_compile");
  span.arg("key", key_hex);
  const auto argv = [&](const std::vector<std::string>& flags) {
    std::vector<std::string> a = tc.cxx;
    a.insert(a.end(), flags.begin(), flags.end());
    a.insert(a.end(), {"-o", entry.so(), entry.cpp()});
    return a;
  };
  const auto t0 = SteadyClock::now();
  support::ProcessResult r =
      support::run_process(argv(kFlags), kCompileTimeout);
  if (r.started && !r.timed_out && !r.ok()) {
    r = support::run_process(argv(kFallbackFlags), kCompileTimeout);
  }
  *ms = ms_since(t0);
  metrics().compile_ms.observe(static_cast<std::uint64_t>(std::llround(*ms)));
  if (!r.ok()) {
    *error = describe_failure(r);
    return nullptr;
  }
  void* handle = ::dlopen(entry.so().c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* why = ::dlerror();
    *error = std::string("dlopen failed: ") + (why ? why : "?");
  }
  return handle;
}

using ModuleFuture = std::shared_future<std::shared_ptr<Module>>;

struct MemoryLayer {
  std::mutex mu;  // guards `loads` only; never held across a compile
  std::unordered_map<std::uint64_t, ModuleFuture> loads;
};

MemoryLayer& memory() {
  static MemoryLayer m;
  return m;
}

}  // namespace

const char* origin_name(Origin o) {
  switch (o) {
    case Origin::kCompiled:
      return "compiled";
    case Origin::kDisk:
      return "disk";
    case Origin::kMemory:
      return "memory";
  }
  return "?";
}

std::shared_ptr<Module> Module::bind(void* handle, Origin origin,
                                     double compile_ms, std::string* error) {
  auto resolve = [&](const char* sym) -> void* {
    void* p = ::dlsym(handle, sym);
    if (p == nullptr) *error = std::string("missing symbol ") + sym;
    return p;
  };
  const auto abi_fn =
      reinterpret_cast<AbiVersionFn>(resolve(kSymAbiVersion));
  const auto gens_fn = reinterpret_cast<MaxGensFn>(resolve(kSymMaxGens));
  const auto batch_fn = reinterpret_cast<RunBatchFn>(resolve(kSymRunBatch));
  if (abi_fn == nullptr || gens_fn == nullptr || batch_fn == nullptr) {
    ::dlclose(handle);
    return nullptr;
  }
  if (abi_fn() != kAbiVersion) {
    *error = "ABI version mismatch: module " + std::to_string(abi_fn()) +
             ", host " + std::to_string(kAbiVersion);
    ::dlclose(handle);
    return nullptr;
  }
  auto mod = std::shared_ptr<Module>(new Module());
  mod->handle_ = handle;
  mod->run_batch_ = batch_fn;
  mod->max_gens_ = gens_fn();
  mod->compile_ms_ = compile_ms;
  mod->origin_ = origin;
  return mod;
}

std::shared_ptr<Module> Module::load(const std::string& source,
                                     std::string* error, Origin* served) {
  std::string err;
  const auto fail = [&]() -> std::shared_ptr<Module> {
    if (error != nullptr) *error = err;
    return nullptr;
  };
  Toolchain tc;
  if (!resolve_toolchain(&tc, &err)) return fail();
  const std::uint64_t key = module_key(source, tc);
  JitMetrics& m = metrics();

  // Memory layer: the first load of a key owns its promise; every other
  // load of it waits on the shared future, outside the lock.
  MemoryLayer& mem = memory();
  std::promise<std::shared_ptr<Module>> promise;
  ModuleFuture pending;
  {
    std::lock_guard<std::mutex> lock(mem.mu);
    auto [it, inserted] = mem.loads.try_emplace(key);
    if (inserted) {
      it->second = promise.get_future().share();
    } else {
      pending = it->second;
    }
  }
  if (pending.valid()) {
    m.mem_hits.add();
    try {
      std::shared_ptr<Module> mod = pending.get();
      if (served != nullptr) *served = Origin::kMemory;
      return mod;
    } catch (const std::exception& e) {
      err = e.what();
      return fail();
    }
  }
  m.mem_misses.add();

  // Disk layer, then the compiler.
  const std::string key_hex = hex64(key);
  std::shared_ptr<Module> mod;
  const std::string dir = open_store(&err);
  if (!dir.empty()) {
    const std::string stem = dir + "/" + key_hex;
    const std::string text = stored_text(key_hex, source, tc);
    if (void* handle = open_stored(stem, text)) {
      mod = bind(handle, Origin::kDisk, 0.0, &err);
    }
    if (mod != nullptr) {
      m.disk_hits.add();
    } else {
      m.disk_misses.add();
      PendingEntry entry(stem);
      double ms = 0.0;
      if (!support::write_file(entry.cpp(), text)) {
        err = "cannot write " + entry.cpp();
      } else if (void* handle = compile(entry, key_hex, tc, &ms, &err)) {
        mod = bind(handle, Origin::kCompiled, ms, &err);
        if (mod != nullptr) entry.install();
      }
    }
  }

  if (mod == nullptr) {
    {
      std::lock_guard<std::mutex> lock(mem.mu);
      mem.loads.erase(key);
    }
    promise.set_exception(std::make_exception_ptr(std::runtime_error(err)));
    return fail();
  }
  promise.set_value(mod);
  if (served != nullptr) *served = mod->origin();
  return mod;
}

void Module::run_batch(std::int64_t* const* arrays, const PacketIn* in,
                       std::int32_t n, GenOut* out,
                       std::int32_t* gen_counts) const {
  run_batch_(arrays, in, n, out, gen_counts);
  // Batch-boundary instrumentation only: two relaxed atomic RMWs and one
  // histogram observation per *batch*; the generated per-packet loop above
  // runs exactly as emitted. Instruments resolve once per process.
  static obs::Counter& packets = obs::Registry::global().counter(
      "lucid_native_packets_total",
      "Packets run through instrumented native batch calls");
  static obs::Counter& batches = obs::Registry::global().counter(
      "lucid_native_batches_total", "Instrumented native batch calls");
  static obs::Histogram& sizes = obs::Registry::global().histogram(
      "lucid_native_batch_size", "Packets per native run_batch call");
  packets.add(static_cast<std::uint64_t>(n));
  batches.add();
  sizes.observe(static_cast<std::uint64_t>(n));
  // Sampled instant per batch (one relaxed load when tracing is off) — the
  // hook bench_obs drives at 1/256 sampling for its bounded-overhead gate.
  obs::Tracer::global().mark("native", "batch", "n", n);
}

}  // namespace lucid::native
