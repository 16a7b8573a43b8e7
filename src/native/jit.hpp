// In-process JIT for native pipeline modules: compiles the emitted C++ with
// the system compiler, dlopens the result, and resolves the three ABI entry
// points (src/native/abi.hpp, v2). Modules live in a two-layer,
// content-addressed cache, so the external compiler runs once per module
// per machine, not once per process.
//
// Flags: `-O3 -march=native -fPIC -shared -nostdlib -pipe -std=c++17`,
// retried without `-march=native` if that compile fails. `-nostdlib` gives
// the crt-free, library-free link abi.hpp describes. `-O3` stays: `-O2`
// compiles ~12% faster but the raw kernel runs ~1.5x slower (geomean over
// the paper apps; ROADMAP item 2 has the data).
//
// Compiler: $LUCID_NATIVE_CXX, then the compiler that built this binary
// (LUCID_NATIVE_CXX_DEFAULT, baked in by CMake), then "c++". The variable is
// split on whitespace into an argv ("ccache c++" works); it is never
// shell-parsed, so quotes and `$(...)` are plain bytes. The compiler is
// spawned directly (posix_spawnp) with a fixed kCompileTimeout; on expiry
// the child is killed and the load fails with its captured stderr.
//
// Key: FNV-64 over the emitted source, the compiler's `--version` output
// (probed once per process per compiler), the compiler argv, the flag list,
// the host CPU's `model name` and `flags` lines from /proc/cpuinfo, and
// kAbiVersion. A new compiler, a new CPU or a new ABI is a new key.
//
// Memory layer: key -> shared future of the module. Its mutex guards only
// the map lookup/insert, never a compile: concurrent loads of one key
// compile once and share the Module, loads of different keys compile in
// parallel. Failed loads are dropped from the map, so a retry recompiles.
//
// Disk layer (the module store): `$TMPDIR/lucid-jit-cache-<euid>/`
// (`/tmp` when $TMPDIR is unset), holding `<key>.cpp` and `<key>.so` per
// module.
//   - Ownership: the dir is created 0700. A store that is not a directory
//     owned by the effective uid, or that is group- or world-writable, is
//     refused and the load fails with an error naming it.
//   - Identity: the stored `.cpp` is a one-line identity header (key, ABI,
//     compiler argv, flags, hashes of the compiler version and CPU lines)
//     followed by the source. A hit needs that file byte-identical to the
//     expected text and a `.so` whose ELF extents fit its size; then it is
//     dlopened and ABI-checked. Any mismatch or dlopen failure is a miss:
//     the module is recompiled and the entry replaced.
//   - Install: the compiler writes unique temps inside the store; a module
//     that loads and passes the ABI check is renamed into place, `.so`
//     first, then `.cpp`. Failed compiles are never stored.
//   - Debris: a compile killed mid-flight (SIGKILL, power loss) leaves its
//     temps `<key>.tmp-<pid>-<seq>.{cpp,so}` behind. The first store open
//     in each process removes temps older than kStaleTempAge, which is
//     past anything a live compile can hold.
//   - Eviction is manual: `rm -rf "${TMPDIR:-/tmp}/lucid-jit-cache-$(id -u)"`
//     (safe while nothing is compiling; loaded modules stay mapped).
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "native/abi.hpp"

namespace lucid::native {

/// Upper bound on one external compile; the child is SIGKILLed after it.
inline constexpr std::chrono::seconds kCompileTimeout{60};

/// Age past which a store temp is debris. A live compile writes its `.cpp`
/// temp, then runs the primary attempt and possibly the fallback, each
/// bounded by kCompileTimeout; the third timeout is margin.
inline constexpr std::chrono::seconds kStaleTempAge = 3 * kCompileTimeout;

/// Where a loaded module came from. The values are stable: the native
/// backend exports them as its `jit_origin` artifact metric.
enum class Origin {
  kCompiled = 0,  // the external compiler ran in this process
  kDisk = 1,      // the module store had a verified entry (compile_ms() == 0)
  kMemory = 2,    // an earlier load in this process (Module::load's `served`)
};

[[nodiscard]] const char* origin_name(Origin o);

/// A loaded module. Holds the dlopen handle open for the process lifetime
/// (handles are shared via the cache and never dlclosed — generated code may
/// be referenced by long-lived Replica objects).
class Module {
 public:
  /// Loads the module for `source` from the cache, compiling it on a miss;
  /// returns nullptr and fills `error` on any failure (compiler missing or
  /// timed out, compile error, refused store, dlopen/dlsym failure, ABI
  /// version mismatch). `served`, when non-null, reports the layer that
  /// answered this call (kMemory on an in-process hit).
  static std::shared_ptr<Module> load(const std::string& source,
                                      std::string* error,
                                      Origin* served = nullptr);

  [[nodiscard]] std::int32_t max_gens() const { return max_gens_; }
  /// Runs a batch and publishes the obs batch metrics (one histogram
  /// observation + one counter add per *batch*, so the per-packet path
  /// inside the generated code stays untouched). Out-of-line in jit.cpp.
  void run_batch(std::int64_t* const* arrays, const PacketIn* in,
                 std::int32_t n, GenOut* out,
                 std::int32_t* gen_counts) const;

  /// The raw generated entry point, with no instrumentation at all —
  /// bench_obs measures its pps as the baseline for the overhead gate, and
  /// native::Replica runs its drains through it.
  [[nodiscard]] RunBatchFn raw_run_batch() const { return run_batch_; }

  /// Milliseconds spent in the external compiler (0 for a store hit).
  [[nodiscard]] double compile_ms() const { return compile_ms_; }
  /// How this module entered the process: kCompiled or kDisk. Read it next
  /// to compile_ms(), so a store hit's 0 ms is not taken for a fast compile.
  [[nodiscard]] Origin origin() const { return origin_; }

 private:
  Module() = default;
  /// Resolves the entry points of a dlopened `handle` and checks its ABI
  /// version; dlcloses it and returns nullptr on failure.
  static std::shared_ptr<Module> bind(void* handle, Origin origin,
                                      double compile_ms, std::string* error);

  void* handle_ = nullptr;
  RunBatchFn run_batch_ = nullptr;
  std::int32_t max_gens_ = 0;
  double compile_ms_ = 0.0;
  Origin origin_ = Origin::kCompiled;
};

}  // namespace lucid::native
