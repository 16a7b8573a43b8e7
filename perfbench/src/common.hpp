// Shared pieces of the benchmark harness: run options, the seeded generator,
// input fingerprints, and the timing probe that measures every layer call
// from outside (and, in a traced run, records it as an obs span).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "native/differential.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Traffic shape of a workload: same-timestamp bursts (every drain feeds a
/// multi-packet run_batch) or strictly increasing arrivals (every drain is
/// one packet).
enum class Shape { kBurst, kTrickle };

/// Packets per burst on the burst shape (the bench_native_mt burst size);
/// also the batch size the kernel probe uses on that shape.
inline constexpr int kBurstSize = 32;
/// Arrival gap between bursts, wider than the 400 ns pipeline latency so a
/// whole burst finishes its pass together.
inline constexpr std::int64_t kBurstGapNs = 2000;
/// Injections handed to the engine per call sequence: the harness never
/// holds more than one slice of generated inputs, so peak memory reflects
/// what the engine itself keeps.
inline constexpr int kSliceSize = 4096;
/// Arrivals per slice of the control-plane churn section.
inline constexpr int kChurnSlicePackets = 1024;

/// Work and wall of a steady-state section.
struct Round {
  std::uint64_t work = 0;      // pipeline passes executed
  std::uint64_t installs = 0;  // control-plane register writes applied
  double wall_s = 0;           // inside the timed layer calls
};

struct Options {
  std::string workload;  // "burst" | "trickle"
  Shape shape = Shape::kBurst;
  std::string phase;     // "cold" | "restart" | "parallel"
  std::uint64_t seed = 1;
  /// Which of a run's processes this is: selects the control-churn input
  /// stream, so the processes of one run pool distinct latency samples
  /// while their packet inputs stay identical (and their counts comparable).
  std::uint64_t stream = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON written at exit (trace only)
};

/// Deterministic generator (splitmix64, as the differential harness uses).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() { return lucid::native::diff::splitmix64(state_); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over generated inputs: printed per section, so two runs can be
/// checked for identical inputs without comparing the inputs themselves.
class Fingerprint {
 public:
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(std::string_view s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    add(static_cast<std::int64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call into a layer. The wall time is always measured (it feeds
/// the end-to-end metrics); when tracing is on, the same interval is also
/// recorded as a complete span named after the layer, with the workload as
/// category, the app as string argument and a work count as integer
/// argument. Spans go through Tracer::complete directly, so they are never
/// sampled away, and both readings come from the same two clock reads.
class Probe {
 public:
  Probe(std::string_view workload, std::string_view layer,
        std::string_view app)
      : workload_(workload), layer_(layer), app_(app),
        start_ns_(lucid::obs::Tracer::now_ns()) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Ends the interval; returns its wall seconds. `count` is the work done
  /// (packets, passes, ops) and lands in the span's "n" argument.
  double stop(std::int64_t count = 0) {
    const std::uint64_t dur = lucid::obs::Tracer::now_ns() - start_ns_;
    auto& tracer = lucid::obs::Tracer::global();
    if (tracer.enabled()) {
      tracer.complete(workload_, layer_, start_ns_, dur, "n", count, "app",
                      app_);
    }
    return static_cast<double>(dur) * 1e-9;
  }

 private:
  std::string_view workload_;
  std::string_view layer_;
  std::string_view app_;
  std::uint64_t start_ns_;
};

}  // namespace perfbench
