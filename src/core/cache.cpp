#include "core/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "frontend/fingerprint.hpp"
#include "frontend/parser.hpp"
#include "frontend/printer.hpp"
#include "support/fs.hpp"

namespace lucid {

std::string options_fingerprint(const DriverOptions& options, Stage upto) {
  std::ostringstream os;
  // Model-dependent inputs only appear at the depth that consumes them:
  // below Stage::Layout the fingerprint is empty, which is what lets a
  // Lower-deep master (and its shared LayoutAnalysis) serve every resource
  // model without invalidation.
  if (upto >= Stage::Layout) {
    const opt::ResourceModel& m = options.model;
    os << "model:" << m.max_stages << "," << m.tables_per_stage << ","
       << m.salus_per_stage << "," << m.rules_per_table << ","
       << m.members_per_table << "," << m.alu_ops_per_stage << ";";
  }
  if (upto >= Stage::Emit) {
    os << "name:" << options.program_name << ";";
  }
  return os.str();
}

namespace {

Stage clamp_keep_stage(Stage s) {
  const int i = static_cast<int>(s);
  if (i < static_cast<int>(Stage::Sema)) return Stage::Sema;
  if (i > static_cast<int>(Stage::Layout)) return Stage::Layout;
  return s;
}

}  // namespace

ArtifactCache::ArtifactCache(Stage keep_stage, std::string cache_dir)
    : keep_stage_(clamp_keep_stage(keep_stage)), dir_(std::move(cache_dir)) {}

std::uint64_t ArtifactCache::source_key(std::string_view source) {
  const std::uint64_t raw = fnv1a64(source);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = key_memo_.find(raw);
    if (it != key_memo_.end()) return it->second;
  }
  // Probe parse outside the lock (sources parse independently; a duplicate
  // race just stores the same value twice).
  DiagnosticEngine diags{std::string(source)};
  const frontend::Program probe = frontend::Parser::parse(source, diags);
  const std::uint64_t key =
      diags.has_errors() ? raw : frontend::structural_hash(probe);
  std::lock_guard<std::mutex> lock(mu_);
  key_memo_.emplace(raw, key);
  return key;
}

CompilationPtr ArtifactCache::compile(const CompilerDriver& driver,
                                      std::string_view source, bool* hit) {
  const std::string fp = options_fingerprint(driver.options(), keep_stage_);
  if (hit != nullptr) *hit = false;

  // Structural keying, cheapest-first: the byte-hash memo resolves repeat
  // lookups of previously seen bytes without parsing, and a hit whose
  // master holds these exact bytes needs no structural confirmation. Only
  // a *new formatting variant* of a cached program pays a probe parse —
  // the structural program_equal guard against its master's AST needs the
  // tree. An unparsable source keeps the raw byte hash — it can never be
  // cached anyway (failures are not stored), so the key only routes it to
  // a miss. A first-time miss parses once here and once inside driver.run
  // below; the probe cannot be handed over (the master must own its stage
  // records and diagnostics), and parse is the cheapest stage.
  const std::uint64_t raw = fnv1a64(source);
  std::optional<std::uint64_t> memo_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = key_memo_.find(raw);
    if (it != key_memo_.end()) memo_key = it->second;
  }
  std::optional<frontend::Program> probe;
  bool parsed = false;
  const auto ensure_probe = [&] {
    if (probe.has_value()) return;
    DiagnosticEngine probe_diags{std::string(source)};
    probe = frontend::Parser::parse(source, probe_diags);
    parsed = !probe_diags.has_errors();
  };
  std::uint64_t key = 0;
  if (memo_key.has_value()) {
    key = *memo_key;
    parsed = key != raw;  // raw keys are only ever memoized for parse fails
  } else {
    ensure_probe();
    key = parsed ? frontend::structural_hash(*probe) : raw;
    std::lock_guard<std::mutex> lock(mu_);
    key_memo_.emplace(raw, key);
  }

  // Pull the candidate entry out, then confirm it without holding the
  // lock (masters are immutable; the shared_ptr keeps ours alive even if
  // the entry is concurrently replaced).
  ConstCompilationPtr master;
  std::string entry_fp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      master = it->second.master;
      entry_fp = it->second.fingerprint;
    }
  }
  if (master != nullptr) {
    // The hash is only a bucket key; a hit is confirmed byte-for-byte
    // against the master's source or — for a formatting variant —
    // structurally against its AST (memoized per byte variant), so a
    // collision can never serve another program's artifacts.
    bool same = master->source() == source;
    if (!same) {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = confirmed_.find(raw);
      same = it != confirmed_.end() && it->second == master.get();
    }
    if (!same) {
      ensure_probe();
      same = parsed && frontend::program_equal(*probe, master->ast());
      if (same) {
        std::lock_guard<std::mutex> lock(mu_);
        confirmed_[raw] = master.get();
      }
    }
    if (same && entry_fp == fp) {
      CompilationPtr clone =
          master->clone_from_stage(keep_stage_, driver.options());
      if (clone != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hits;
        if (hit != nullptr) *hit = true;
        return clone;
      }
      // A master that cannot be cloned is a stale entry; fall through.
    }
    if (same) {
      // Same program, different option fingerprint (or unclonable): the
      // cached artifacts are stale for this caller — drop and recompile.
      // Pointer identity guards the erase against a concurrent replace.
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.master == master) {
        ++stats_.invalidations;
        entries_.erase(it);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
  }

  // Front end runs outside the lock (compilations of different sources may
  // proceed in parallel; a duplicate race just overwrites an equal entry).
  CompilationPtr fresh = driver.run(source, keep_stage_);
  if (!fresh->succeeded(keep_stage_)) return fresh;  // failures not cached

  CompilationPtr clone = fresh->clone_from_stage(keep_stage_,
                                                 driver.options());
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = Entry{fp, fresh};
  }
  return clone != nullptr ? clone : fresh;
}

// ---------------------------------------------------------------------------
// Disk layer (emitted backend artifacts)
// ---------------------------------------------------------------------------

std::string ArtifactCache::artifact_path(std::uint64_t source_key,
                                         const DriverOptions& options,
                                         std::string_view backend) const {
  const std::string fp = options_fingerprint(options, Stage::Emit);
  // The key spells out the backend name and compiler version so artifacts
  // for the same source from different emitters (p4 vs ebpf) or different
  // compiler builds can never collide on disk; the in-file "compiler" record
  // stays as a second line of defense for hand-copied entries. source_key
  // is the *structural* key, so every formatting variant of a program maps
  // to one disk entry.
  std::string name = hex64(source_key) + "-" + hex64(fnv1a64(fp)) + "-" +
                     std::string(backend) + "-v" + std::string(kLucidVersion) +
                     ".art";
  return dir_ + "/" + name;
}

std::optional<BackendArtifact> ArtifactCache::load_artifact(
    std::string_view source, const DriverOptions& options,
    std::string_view backend) {
  if (dir_.empty()) return std::nullopt;
  const std::uint64_t skey = source_key(source);
  std::ifstream in(artifact_path(skey, options, backend), std::ios::binary);
  const auto miss = [this]() -> std::optional<BackendArtifact> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_misses;
    return std::nullopt;
  };
  if (!in) return miss();

  std::string line;
  if (!std::getline(in, line) || line != "lucid-artifact v2") return miss();

  BackendArtifact artifact;
  artifact.ok = true;
  std::size_t text_size = 0;
  bool version_ok = false;
  bool text_seen = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "compiler") {
      // Entries written by a different compiler build are stale: the
      // emitters may have changed, and serving their output would mask it.
      std::string version;
      ls >> version;
      if (version != kLucidVersion) return miss();
      version_ok = true;
    } else if (tag == "skey") {
      // Anti-collision guard: the filename is hash-derived, so require the
      // entry to echo the structural key it was stored under.
      std::string echoed;
      if (!(ls >> echoed) || echoed != hex64(skey)) return miss();
    } else if (tag == "backend") {
      ls >> artifact.backend;
    } else if (tag == "metric") {
      std::string k;
      std::int64_t v = 0;
      if (!(ls >> k >> v)) return miss();  // truncated/corrupt entry
      artifact.metrics[k] = v;
    } else if (tag == "text") {
      if (!(ls >> text_size)) return miss();
      text_seen = true;
      break;
    } else {
      return miss();
    }
  }
  // An entry truncated before its text record (interrupted store) must be a
  // miss, not a successful empty artifact.
  if (!version_ok || !text_seen || artifact.backend != backend) return miss();
  artifact.text.resize(text_size);
  if (text_size > 0 &&
      !in.read(artifact.text.data(),
               static_cast<std::streamsize>(text_size))) {
    return miss();
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_hits;
  return artifact;
}

void ArtifactCache::store_artifact(std::string_view source,
                                   const DriverOptions& options,
                                   const BackendArtifact& artifact) {
  if (dir_.empty() || !artifact.ok) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  const std::uint64_t skey = source_key(source);
  std::ostringstream out;
  out << "lucid-artifact v2\n";
  out << "compiler " << kLucidVersion << "\n";
  out << "skey " << hex64(skey) << "\n";
  out << "backend " << artifact.backend << "\n";
  for (const auto& [k, v] : artifact.metrics) {
    out << "metric " << k << " " << v << "\n";
  }
  out << "text " << artifact.text.size() << "\n";
  out << artifact.text;
  // Atomic install (support/fs.hpp): readers, other processes sharing the
  // cache dir included, only ever see complete entries.
  if (!support::write_file_atomic(
          artifact_path(skey, options, artifact.backend), out.str())) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_writes;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  key_memo_.clear();
  confirmed_.clear();
  stats_ = Stats{};
}

}  // namespace lucid
