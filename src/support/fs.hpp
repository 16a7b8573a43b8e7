// Crash-safe file writes shared by the two on-disk caches: the emitted-
// artifact store (core/cache.cpp) and the JIT module store
// (native/jit.cpp). Both write a complete file under a unique sibling temp
// name and then rename it into place, so a reader — another process sharing
// the directory included — only ever sees a whole entry, and a crash or a
// full disk leaves a temp file behind, never a torn one.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace lucid::support {

/// A fresh sibling temp name for `path`: same directory, `.tmp-<pid>-<seq>`
/// inserted before the extension (so `m.so` becomes `m.tmp-42-0.so` and a
/// compiler still recognizes `m.tmp-42-0.cpp` as C++). Unique across the
/// threads of a process and across processes.
[[nodiscard]] std::string temp_path_for(const std::string& path);

/// Writes `bytes` to `path`, truncating it. False on any I/O error.
[[nodiscard]] bool write_file(const std::string& path, std::string_view bytes);

/// Atomically renames `tmp` over `path`. On failure `tmp` is removed.
bool install_file(const std::string& tmp, const std::string& path);

/// write_file to temp_path_for(path), then install_file. Readers see either
/// the old file or the complete new one. On failure nothing is left behind.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// The whole file, or nullopt when it cannot be read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace lucid::support
