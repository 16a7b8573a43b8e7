#include "support/fs.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace lucid::support {

std::string temp_path_for(const std::string& path) {
  static std::atomic<unsigned> seq{0};
  const std::string tag = ".tmp-" + std::to_string(::getpid()) + "-" +
                          std::to_string(seq.fetch_add(1));
  const std::size_t slash = path.rfind('/');
  const std::size_t dot = path.rfind('.');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  if (!has_ext) return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good();
}

bool install_file(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::remove(tmp.c_str());
  return false;
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = temp_path_for(path);
  if (!write_file(tmp, bytes)) {
    std::remove(tmp.c_str());
    return false;
  }
  return install_file(tmp, path);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return ss.str();
}

}  // namespace lucid::support
