// Running a child process without a shell: posix_spawnp with an argv, its
// stdout and stderr captured through pipes, and a hard deadline. The JIT
// (native/jit.cpp) runs the system C++ compiler through this; nothing in the
// argv is ever shell-parsed, so quotes, spaces and `$(...)` in paths are
// plain bytes.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

namespace lucid::support {

struct ProcessResult {
  bool started = false;    // false: the spawn itself failed (see `error`)
  bool timed_out = false;  // the deadline passed; the child was SIGKILLed
  int exit_code = -1;      // exit status when the child exited normally
  int term_signal = 0;     // the signal that ended it otherwise
  std::string out;         // captured stdout
  std::string err;         // captured stderr
  std::string error;       // why the spawn failed

  [[nodiscard]] bool ok() const {
    return started && !timed_out && exit_code == 0;
  }
};

/// Runs `argv` (argv[0] is looked up on $PATH unless it contains a '/')
/// with stdin on /dev/null, in its own process group. When `timeout`
/// passes before it exits, the whole group gets SIGKILL and the result is
/// `timed_out`, with whatever the child had written so far.
[[nodiscard]] ProcessResult run_process(const std::vector<std::string>& argv,
                                        std::chrono::milliseconds timeout);

/// Splits a command string on ASCII whitespace. No quoting, escaping or
/// expansion of any kind: "ccache c++" is {"ccache", "c++"}.
[[nodiscard]] std::vector<std::string> split_command(std::string_view cmd);

}  // namespace lucid::support
