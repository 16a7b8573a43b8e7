#include "support/process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <thread>

extern char** environ;

namespace lucid::support {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped to [0, 1 s] so poll's int
/// timeout never overflows.
int ms_left(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return static_cast<int>(std::clamp<long long>(left, 0, 1000));
}

}  // namespace

ProcessResult run_process(const std::vector<std::string>& argv,
                          std::chrono::milliseconds timeout) {
  ProcessResult r;
  if (argv.empty()) {
    r.error = "empty command";
    return r;
  }
  // O_CLOEXEC keeps these pipes out of every other child spawned
  // concurrently; the dup2 below clears it on the child's own copies only.
  int out_fd[2];
  int err_fd[2];
  if (::pipe2(out_fd, O_CLOEXEC) != 0) {
    r.error = std::string("pipe: ") + std::strerror(errno);
    return r;
  }
  if (::pipe2(err_fd, O_CLOEXEC) != 0) {
    r.error = std::string("pipe: ") + std::strerror(errno);
    ::close(out_fd[0]);
    ::close(out_fd[1]);
    return r;
  }

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, out_fd[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err_fd[1], 2);
  // A group of its own, so a timeout kills the compiler driver's children
  // (cc1plus, as, ld) along with it.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);

  pid_t pid = 0;
  const int rc =
      ::posix_spawnp(&pid, cargv[0], &actions, &attr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  ::close(out_fd[1]);
  ::close(err_fd[1]);
  if (rc != 0) {
    ::close(out_fd[0]);
    ::close(err_fd[0]);
    r.error = "cannot run '" + argv[0] + "': " + std::strerror(rc);
    return r;
  }
  r.started = true;

  // Drain both pipes until EOF or the deadline.
  const Clock::time_point deadline = Clock::now() + timeout;
  pollfd fds[2] = {{out_fd[0], POLLIN, 0}, {err_fd[0], POLLIN, 0}};
  std::string* sinks[2] = {&r.out, &r.err};
  int open = 2;
  while (open > 0) {
    if (Clock::now() >= deadline) {
      r.timed_out = true;
      break;
    }
    const int n = ::poll(fds, 2, ms_left(deadline));
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;  // timeout or EINTR: revents are not fresh
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      char buf[4096];
      const ssize_t got = ::read(fds[i].fd, buf, sizeof(buf));
      if (got > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EINTR) {
        ::close(fds[i].fd);
        fds[i].fd = -1;  // poll skips negative fds
        --open;
      }
    }
  }
  for (const pollfd& p : fds) {
    if (p.fd >= 0) ::close(p.fd);
  }

  // Reap. A child that closed its pipes is normally exiting already; the
  // deadline still bounds one that lingers.
  int status = 0;
  while (!r.timed_out) {
    const pid_t w = ::waitpid(pid, &status, WNOHANG);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) return r;
    if (Clock::now() >= deadline) {
      r.timed_out = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (r.timed_out) {
    ::kill(-pid, SIGKILL);
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return r;
  }
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.term_signal = WTERMSIG(status);
  }
  return r;
}

std::vector<std::string> split_command(std::string_view cmd) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<std::string> argv;
  std::size_t i = 0;
  while (i < cmd.size()) {
    while (i < cmd.size() && space(cmd[i])) ++i;
    const std::size_t start = i;
    while (i < cmd.size() && !space(cmd[i])) ++i;
    if (i > start) argv.emplace_back(cmd.substr(start, i - start));
  }
  return argv;
}

}  // namespace lucid::support
