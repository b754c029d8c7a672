#include "util/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include "util/logging.h"

namespace vm1::subprocess {

namespace {

void set_cloexec(int fd) {
  int flags = fcntl(fd, F_GETFD);
  if (flags >= 0) fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

}  // namespace

bool is_executable(const std::string& path) {
  struct stat st{};
  if (stat(path.c_str(), &st) != 0) return false;
  return S_ISREG(st.st_mode) && access(path.c_str(), X_OK) == 0;
}

Child spawn_worker(const std::string& path,
                   const std::vector<std::string>& args) {
  Child child;
  if (!is_executable(path)) {
    log_warn("subprocess: worker binary not executable: ", path);
    return child;
  }
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    log_warn("subprocess: socketpair failed: ", std::strerror(errno));
    return child;
  }
  // Parent keeps sv[0]; the child's end sv[1] must survive exec in the
  // child but never leak into siblings spawned later from the parent.
  set_cloexec(sv[0]);

  std::string argv0 = path;
  std::size_t slash = argv0.find_last_of('/');
  if (slash != std::string::npos) argv0 = argv0.substr(slash + 1);
  std::string fd_arg = "--fd=" + std::to_string(sv[1]);

  pid_t pid = fork();
  if (pid < 0) {
    log_warn("subprocess: fork failed: ", std::strerror(errno));
    close(sv[0]);
    close(sv[1]);
    return child;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    close(sv[0]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(argv0.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(const_cast<char*>(fd_arg.c_str()));
    argv.push_back(nullptr);
    execv(path.c_str(), argv.data());
    _exit(127);  // exec failed; the parent sees EOF on the socket
  }
  close(sv[1]);
  child.pid = pid;
  child.fd = sv[0];
  return child;
}

std::size_t write_upto(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t written = 0;
  while (written < len) {
    ssize_t n = send(fd, p + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    written += static_cast<std::size_t>(n);
  }
  return written;
}

bool write_all(int fd, const void* data, std::size_t len) {
  return write_upto(fd, data, len) == len;
}

long read_some(int fd, void* data, std::size_t len) {
  for (;;) {
    ssize_t n = recv(fd, data, len, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno != EINTR) return -1;
  }
}

bool try_reap(pid_t pid) {
  if (pid <= 0) return true;
  int status = 0;
  pid_t r = waitpid(pid, &status, WNOHANG);
  if (r == pid) return true;
  if (r < 0 && errno == ECHILD) return true;  // someone else reaped it
  return false;
}

void kill_and_reap(pid_t pid, double timeout_sec) {
  if (pid <= 0) return;
  if (try_reap(pid)) return;
  kill(pid, SIGKILL);
  // A SIGKILLed child exits promptly unless stuck in uninterruptible IO;
  // poll with a short sleep rather than blocking in waitpid forever.
  const int kSliceUs = 10'000;
  int slices = static_cast<int>(timeout_sec * 1e6 / kSliceUs) + 1;
  for (int i = 0; i < slices; ++i) {
    if (try_reap(pid)) return;
    usleep(kSliceUs);
  }
  log_warn("subprocess: child ", pid, " did not die within ", timeout_sec,
           "s of SIGKILL");
}

}  // namespace vm1::subprocess
