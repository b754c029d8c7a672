/// \file subprocess.h
/// Minimal fork/exec + Unix-domain-socket helpers for the distributed
/// window-solve backend (src/dist). Everything here is POSIX-only and
/// deliberately tiny: one spawn entry point (spawn_worker, one blocking
/// socketpair per worker — the only way a coordinator launches its own
/// workers), EINTR-safe whole-buffer reads/writes, and reap-with-deadline
/// so a wedged worker can never wedge the coordinator's destructor.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

namespace vm1::subprocess {

/// A spawned child connected to us by one SOCK_STREAM Unix socket.
/// `fd` is the parent's end; the child sees its end as the fd number
/// passed in argv (the worker's `--fd=N` contract).
struct Child {
  pid_t pid = -1;
  int fd = -1;

  bool valid() const { return pid > 0 && fd >= 0; }
};

/// Forks and execs `path` with `args` (argv[0] is derived from `path`),
/// plus a final `--fd=N` argument naming the child's socket end. Returns
/// an invalid Child (and logs) if the binary is missing/not executable or
/// any syscall fails; never throws. The child's end is close-on-exec'd in
/// the parent, so worker A never inherits worker B's socket.
Child spawn_worker(const std::string& path,
                   const std::vector<std::string>& args);

/// Writes the whole buffer, retrying on EINTR/partial writes. Uses
/// send(MSG_NOSIGNAL) so a dead peer yields EPIPE instead of SIGPIPE.
/// Returns false on any unrecoverable error.
bool write_all(int fd, const void* data, std::size_t len);

/// Like write_all but reports how many bytes actually reached the kernel
/// before a failure (== len on success) — the coordinator's byte
/// accounting needs the split between delivered and dropped-mid-frame
/// bytes when a peer dies mid-write.
std::size_t write_upto(int fd, const void* data, std::size_t len);

/// Reads up to `len` bytes (one chunk, not a loop). Returns >0 bytes
/// read, 0 on orderly EOF, -1 on unrecoverable error. Retries EINTR.
long read_some(int fd, void* data, std::size_t len);

/// True if `path` names an executable regular file.
bool is_executable(const std::string& path);

/// SIGKILLs the child (if alive) and reaps it, waiting up to
/// `timeout_sec` before giving up (leaving a zombie is still better than
/// hanging the caller). Safe to call twice; closes nothing.
void kill_and_reap(pid_t pid, double timeout_sec = 2.0);

/// Non-blocking reap. Returns true if the child has exited (status
/// collected) or is already gone.
bool try_reap(pid_t pid);

}  // namespace vm1::subprocess
