/// Unit tests for util/subprocess: the fork/exec + socket helpers under
/// the distributed window-solve service. These pin down the failure
/// surfacing the coordinator's supervision relies on — exec failures look
/// like immediate EOF (never a hang), kill_and_reap really kills and
/// really reaps (no zombies accumulate across restart storms), and the
/// byte-exact write accounting that the coordinator's sent/dropped split
/// is built on.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/subprocess.h"

namespace vm1::subprocess {
namespace {

TEST(Subprocess, MissingBinaryYieldsInvalidChild) {
  Child c = spawn_worker("/nonexistent/definitely_not_a_worker", {});
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c.pid, -1);
  EXPECT_EQ(c.fd, -1);
}

TEST(Subprocess, NonExecutableFileYieldsInvalidChild) {
  // A regular file without the x bit (this test's own source is not
  // guaranteed present, so make one).
  char path[] = "/tmp/vm1_subprocess_testXXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  EXPECT_FALSE(is_executable(path));
  Child c = spawn_worker(path, {});
  EXPECT_FALSE(c.valid());
  unlink(path);
}

TEST(Subprocess, ExecFailureSurfacesAsImmediateEofNotHang) {
  // A file that passes the is_executable pre-check but fails execv itself
  // (x-bit set, but neither ELF nor shebang): the child _exit(127)s and
  // the parent's contract is immediate EOF on the socket — never a hang,
  // never a half-spawned worker.
  char path[] = "/tmp/vm1_subprocess_execXXXXXX";
  int tmp = mkstemp(path);
  ASSERT_GE(tmp, 0);
  const char garbage[] = "\x7fNOT AN EXECUTABLE\n";
  ASSERT_EQ(write(tmp, garbage, sizeof garbage - 1),
            static_cast<ssize_t>(sizeof garbage - 1));
  close(tmp);
  ASSERT_EQ(chmod(path, 0755), 0);
  ASSERT_TRUE(is_executable(path));

  Child c = spawn_worker(path, {});
  ASSERT_TRUE(c.valid()) << "fork itself should succeed";
  std::uint8_t buf[16];
  long n = read_some(c.fd, buf, sizeof buf);
  EXPECT_EQ(n, 0) << "expected EOF from the _exit(127) child";
  close(c.fd);
  kill_and_reap(c.pid);
  EXPECT_TRUE(try_reap(c.pid));
  unlink(path);
}

/// A long-lived child for the kill/reap tests. spawn_worker appends
/// `--fd=N`, which `sh -c SCRIPT` takes as $0; `exec` makes the sleep the
/// spawned pid itself, so no grandchild outlives the kill.
Child spawn_sleeper() {
  Child c = spawn_worker("/bin/sh", {"-c", "exec sleep 30"});
  if (c.fd >= 0) close(c.fd);  // only the pid matters here
  return c;
}

TEST(Subprocess, KillAndReapTerminatesASleepingChild) {
  pid_t pid = spawn_sleeper().pid;
  ASSERT_GT(pid, 0);
  EXPECT_FALSE(try_reap(pid)) << "sleep(30) exited implausibly fast";
  kill_and_reap(pid, /*timeout_sec=*/5.0);
  // After kill_and_reap the pid must be fully collected: a second waitpid
  // finds nothing (ECHILD), i.e. no zombie remains.
  int status = 0;
  pid_t r = waitpid(pid, &status, WNOHANG);
  EXPECT_TRUE(r < 0 && errno == ECHILD) << "child " << pid << " not reaped";
}

TEST(Subprocess, RepeatedRespawnsLeaveNoZombies) {
  // A restart storm: every generation must be reaped before the next, or
  // the coordinator would leak one zombie per worker death.
  std::vector<pid_t> pids;
  for (int i = 0; i < 8; ++i) {
    pid_t pid = spawn_sleeper().pid;
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
    kill_and_reap(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    pid_t r = waitpid(pid, &status, WNOHANG);
    EXPECT_TRUE(r < 0 && errno == ECHILD) << "zombie " << pid << " leaked";
  }
}

TEST(Subprocess, KillAndReapIsIdempotentAndIgnoresBogusPids) {
  kill_and_reap(-1);
  kill_and_reap(0);
  pid_t pid = spawn_sleeper().pid;
  ASSERT_GT(pid, 0);
  kill_and_reap(pid);
  kill_and_reap(pid);  // second call: already reaped, must not block
  EXPECT_TRUE(try_reap(pid));
}

TEST(Subprocess, WriteUptoReportsDeliveredBytesOnDeadPeer) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char msg[] = "delivered in full";
  EXPECT_EQ(write_upto(sv[0], msg, sizeof msg), sizeof msg);
  EXPECT_TRUE(write_all(sv[0], msg, sizeof msg));

  // Sever the peer: the write must fail (EPIPE, not SIGPIPE) and report
  // zero delivered bytes — the split the coordinator's dropped-byte
  // accounting depends on.
  close(sv[1]);
  EXPECT_EQ(write_upto(sv[0], msg, sizeof msg), 0u);
  EXPECT_FALSE(write_all(sv[0], msg, sizeof msg));
  close(sv[0]);
}

TEST(Subprocess, SpawnWorkerPassesArgsAndFdContract) {
  // spawn_worker appends --fd=N naming the child's inherited socket end;
  // for `/bin/sh -c SCRIPT` that lands in $0. The script writes through
  // that fd, proving both the argument passthrough and that the fd really
  // is open in the child.
  Child c = spawn_worker("/bin/sh", {"-c", "eval \"printf ok >&${0#--fd=}\""});
  ASSERT_TRUE(c.valid());
  char buf[8] = {};
  long n = read_some(c.fd, buf, sizeof buf);
  ASSERT_EQ(n, 2);
  EXPECT_EQ(std::string(buf, 2), "ok");
  close(c.fd);
  kill_and_reap(c.pid);
}

}  // namespace
}  // namespace vm1::subprocess
