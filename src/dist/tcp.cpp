#include "dist/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/hmac.h"
#include "util/logging.h"

namespace vm1::dist {

namespace {

void set_nonblocking(int fd, bool nonblocking) {
  int flags = fcntl(fd, F_GETFL);
  if (flags < 0) return;
  if (nonblocking) {
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  } else {
    fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
}

/// TCP_NODELAY + keepalive on every established worker socket: request
/// frames must not sit in Nagle buffers, and a silently-vanished peer
/// (host down, cable pulled) must eventually error out of the kernel even
/// between heartbeats.
void configure_stream(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof one);
#ifdef TCP_KEEPIDLE
  int idle = 30, intvl = 10, cnt = 3;
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof idle);
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &intvl, sizeof intvl);
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &cnt, sizeof cnt);
#endif
}

/// Deadline-bounded whole-buffer write on a nonblocking fd. Returns bytes
/// written (== len on success).
std::size_t write_all_deadline(int fd, const void* data, std::size_t len,
                               double timeout_sec) {
  const char* p = static_cast<const char*>(data);
  std::size_t written = 0;
  Timer clock;
  while (written < len) {
    ssize_t n = send(fd, p + written, len - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) break;
    double remaining = timeout_sec - clock.seconds();
    if (remaining <= 0) break;  // write deadline: peer cannot absorb bytes
    pollfd pfd{fd, POLLOUT, 0};
    int pr = poll(&pfd, 1,
                  static_cast<int>(std::min(remaining * 1000.0 + 1.0, 100.0)));
    if (pr < 0 && errno != EINTR) break;
  }
  return written;
}

/// Deadline-bounded read on a nonblocking fd: >0 bytes, 0 EOF, -1
/// error-or-deadline.
long read_some_deadline(int fd, void* data, std::size_t len,
                        double timeout_sec) {
  Timer clock;
  for (;;) {
    ssize_t n = recv(fd, data, len, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return -1;
    double remaining = timeout_sec - clock.seconds();
    if (remaining <= 0) return -1;
    pollfd pfd{fd, POLLIN, 0};
    int pr = poll(&pfd, 1,
                  static_cast<int>(std::min(remaining * 1000.0 + 1.0, 100.0)));
    if (pr < 0 && errno != EINTR) return -1;
  }
}

/// Reads exactly one frame within the deadline, appending surplus bytes to
/// `buf` first and leaving any post-frame bytes in it.
std::optional<Frame> read_frame_deadline(int fd, std::vector<std::uint8_t>& buf,
                                         double timeout_sec) {
  Timer clock;
  for (;;) {
    std::optional<Frame> f;
    try {
      f = extract_frame(buf);
    } catch (const WireError& e) {
      log_warn("dist/tcp: garbled stream during handshake: ", e.what());
      return std::nullopt;
    }
    if (f) return f;
    double remaining = timeout_sec - clock.seconds();
    if (remaining <= 0) return std::nullopt;
    std::uint8_t chunk[4096];
    long n = read_some_deadline(fd, chunk, sizeof chunk, remaining);
    if (n <= 0) return std::nullopt;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

/// An accepted peer: the transport owns only the socket, never a process.
class TcpConnection final : public Connection {
 public:
  TcpConnection(int fd, double io_timeout_sec)
      : fd_(fd), io_timeout_sec_(io_timeout_sec) {}
  ~TcpConnection() override { hard_close(); }

  int fd() const override { return fd_; }

  std::size_t write_all(const void* data, std::size_t len) override {
    return write_all_deadline(fd_, data, len, io_timeout_sec_);
  }

  long read_some(void* data, std::size_t len) override {
    return read_some_deadline(fd_, data, len, io_timeout_sec_);
  }

  void hard_close() override {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  const char* kind() const override { return "tcp"; }

 private:
  int fd_;
  double io_timeout_sec_;
};

/// The effective shared secret: the explicit value when non-empty,
/// otherwise $VM1_DIST_SECRET, otherwise "".
std::string resolve_secret(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("VM1_DIST_SECRET")) return env;
  return "";
}

}  // namespace

void TcpTransportOptions::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("TcpTransportOptions: " + what);
  };
  if (port < 0 || port > 65535) {
    bad("port must be in [0, 65535], got " + std::to_string(port));
  }
  if (host.empty()) bad("host must not be empty");
  if (io_timeout_sec <= 0) {
    bad("io_timeout_sec must be > 0, got " + std::to_string(io_timeout_sec));
  }
}

TcpTransport::TcpTransport(TcpTransportOptions opts) : opts_(std::move(opts)) {
  opts_.validate();
  opts_.secret = resolve_secret(opts_.secret);

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("dist/tcp: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    throw std::runtime_error("dist/tcp: bad listen address " + opts_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 16) != 0) {
    std::string err = std::strerror(errno);
    close(listen_fd_);
    throw std::runtime_error("dist/tcp: cannot listen on " + opts_.host + ":" +
                             std::to_string(opts_.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  listen_port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_, true);

  // Nonce stream seed: never part of any result, so real entropy is fine
  // (unlike the fault schedules, which must replay deterministically).
  std::random_device rd;
  nonce_state_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
                 static_cast<std::uint64_t>(getpid()) ^
                 static_cast<std::uint64_t>(
                     std::chrono::steady_clock::now().time_since_epoch()
                         .count());

  log_info("dist/tcp: listening on ", opts_.host, ":", listen_port_);
}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

std::optional<Established> TcpTransport::establish(double timeout_sec) {
  Timer clock;
  auto fail = [](int fd) -> std::optional<Established> {
    if (fd >= 0) close(fd);
    return std::nullopt;
  };

  // Accept: poll the nonblocking listener until a peer arrives or the
  // deadline passes.
  int fd = -1;
  for (;;) {
    sockaddr_in peer{};
    socklen_t plen = sizeof peer;
    fd = accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen);
    if (fd >= 0) break;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR &&
        errno != ECONNABORTED) {
      log_warn("dist/tcp: accept failed: ", std::strerror(errno));
      return fail(-1);
    }
    double remaining = timeout_sec - clock.seconds();
    if (remaining <= 0) {
      log_warn("dist/tcp: no worker attached within ", timeout_sec, "s");
      return fail(-1);
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    poll(&pfd, 1,
         static_cast<int>(std::min(remaining * 1000.0 + 1.0, 100.0)));
  }
  configure_stream(fd);
  set_nonblocking(fd, true);

  // Challenge.
  WireChallenge ch;
  ch.nonce.resize(32);
  for (std::size_t i = 0; i < ch.nonce.size(); i += 8) {
    nonce_state_ = hash::splitmix_finalize(nonce_state_);
    for (std::size_t b = 0; b < 8 && i + b < ch.nonce.size(); ++b) {
      ch.nonce[i + b] = static_cast<std::uint8_t>(nonce_state_ >> (8 * b));
    }
  }
  std::vector<std::uint8_t> frame =
      encode_frame(MsgType::kChallenge, encode_challenge(ch));
  double remaining = timeout_sec - clock.seconds();
  if (remaining <= 0 ||
      write_all_deadline(fd, frame.data(), frame.size(), remaining) !=
          frame.size()) {
    log_warn("dist/tcp: could not deliver challenge");
    return fail(fd);
  }

  // Authenticated hello.
  Established est;
  std::optional<Frame> hf =
      read_frame_deadline(fd, est.leftover, timeout_sec - clock.seconds());
  if (!hf || hf->type != MsgType::kHello) {
    log_warn("dist/tcp: worker sent no hello");
    return fail(fd);
  }
  WireHello hello;
  try {
    hello = decode_hello(hf->payload);
  } catch (const WireError& e) {
    log_warn("dist/tcp: bad worker hello: ", e.what());
    return fail(fd);
  }
  crypto::Digest want = crypto::hmac_sha256(
      opts_.secret.data(), opts_.secret.size(), ch.nonce.data(),
      ch.nonce.size());
  crypto::Digest got{};
  static_assert(sizeof hello.auth == sizeof got);
  std::memcpy(got.data(), hello.auth.data(), got.size());
  if (!hello.authed || !crypto::digest_equal(want, got)) {
    log_warn("dist/tcp: worker auth failed (pid ", hello.pid,
             ") — check VM1_DIST_SECRET on both ends");
    return fail(fd);
  }

  est.hello = hello;
  est.conn = std::make_unique<TcpConnection>(fd, opts_.io_timeout_sec);
  return est;
}

int tcp_attach(const std::string& host, int port,
               const TcpConnectOptions& opts) {
  std::string secret = resolve_secret(opts.secret);
  std::uint64_t jitter =
      opts.jitter_seed ? opts.jitter_seed
                       : static_cast<std::uint64_t>(getpid());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    log_error("dist/tcp: bad connect address ", host);
    return -1;
  }

  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    if (attempt > 0) {
      obs::counter("dist.connect_retries").add();
      // Bounded exponential backoff with deterministic jitter in
      // [0.5, 1.0]x so a rebooting fleet does not reconnect in lockstep.
      double backoff = opts.backoff_base_sec * static_cast<double>(1 << std::min(attempt - 1, 20));
      backoff = std::min(backoff, opts.backoff_max_sec);
      std::uint64_t h = hash::splitmix_finalize(
          jitter ^ static_cast<std::uint64_t>(attempt));
      double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
      double sleep_sec = backoff * (0.5 + 0.5 * u);
      usleep(static_cast<useconds_t>(sleep_sec * 1e6));
    }

    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    set_nonblocking(fd, true);
    int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      // Synchronous refusal (listener not up yet): retry after backoff.
      log_debug("dist/tcp: connect to ", host, ":", port,
                " failed: ", std::strerror(errno), " (attempt ", attempt + 1,
                "/", opts.max_attempts, ")");
      close(fd);
      continue;
    }
    if (rc != 0) {
      // Nonblocking connect in flight: writability signals completion,
      // SO_ERROR carries the verdict.
      pollfd pfd{fd, POLLOUT, 0};
      int pr = poll(&pfd, 1,
                    static_cast<int>(opts.io_timeout_sec * 1000.0));
      int soerr = 0;
      socklen_t slen = sizeof soerr;
      if (pr <= 0 ||
          getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0 ||
          soerr != 0) {
        log_debug("dist/tcp: connect to ", host, ":", port, " failed: ",
                  pr <= 0 ? "timeout" : std::strerror(soerr), " (attempt ",
                  attempt + 1, "/", opts.max_attempts, ")");
        close(fd);
        continue;
      }
    }
    configure_stream(fd);

    // Handshake: challenge in, authenticated hello out.
    std::vector<std::uint8_t> buf;
    std::optional<Frame> cf =
        read_frame_deadline(fd, buf, opts.io_timeout_sec);
    if (!cf || cf->type != MsgType::kChallenge) {
      log_warn("dist/tcp: no challenge from coordinator");
      close(fd);
      continue;
    }
    WireChallenge ch;
    try {
      ch = decode_challenge(cf->payload);
    } catch (const WireError& e) {
      log_warn("dist/tcp: bad challenge: ", e.what());
      close(fd);
      continue;
    }
    WireHello hello;
    hello.pid = static_cast<std::uint64_t>(getpid());
    hello.num_fault_sites = static_cast<std::uint16_t>(fault::kNumSites);
    hello.authed = true;
    crypto::Digest tag = crypto::hmac_sha256(secret.data(), secret.size(),
                                             ch.nonce.data(), ch.nonce.size());
    std::memcpy(hello.auth.data(), tag.data(), tag.size());
    std::vector<std::uint8_t> hf =
        encode_frame(MsgType::kHello, encode_hello(hello));
    if (write_all_deadline(fd, hf.data(), hf.size(), opts.io_timeout_sec) !=
        hf.size()) {
      log_warn("dist/tcp: could not send hello");
      close(fd);
      continue;
    }
    // Hand a blocking fd to the worker loop; any bytes the coordinator
    // sent after the challenge cannot exist yet (it waits for our hello).
    set_nonblocking(fd, false);
    return fd;
  }
  log_error("dist/tcp: giving up on ", host, ":", port, " after ",
            opts.max_attempts, " attempts");
  return -1;
}

}  // namespace vm1::dist
