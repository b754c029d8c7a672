/// \file tcp.h
/// TCP transport for the distributed window-solve service (see
/// dist/transport.h for the abstraction it implements).
///
/// Topology: the transport owns a TCP listener and only accepts; it never
/// spawns anything. Peers launched out-of-band attach to it: remote
/// workers (`vm1_worker --connect host:port`, handed to a Coordinator
/// through its transport constructor) and placement-service clients
/// (`vm1_serve`'s listener). A coordinator that spawns its own local
/// fleet uses the socketpair transport instead (dist/transport.h).
///
/// Handshake, per connection:
///   1. worker connects — nonblocking connect with bounded exponential
///      backoff + deterministic jitter (tcp_attach);
///   2. listener sends kChallenge carrying a fresh random nonce;
///   3. worker replies kHello extended with HMAC-SHA256(secret, nonce),
///      secret = $VM1_DIST_SECRET (empty string when unset — both sides
///      must agree);
///   4. listener verifies the tag in constant time; mismatch or a plain
///      unauthenticated hello closes the connection.
///
/// Established sockets run with TCP_NODELAY (one frame per window solve —
/// Nagle only adds latency) and SO_KEEPALIVE, and every read/write on the
/// coordinator side is bounded by an explicit deadline, so a wedged or
/// slow-loris peer can stall one request, never the coordinator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dist/transport.h"

namespace vm1::dist {

struct TcpTransportOptions {
  std::string host = "127.0.0.1";  ///< listen address
  int port = 0;                    ///< 0 = ephemeral (see listen_port())
  /// Shared auth secret; empty resolves $VM1_DIST_SECRET (which may also
  /// be empty — the handshake still runs, with an empty key).
  std::string secret;
  /// Per-read/write deadline on established connections. A peer that
  /// cannot absorb a frame within this is treated as dead.
  double io_timeout_sec = 30.0;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

class TcpTransport final : public Transport {
 public:
  /// Binds and listens immediately; throws std::runtime_error when the
  /// address cannot be bound (a config error, unlike per-worker failures).
  explicit TcpTransport(TcpTransportOptions opts);
  ~TcpTransport() override;

  std::optional<Established> establish(double timeout_sec) override;
  const char* name() const override { return "tcp"; }

  /// The actually bound port (resolves port=0 ephemeral binds).
  int listen_port() const { return listen_port_; }

  /// The listening socket, for callers that poll() for pending accepts and
  /// only then pay establish()'s handshake timeout (the placement service's
  /// serve loop). Owned by the transport; do not close or read it.
  int listen_fd() const { return listen_fd_; }

 private:
  TcpTransportOptions opts_;
  int listen_fd_ = -1;
  int listen_port_ = 0;
  std::uint64_t nonce_state_ = 0;
};

/// Worker-side attach (vm1_worker --connect): nonblocking connect with
/// bounded exponential backoff + jitter, then the challenge/hello auth
/// handshake. Returns the connected (blocking) fd, or -1 after
/// `max_attempts` failures.
struct TcpConnectOptions {
  int max_attempts = 10;
  double backoff_base_sec = 0.05;
  double backoff_max_sec = 2.0;
  double io_timeout_sec = 10.0;  ///< handshake read/write deadline
  std::string secret;            ///< empty resolves $VM1_DIST_SECRET
  /// Jitter key: attempt delays are `base * 2^i * (0.5 + u)` with `u` a
  /// deterministic hash of (seed, i) in [0, 0.5] — reproducible per worker
  /// yet decorrelated across a fleet (seed defaults from the pid).
  std::uint64_t jitter_seed = 0;
};

int tcp_attach(const std::string& host, int port,
               const TcpConnectOptions& opts);

}  // namespace vm1::dist
