/// \file transport.h
/// Pluggable transport layer for the distributed window-solve service.
///
/// The coordinator (dist/coordinator.h) never touches sockets or processes
/// directly: it speaks to N `Connection`s — established, hello-verified
/// byte streams — obtained from one `Transport`. Two implementations exist:
///
///   * the socketpair transport (this file): fork/exec of apps/vm1_worker
///     with an inherited Unix-domain socketpair. It is the only way a
///     coordinator spawns its own workers;
///   * TcpTransport (dist/tcp.h): an accept-only TCP listener. Workers
///     launched out-of-band attach via `vm1_worker --connect host:port`
///     after a nonce/HMAC auth handshake; the caller hands the transport
///     to the coordinator. It spawns nothing.
///
/// The split keeps the supervision logic (heartbeats, health states, retry
/// budgets, degradation — all in the coordinator) transport-agnostic: a
/// dead TCP peer and a crashed forked worker funnel through the same
/// failure matrix. The interfaces are also the test seam: the heartbeat
/// drills hand the coordinator a TcpTransport with in-process peers.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/wire.h"

namespace vm1::dist {

/// One established worker connection: a framed byte stream plus whatever
/// teardown its substrate needs (closing an fd, SIGKILLing an owned
/// process). All methods are single-threaded — the coordinator is the only
/// caller.
class Connection {
 public:
  virtual ~Connection() = default;
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Pollable stream fd (always valid while the Connection exists).
  virtual int fd() const = 0;

  /// Writes the whole buffer, bounded by the transport's write deadline.
  /// Returns the number of bytes actually handed to the kernel — == len on
  /// success; a short count is a mid-frame failure and the connection must
  /// be torn down (the stream cannot be re-framed).
  virtual std::size_t write_all(const void* data, std::size_t len) = 0;

  /// Reads up to `len` bytes. Returns >0 bytes read, 0 on orderly EOF,
  /// -1 on unrecoverable error (including a read deadline expiring).
  virtual long read_some(void* data, std::size_t len) = 0;

  /// Severs the connection and kills the owned worker process, if any.
  /// Idempotent; called before destruction on every failure path.
  virtual void hard_close() = 0;

  /// Worker pid when the transport owns the process, -1 for remote peers.
  virtual pid_t pid() const { return -1; }

  virtual const char* kind() const = 0;
};

/// Result of a successful Transport::establish: the connection, the
/// worker's (already auth-verified, for TCP) hello, and any bytes that
/// arrived after the hello frame — the coordinator must seed its receive
/// buffer with them or they are lost.
struct Established {
  std::unique_ptr<Connection> conn;
  WireHello hello;
  std::vector<std::uint8_t> leftover;
};

/// Factory for worker connections. establish() blocks up to its timeout
/// and returns nullopt on any failure (spawn error, connect/accept
/// timeout, garbled or unauthenticated hello) — the coordinator turns
/// repeated failures into quarantine / spawn_broken degradation.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::optional<Established> establish(double timeout_sec) = 0;
  virtual const char* name() const = 0;
};

/// The fork/exec + socketpair transport. `worker_path` empty is allowed
/// (establish always fails; the coordinator degrades to all-local).
std::unique_ptr<Transport> make_socketpair_transport(std::string worker_path);

/// Shared helper for transports: reads frames from `fd` (already
/// established) until a kHello arrives or `timeout_sec` passes. Returns
/// nullopt on EOF/garble/timeout. Bytes past the hello frame are left in
/// `leftover`.
std::optional<WireHello> read_hello(int fd, double timeout_sec,
                                    std::vector<std::uint8_t>& leftover);

}  // namespace vm1::dist
