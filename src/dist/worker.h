/// \file worker.h
/// Worker side of the distributed window-solve service: a blocking
/// request loop over one Unix-domain socket, run by the `vm1_worker`
/// executable (apps/vm1_worker.cpp) after fork/exec from the coordinator.
///
/// Protocol (all frames dist/wire.h):
///   1. worker sends kHello once (skipped for TCP attach, where the hello
///      already went out authenticated during the tcp_attach handshake);
///   2. coordinator sends kBindDesign (full replica) before the first
///      request, and again whenever it believes the replica is stale;
///   3. kRequestBatch (one or more requests) -> solve_window on the
///      replica per request -> one kReplyBatch with a reply or typed error
///      entry per request (kDesync when the recomputed window signature
///      disagrees with the request's expected signature — the replica
///      missed a sync);
///   4. kSync applies placement deltas (one-way, no reply);
///   5. kPing -> kPong echoing the sequence number (heartbeat);
///   6. kShutdown (or EOF) ends the loop.
///
/// Any other frame type is answered with a kBadRequest error; a retired
/// or unknown type number (e.g. 15/16, the v3 cache probe) never decodes
/// at all and ends the loop as an unrecoverable stream error.
///
/// The worker is a stateless solver: it keeps nothing across requests but
/// the design replica, so every request runs its MILP. Cross-run reuse is
/// the coordinator's job (the run-local memo and the persistent cache).
/// run_worker is also callable in-process from tests: it owns no global
/// state besides the fault config the requests carry.
#pragma once

namespace vm1::dist {

/// Serves requests on `fd` until kShutdown/EOF (returns 0), an
/// unrecoverable stream error (returns 2), or a dead peer (returns 1).
int run_worker(int fd, bool send_hello = true);

}  // namespace vm1::dist
