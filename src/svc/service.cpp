#include "svc/service.h"

#include <poll.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dist/wire.h"
#include "util/logging.h"

namespace vm1::svc {

namespace {

using dist::Frame;
using dist::MsgType;

/// 0-timeout readability probe, so a big submit frame drains in one tick
/// instead of one read per 50 ms poll cycle.
bool readable_now(int fd) {
  pollfd p{fd, POLLIN, 0};
  return poll(&p, 1, 0) > 0 && (p.revents & (POLLIN | POLLHUP)) != 0;
}

}  // namespace

void ServiceOptions::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("ServiceOptions: " + what);
  };
  if (io_timeout_sec <= 0) bad("io_timeout_sec must be > 0");
  if (handshake_timeout_sec <= 0) bad("handshake_timeout_sec must be > 0");
}

Service::Service(ServiceOptions opts, JobManager* manager)
    : opts_(std::move(opts)), manager_(manager) {
  opts_.validate();
  if (!manager_) throw std::invalid_argument("svc: null JobManager");
  dist::TcpTransportOptions to;
  to.host = opts_.host;
  to.port = opts_.port;
  to.secret = opts_.secret;
  to.io_timeout_sec = opts_.io_timeout_sec;
  transport_ = std::make_unique<dist::TcpTransport>(to);
  log_info("svc: placement service listening on ", opts_.host, ":", port());
}

Service::~Service() = default;

bool Service::send_frame(Client& client, MsgType type,
                         std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> frame =
      dist::encode_frame(type, std::move(payload));
  return client.conn->write_all(frame.data(), frame.size()) == frame.size();
}

bool Service::handle_frame(Client& client, const Frame& frame) {
  using dist::WireJobQuery;
  using dist::WireJobStatus;

  auto status_reply = [&](std::uint64_t id) -> bool {
    WireJobStatus st;
    st.job_id = id;
    if (std::optional<JobInfo> info = manager_->status(id)) {
      st.state = info->state;
      st.accepted = true;
      st.reason = info->reason;
      st.objective = info->objective;
      st.windows_done = info->windows_done;
    } else {
      st.accepted = false;
      st.reason = "unknown job " + std::to_string(id);
    }
    return send_frame(client, MsgType::kJobStatus,
                      dist::encode_job_status(st));
  };

  switch (frame.type) {
    case MsgType::kSubmitJob: {
      dist::WireSubmitJob wire = dist::decode_submit_job(frame.payload);
      WireJobStatus ack;
      try {
        JobSpec spec;
        spec.tenant = wire.tenant;
        spec.name = wire.name;
        spec.deadline_sec = wire.deadline_sec;
        spec.theta = wire.theta;
        spec.max_inner_iters = wire.max_inner_iters;
        spec.flip_pass = wire.flip_pass;
        spec.shift_windows = wire.shift_windows;
        spec.incremental = wire.incremental;
        spec.sequence.clear();
        for (const dist::WireParamStep& s : wire.sequence) {
          spec.sequence.push_back(ParamSet{s.bw, s.bh, s.lx, s.ly});
        }
        spec.params = wire.params;
        spec.mip = wire.mip;
        spec.design = dist::decode_design(wire.design);
        JobManager::Submission sub = manager_->submit(std::move(spec));
        ack.job_id = sub.id;
        ack.accepted = sub.accepted;
        ack.reason = sub.reason;
        ack.state = dist::JobState::kQueued;
      } catch (const dist::WireError& e) {
        // Bad embedded design: a per-job rejection, not a stream error.
        ack.accepted = false;
        ack.reason = std::string("bad design payload: ") + e.what();
      }
      return send_frame(client, MsgType::kJobStatus,
                        dist::encode_job_status(ack));
    }
    case MsgType::kJobStatus: {
      WireJobQuery q = dist::decode_job_query(frame.payload);
      return status_reply(q.job_id);
    }
    case MsgType::kCancelJob: {
      WireJobQuery q = dist::decode_job_query(frame.payload);
      manager_->cancel(q.job_id);
      return status_reply(q.job_id);
    }
    case MsgType::kJobResult: {
      WireJobQuery q = dist::decode_job_query(frame.payload);
      std::optional<JobOutcome> out = manager_->result(q.job_id);
      if (!out) return status_reply(q.job_id);
      dist::WireJobResult jr;
      jr.job_id = out->id;
      jr.state = out->state;
      jr.error = out->error;
      jr.objective = out->objective;
      jr.windows = out->windows;
      jr.solved = out->solved;
      jr.outer_iterations = out->outer_iterations;
      jr.seconds = out->seconds;
      jr.placements = std::move(out->placements);
      return send_frame(client, MsgType::kJobResult,
                        dist::encode_job_result(jr));
    }
    case MsgType::kShutdown:
      return false;  // client goodbye
    default:
      log_warn("svc: unexpected ", dist::to_string(frame.type),
               " frame from client; closing connection");
      return false;
  }
}

void Service::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.reserve(clients_.size() + 1);
    fds.push_back(pollfd{transport_->listen_fd(), POLLIN, 0});
    for (const Client& c : clients_) {
      fds.push_back(pollfd{c.conn->fd(), POLLIN, 0});
    }
    poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (stop_.load(std::memory_order_relaxed)) break;

    // Read ready clients first (their indices match this tick's fds), then
    // accept — a new client joins the poll set next tick.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = clients_[i];
      bool drop = false;
      do {
        std::uint8_t chunk[64 * 1024];
        long n = c.conn->read_some(chunk, sizeof chunk);
        if (n <= 0) {
          drop = true;
          break;
        }
        c.rbuf.insert(c.rbuf.end(), chunk, chunk + n);
        try {
          std::optional<Frame> f;
          while (!drop && (f = dist::extract_frame(c.rbuf))) {
            if (!handle_frame(c, *f)) drop = true;
          }
        } catch (const dist::WireError& e) {
          log_warn("svc: dropping client: ", e.what());
          drop = true;
        }
      } while (!drop && readable_now(c.conn->fd()));
      if (drop) c.conn->hard_close();
    }
    clients_.erase(
        std::remove_if(clients_.begin(), clients_.end(),
                       [](const Client& c) { return c.conn->fd() < 0; }),
        clients_.end());

    if (fds[0].revents & POLLIN) {
      if (std::optional<dist::Established> est =
              transport_->establish(opts_.handshake_timeout_sec)) {
        Client c;
        c.conn = std::move(est->conn);
        c.rbuf = std::move(est->leftover);
        // A pipelined first request may already sit in the leftover.
        bool drop = false;
        try {
          std::optional<Frame> f;
          while (!drop && (f = dist::extract_frame(c.rbuf))) {
            if (!handle_frame(c, *f)) drop = true;
          }
        } catch (const dist::WireError& e) {
          log_warn("svc: dropping client: ", e.what());
          drop = true;
        }
        if (!drop) clients_.push_back(std::move(c));
      }
    }
  }
  log_info("svc: stopping — draining job manager");
  for (Client& c : clients_) c.conn->hard_close();
  clients_.clear();
  manager_->drain(/*cancel_queued=*/true);
}

}  // namespace vm1::svc
