/// \file trace.h
/// Lock-cheap span tracer with Chrome trace_event JSON export.
///
/// ObsSpan is an RAII scope: construction records a begin timestamp,
/// destruction pushes one complete ("ph":"X") event onto the calling
/// thread's ring buffer. trace_stop() (or process exit) merges every
/// thread's ring into a JSON file loadable by chrome://tracing and Perfetto.
///
/// Overhead contract:
///  * tracing DISABLED (the default): a span is one relaxed atomic load —
///    no allocation, no branch beyond the check, nothing else;
///  * tracing ENABLED: a begin timestamp plus, at scope exit, one
///    uncontended per-thread mutex lock and a struct copy into a
///    fixed-size ring. Rings wrap: the newest events win, the dropped
///    count is reported in the exported JSON ("otherData.dropped_events").
///
/// Span/event names MUST be string literals (or otherwise outlive the
/// trace session); they are stored by pointer. Argument strings are copied
/// (truncated to a small fixed buffer).
///
/// Enabling: set VM1_TRACE=<path> in the environment (auto-starts before
/// main, flushes at exit), or call trace_start()/trace_stop() directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vm1::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
std::uint64_t now_ns();
}  // namespace detail

/// True while a trace session is active. Relaxed load; safe anywhere.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Starts a trace session writing to `path` on trace_stop()/exit.
/// `ring_capacity` bounds the events kept per thread (wraparound keeps the
/// newest). Restarting an active session flushes the previous one first.
void trace_start(const std::string& path, std::size_t ring_capacity = 1 << 15);

/// Ends the session and writes the JSON file. No-op when not tracing.
void trace_stop();

/// One key/value annotation on a trace event. Deliberately without member
/// initializers: every ObsSpan holds kMaxTraceArgs of them, and only the
/// first nargs, written by arg() while the span is active, are ever read —
/// so an untraced span never touches them.
struct TraceArg {
  const char* key;
  bool is_string;
  double num;
  char str[24];  ///< truncated copy for string values
};

inline constexpr int kMaxTraceArgs = 4;

/// RAII traced scope. Usage:
///   obs::ObsSpan span("dist_opt.window_solve");
///   span.arg("window", widx).arg("cells", n);
///   ...;
///   span.arg("outcome", to_string(out));   // args may be added any time
class ObsSpan {
 public:
  explicit ObsSpan(const char* name) {
    if (trace_enabled()) begin(name);
  }
  ~ObsSpan() {
    if (active_) end();
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  ObsSpan& arg(const char* key, double v);
  ObsSpan& arg(const char* key, long v) { return arg(key, static_cast<double>(v)); }
  ObsSpan& arg(const char* key, int v) { return arg(key, static_cast<double>(v)); }
  ObsSpan& arg(const char* key, std::size_t v) {
    return arg(key, static_cast<double>(v));
  }
  ObsSpan& arg(const char* key, const char* v);

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
  int nargs_ = 0;
  TraceArg args_[kMaxTraceArgs];
};

/// Instant event ("ph":"i", thread scope) with an optional annotation —
/// e.g. a new branch-and-bound incumbent. No-op when tracing is disabled.
void trace_instant(const char* name, const char* key = nullptr, double v = 0);
void trace_instant(const char* name, const char* key, const char* v);

}  // namespace vm1::obs
