#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/logging.h"

namespace vm1::obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

namespace {

struct Event {
  const char* name = nullptr;
  char ph = 'X';
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  int nargs = 0;
  TraceArg args[kMaxTraceArgs] = {};
};

/// Per-thread event ring. The owner thread pushes under `mu` (uncontended
/// in steady state); the flusher takes the same mutex, so no event copy
/// races with export — TSan-clean by construction.
struct Ring {
  explicit Ring(std::size_t cap) : slots(cap) {}
  std::mutex mu;
  std::vector<Event> slots;
  std::uint64_t head = 0;  ///< total events pushed (monotonic)
  int tid = 0;
};

/// Leaky singleton so flushing from atexit never touches a destroyed
/// object regardless of static destruction order.
struct State {
  std::mutex mu;  // guards everything below; lock order: State::mu, Ring::mu
  std::vector<std::shared_ptr<Ring>> rings;
  std::string path;
  std::size_t capacity = 1 << 15;
  std::uint64_t epoch_ns = 0;
  /// Bumped per trace_start/stop; threads re-register when stale. Atomic
  /// because the fast path in current_ring() reads it without State::mu.
  std::atomic<int> generation{0};
  bool atexit_registered = false;
};

State& state() {
  static State* s = new State;
  return *s;
}

struct ThreadSlot {
  std::shared_ptr<Ring> ring;
  int generation = -1;
};
thread_local ThreadSlot t_slot;

Ring* current_ring() {
  State& s = state();
  if (t_slot.generation != s.generation.load(std::memory_order_relaxed)) {
    std::lock_guard lock(s.mu);
    if (!trace_enabled()) return nullptr;
    auto ring = std::make_shared<Ring>(s.capacity);
    ring->tid = static_cast<int>(s.rings.size());
    s.rings.push_back(ring);
    t_slot.ring = ring;
    t_slot.generation = s.generation.load(std::memory_order_relaxed);
  }
  return t_slot.ring.get();
}

void push_event(const Event& e) {
  if (!trace_enabled()) return;
  Ring* r = current_ring();
  if (!r) return;
  std::lock_guard lock(r->mu);
  r->slots[r->head % r->slots.size()] = e;
  ++r->head;
}

void json_escape_to(std::FILE* f, const char* s) {
  for (; *s; ++s) {
    unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (c < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
}

void write_args(std::FILE* f, const Event& e) {
  if (e.nargs == 0) return;
  std::fputs(",\"args\":{", f);
  for (int i = 0; i < e.nargs; ++i) {
    const TraceArg& a = e.args[i];
    if (i) std::fputc(',', f);
    std::fputc('"', f);
    json_escape_to(f, a.key);
    std::fputs("\":", f);
    if (a.is_string) {
      std::fputc('"', f);
      json_escape_to(f, a.str);
      std::fputc('"', f);
    } else if (a.num == static_cast<double>(static_cast<long long>(a.num)) &&
               a.num > -1e15 && a.num < 1e15) {
      std::fprintf(f, "%lld", static_cast<long long>(a.num));
    } else {
      std::fprintf(f, "%.9g", a.num);
    }
  }
  std::fputc('}', f);
}

/// Writes the collected rings as Chrome trace_event JSON. Caller holds
/// State::mu.
void flush_locked(State& s) {
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (!f) {
    log_warn("obs: cannot open trace file ", s.path);
    return;
  }
  std::fputs("{\n\"traceEvents\": [", f);
  bool first = true;
  long dropped = 0;
  for (const auto& ring : s.rings) {
    std::lock_guard lock(ring->mu);
    const std::size_t cap = ring->slots.size();
    std::uint64_t begin = ring->head > cap ? ring->head - cap : 0;
    dropped += static_cast<long>(begin);
    for (std::uint64_t i = begin; i < ring->head; ++i) {
      const Event& e = ring->slots[i % cap];
      std::fputs(first ? "\n" : ",\n", f);
      first = false;
      std::fputs("{\"name\":\"", f);
      json_escape_to(f, e.name);
      std::fprintf(f, "\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%.3f",
                   e.ph, ring->tid,
                   static_cast<double>(e.ts_ns - s.epoch_ns) / 1000.0);
      if (e.ph == 'X') {
        std::fprintf(f, ",\"dur\":%.3f",
                     static_cast<double>(e.dur_ns) / 1000.0);
      } else if (e.ph == 'i') {
        std::fputs(",\"s\":\"t\"", f);
      }
      write_args(f, e);
      std::fputc('}', f);
    }
  }
  std::fprintf(f,
               "\n],\n\"displayTimeUnit\": \"ms\",\n"
               "\"otherData\": {\"dropped_events\": %ld, \"threads\": %d}\n}\n",
               dropped, static_cast<int>(s.rings.size()));
  std::fclose(f);
  log_info("obs: wrote trace to ", s.path, " (", s.rings.size(),
           " thread(s), ", dropped, " dropped)");
}

// Each write initializes the whole arg, so copying it into an Event never
// reads indeterminate bytes (TraceArg itself has no initializers).
void set_arg(TraceArg& a, const char* key, double v) {
  a = TraceArg{key, false, v, {}};
}

void set_arg(TraceArg& a, const char* key, const char* v) {
  a = TraceArg{key, true, 0, {}};
  std::snprintf(a.str, sizeof a.str, "%s", v ? v : "");
}

/// VM1_TRACE / VM1_LOG environment hooks, evaluated before main so
/// unmodified binaries (quickstart, benches, tests) are traceable.
struct EnvInit {
  EnvInit() {
    if (const char* lvl = std::getenv("VM1_LOG")) {
      std::string v(lvl);
      if (v == "debug") set_log_level(LogLevel::kDebug);
      else if (v == "info") set_log_level(LogLevel::kInfo);
      else if (v == "warn") set_log_level(LogLevel::kWarn);
      else if (v == "error") set_log_level(LogLevel::kError);
      else log_warn("obs: unknown VM1_LOG level '", v, "' (want debug|info|warn|error)");
    }
    if (const char* path = std::getenv("VM1_TRACE")) {
      if (*path) trace_start(path);
    }
  }
};
EnvInit g_env_init;

}  // namespace

void trace_start(const std::string& path, std::size_t ring_capacity) {
  if (ring_capacity == 0) ring_capacity = 1;
  trace_stop();  // flush any active session first
  State& s = state();
  std::lock_guard lock(s.mu);
  s.path = path;
  s.capacity = ring_capacity;
  s.epoch_ns = detail::now_ns();
  s.rings.clear();
  ++s.generation;  // invalidates every thread's cached ring
  if (!s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit([] { trace_stop(); });
  }
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void trace_stop() {
  State& s = state();
  std::lock_guard lock(s.mu);
  if (!trace_enabled()) return;
  // Stop intake first: spans ending after this point are dropped.
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
  flush_locked(s);
  s.rings.clear();
  ++s.generation;
}

void ObsSpan::begin(const char* name) {
  name_ = name;
  start_ns_ = detail::now_ns();
  active_ = true;
}

void ObsSpan::end() {
  Event e;
  e.name = name_;
  e.ph = 'X';
  e.ts_ns = start_ns_;
  e.dur_ns = detail::now_ns() - start_ns_;
  e.nargs = nargs_;
  for (int i = 0; i < nargs_; ++i) e.args[i] = args_[i];
  push_event(e);
  active_ = false;
}

ObsSpan& ObsSpan::arg(const char* key, double v) {
  if (active_ && nargs_ < kMaxTraceArgs) set_arg(args_[nargs_++], key, v);
  return *this;
}

ObsSpan& ObsSpan::arg(const char* key, const char* v) {
  if (active_ && nargs_ < kMaxTraceArgs) set_arg(args_[nargs_++], key, v);
  return *this;
}

void trace_instant(const char* name, const char* key, double v) {
  if (!trace_enabled()) return;
  Event e;
  e.name = name;
  e.ph = 'i';
  e.ts_ns = detail::now_ns();
  if (key) {
    e.nargs = 1;
    set_arg(e.args[0], key, v);
  }
  push_event(e);
}

void trace_instant(const char* name, const char* key, const char* v) {
  if (!trace_enabled()) return;
  Event e;
  e.name = name;
  e.ph = 'i';
  e.ts_ns = detail::now_ns();
  if (key) {
    e.nargs = 1;
    set_arg(e.args[0], key, v);
  }
  push_event(e);
}

}  // namespace vm1::obs
