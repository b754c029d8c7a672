// Flow benchmark driver for OpenVM1.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--smoke]
//
// Workloads (closed loop, one client: the next flow or job starts when the
// previous one returns; at most 2 busy solver threads or worker processes):
//   closedm1_route  full run_flow on ClosedM1, threads backend; routing-bound
//   cache_jobs      service-style vm1opt jobs on pre-placed designs, solved by
//                   2 vm1_worker subprocesses through a persistent solve
//                   cache: cold jobs solve and write every window, warm
//                   reruns on the reopened store read them back
//
// --seed maps to DesignOptions::seed (0 = the designs' default seeds).
// --trace 0 times the user-facing calls (run_flow / vm1opt) and prints the
// end-to-end metrics. --trace 1 additionally replays run_flow stage by stage
// under benchmark-side spans (with obs counter deltas around each call) and
// prints the per-layer metrics, the span coverage of the traced flow and
// the tracing overhead. --smoke swaps every design for `tiny` so each
// workload's code path runs in seconds.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every correctness check passed, 1 when an operation
// failed a check (the JSON still prints), 2 on a usage error or an aborted
// run (no JSON).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/solve_cache.h"
#include "cache/store.h"
#include "core/flow.h"
#include "design/legality.h"
#include "obs/metrics.h"
#include "place/hpwl.h"

#ifndef VM1_BUILD_TYPE
#define VM1_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace vm1;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void abort_run(const std::string& why) {
  std::fprintf(stderr, "flowbench: aborted: %s\n", why.c_str());
  std::exit(2);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

struct DesignSpec {
  std::string name;
  double scale = 1.0;
  int copy = 0;  ///< copies > 0 get their own netlist seed
};

/// DesignOptions::seed of one copy of a design: the run seed itself for
/// copy 0 (so seed 0 keeps the designs' default seeds), distinct nonzero
/// seeds for the other copies.
std::uint64_t design_seed(std::uint64_t seed, int copy) {
  return copy == 0 ? seed : seed * 1000003u + static_cast<std::uint64_t>(copy);
}

struct Workload {
  std::string name;
  bool routed = true;  ///< false: cache_jobs (vm1opt jobs, no routing)
  std::vector<DesignSpec> designs;
  DistBackend backend = DistBackend::kThreads;
};

/// cache_jobs: warm reruns of the job sequence per cold sequence.
constexpr int kWarmReps = 5;

/// `copies` netlists (distinct seeds) of each {design, scale} pair.
std::vector<DesignSpec> designs(
    const std::vector<std::pair<std::string, double>>& base, int copies) {
  std::vector<DesignSpec> v;
  for (int copy = 0; copy < copies; ++copy) {
    for (const auto& [name, scale] : base) v.push_back({name, scale, copy});
  }
  return v;
}

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "closedm1_route") {
    // ~170 instances each: five rip-up rounds dominate the flow. Only m0 and
    // aes are scaled down this far: jpeg and vga keep their 64 and 80 IO
    // pins at any scale, which crowds a small core and makes route time
    // swing widely between netlists.
    w.designs = designs({{"m0", 0.19}, {"aes", 0.15}}, 8);
  } else if (name == "cache_jobs") {
    // 450 to 3,115 instances: the largest designs of the benchmark.
    w.routed = false;
    w.designs = designs({{"m0", 0.5}, {"aes", 0.5}, {"jpeg", 0.5}, {"vga", 0.5}}, 2);
    w.backend = DistBackend::kProcesses;
  } else {
    return std::nullopt;
  }
  if (smoke) w.designs = {{"tiny", 1.0, 0}};
  return w;
}

std::string self_dir() {
  std::error_code ec;
  fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (ec) abort_run("cannot resolve the benchmark executable's directory");
  return exe.parent_path().string();
}

FlowOptions flow_options(const Workload& w, const DesignSpec& spec,
                         std::uint64_t seed, const std::string& worker) {
  FlowOptions f;
  f.design_name = spec.name;
  f.arch = CellArch::kClosedM1;
  f.design.scale = spec.scale;
  f.design.seed = design_seed(seed, spec.copy);
  f.vm1.params.alpha = paper_alpha(1200);
  f.vm1.sequence = {ParamSet{20, 0, 4, 1}};
  // One VM1Opt sweep (a move pass and a flip pass) per design: a fixed
  // amount of optimizer work, so run time does not jump with the number of
  // iterations a netlist happens to need to meet theta.
  f.vm1.max_inner_iters = 1;
  f.vm1.backend = w.backend;
  // Two solver threads or two worker processes: with the client thread the
  // load stays within the 4 hardware threads the benchmark is sized for.
  f.vm1.threads = 2;
  f.vm1.dist_workers = 2;
  f.vm1.dist_worker_path = worker;
  return f;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: one record per call into a layer, with the obs
// counter deltas observed across it. Self time = duration minus the time its
// (sequential) child spans cover.

std::map<std::string, long> counter_values() {
  std::map<std::string, long> m;
  for (auto& [name, v] : obs::snapshot_metrics().counters) m[name] = v;
  return m;
}

struct Span {
  std::string name;
  int parent = -1;
  double start = 0;
  double end = 0;
  double child_time = 0;
  std::map<std::string, long> deltas;

  double self() const { return end - start - child_time; }
};

class Tracer {
 public:
  /// A disabled tracer runs each body and records nothing.
  explicit Tracer(bool enabled = true) : enabled_(enabled), t0_(Clock::now()) {}

  template <class F>
  void span(const std::string& name, F&& body) {
    if (!enabled_) {
      body();
      return;
    }
    int id = static_cast<int>(spans_.size());
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(id);
    std::map<std::string, long> before = counter_values();
    spans_[id].start = since(t0_);
    body();
    spans_[id].end = since(t0_);
    for (auto& [k, v] : counter_values()) {
      long d = v - (before.count(k) ? before[k] : 0);
      if (d != 0) spans_[id].deltas[k] = d;
    }
    stack_.pop_back();
    if (spans_[id].parent >= 0) {
      spans_[spans_[id].parent].child_time += spans_[id].end - spans_[id].start;
    }
  }

  /// Sum of self time over spans named `name`.
  double self_time(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans_) {
      if (s.name == name) t += s.self();
    }
    return t;
  }
  /// Sum of one counter's deltas over spans named `name`.
  long delta(const std::string& name, const std::string& counter) const {
    long t = 0;
    for (const Span& s : spans_) {
      auto it = s.deltas.find(counter);
      if (s.name == name && it != s.deltas.end()) t += it->second;
    }
    return t;
  }
  /// Duration of root spans named `name` and the share of it their direct
  /// children cover.
  std::pair<double, double> root_coverage(const std::string& name) const {
    double total = 0, covered = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && s.name == name) {
        total += s.end - s.start;
        covered += s.child_time;
      }
    }
    return {total, covered};
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Results of one round (one pass over the workload's designs).

struct RouteTotals {
  long rwl = 0, via12 = 0, dm1 = 0, drv = 0, unrouted = 0;
};

struct FlowQoR {
  Coord hpwl = 0;
  long alignments = 0;
  RouteTotals route;
  double objective = 0;
};

bool same_route(const RouteMetrics& a, const RouteMetrics& b) {
  if (a.rwl_dbu != b.rwl_dbu || a.via12 != b.via12 || a.via23 != b.via23 ||
      a.via34 != b.via34 || a.num_dm1 != b.num_dm1 ||
      a.num_m1_segments != b.num_m1_segments || a.drv != b.drv ||
      a.unrouted != b.unrouted) {
    return false;
  }
  for (int l = 0; l < kNumRouteLayers; ++l) {
    if (a.wl_by_layer[l] != b.wl_by_layer[l]) return false;
  }
  return true;
}

/// Bit-exact comparison of every QoR field the flow reports.
bool same_qor(const QoR& a, const QoR& b) {
  return a.hpwl == b.hpwl && same_route(a.route, b.route) &&
         a.sta.max_delay == b.sta.max_delay && a.sta.wns == b.sta.wns &&
         a.sta.num_endpoints == b.sta.num_endpoints &&
         a.power.dynamic_mw == b.power.dynamic_mw &&
         a.power.leakage_mw == b.power.leakage_mw &&
         a.objective.hpwl == b.objective.hpwl &&
         a.objective.alignments == b.objective.alignments &&
         a.objective.overlap_sum == b.objective.overlap_sum &&
         a.objective.value == b.objective.value;
}

struct Counts {
  long attempted = 0;
  long failed = 0;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "flowbench: check failed: %s\n", what.c_str());
    }
  }
};

/// The checks every optimized design must pass; empty when it does.
/// `remote`: every window had to be solved by a worker process.
std::string vm1_failure(const Design& d, const VM1OptStats& s, bool remote) {
  std::vector<LegalityViolation> v = check_legality(d);
  if (!v.empty()) {
    return std::to_string(v.size()) + " legality violations, first: " +
           v.front().what;
  }
  if (s.faulted > 0) return std::to_string(s.faulted) + " faulted windows";
  if (s.rejected_audit > 0) {
    return std::to_string(s.rejected_audit) + " windows rejected by audit";
  }
  if (remote) {
    if (s.remote_local_fallbacks > 0) {
      return std::to_string(s.remote_local_fallbacks) +
             " windows fell back to local solving";
    }
    if (s.remote_replies == 0) return "no window crossed the wire";
  }
  return "";
}

std::string flow_failure(const FlowResult& r, const Design& d, bool remote) {
  if (r.init.route.unrouted > 0 || r.final.route.unrouted > 0) {
    return std::to_string(r.init.route.unrouted) + "/" +
           std::to_string(r.final.route.unrouted) +
           " unrouted nets (initial/final)";
  }
  return vm1_failure(d, r.opt, remote);
}

FlowQoR qor_of(const FlowResult& r) {
  FlowQoR q;
  q.hpwl = r.final.hpwl;
  q.alignments = r.final.objective.alignments;
  q.objective = r.final.objective.value;
  q.route = {r.final.route.rwl_dbu, r.final.route.via12, r.final.route.num_dm1,
             r.final.route.drv, r.final.route.unrouted};
  return q;
}

void add(FlowQoR& acc, const FlowQoR& q) {
  acc.hpwl += q.hpwl;
  acc.alignments += q.alignments;
  acc.objective += q.objective;
  acc.route.rwl += q.route.rwl;
  acc.route.via12 += q.route.via12;
  acc.route.dm1 += q.route.dm1;
  acc.route.drv += q.route.drv;
  acc.route.unrouted += q.route.unrouted;
}

bool operator==(const FlowQoR& a, const FlowQoR& b) {
  return a.hpwl == b.hpwl && a.alignments == b.alignments &&
         a.objective == b.objective && a.route.rwl == b.route.rwl &&
         a.route.via12 == b.route.via12 && a.route.dm1 == b.route.dm1 &&
         a.route.drv == b.route.drv && a.route.unrouted == b.route.unrouted;
}

// ---------------------------------------------------------------------------
// Traced replay of run_flow: the same stage functions, in the same order,
// with the same options (core/flow.cpp), each under a span.

QoR traced_measure(Tracer& tr, const Design& d, const RouterOptions& ropts,
                   const VM1Params& params, double clock_period,
                   const std::string& route_span) {
  QoR q;
  q.hpwl = total_hpwl(d);
  std::optional<Router> router;
  tr.span("route.graph", [&] { router.emplace(d, ropts); });
  tr.span(route_span, [&] { q.route = router->route(); });
  std::vector<long> lengths(d.netlist().num_nets(), 0);
  for (int n = 0; n < d.netlist().num_nets(); ++n) {
    lengths[n] = router->net_length_dbu(n);
  }
  StaOptions sta_opts;
  sta_opts.clock_period = clock_period;
  sta_opts.net_lengths = lengths;
  tr.span("timing.sta", [&] { q.sta = run_sta(d, sta_opts); });
  PowerOptions pow_opts;
  pow_opts.net_lengths = lengths;
  tr.span("timing.power", [&] { q.power = compute_power(d, pow_opts); });
  tr.span("vm1opt.objective",
          [&] { q.objective = evaluate_objective(d, params); });
  return q;
}

struct PlaceHpwl {
  Coord global = 0, legal = 0, detailed = 0;
};

/// make_design + the placement stages of prepare_design, under spans.
Design traced_place(Tracer& tr, const FlowOptions& opts, PlaceHpwl& hp) {
  std::optional<Design> d;
  tr.span("design.make", [&] {
    d.emplace(make_design(opts.design_name, opts.arch, opts.design));
  });
  tr.span("place.global", [&] { global_place(*d, opts.gp); });
  hp.global += total_hpwl(*d);
  tr.span("place.legalize", [&] { legalize(*d); });
  hp.legal += total_hpwl(*d);
  DetailedPlaceOptions dp = opts.dp;
  dp.max_passes = std::max(dp.max_passes, 10);
  dp.min_improve = std::min(dp.min_improve, 0.0005);
  tr.span("place.detailed", [&] { detailed_place(*d, dp); });
  hp.detailed += total_hpwl(*d);
  return std::move(*d);
}

struct TracedFlow {
  FlowResult result;
  std::optional<Design> design;
};

TracedFlow traced_flow(Tracer& tr, const FlowOptions& opts, PlaceHpwl& hp) {
  TracedFlow t;
  FlowResult& res = t.result;
  tr.span("flow", [&] {
    Design d = traced_place(tr, opts, hp);
    res.init = traced_measure(tr, d, opts.router, opts.vm1.params, 0,
                              "route.init");
    double period = res.init.sta.max_delay;
    tr.span("vm1opt.run", [&] { res.opt = vm1opt(d, opts.vm1); });
    res.final = traced_measure(tr, d, opts.router, opts.vm1.params, period,
                               "route.final");
    res.init.sta.wns = period - res.init.sta.max_delay;
    t.design.emplace(std::move(d));
  });
  return t;
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Sum of vm1opt statistics over every job of a round.
struct OptTotals {
  double wall = 0;
  long windows = 0, outer = 0, solved = 0, fallbacks = 0, rejected = 0;
  long skipped = 0, cached = 0, nodes = 0;
  long frames_sent = 0, bytes_sent = 0, bytes_received = 0, retries = 0;
  long local_fallbacks = 0, restarts = 0;

  void add(const VM1OptStats& s) {
    wall += s.seconds;
    windows += s.windows;
    outer += s.outer_iterations;
    solved += s.solved;
    fallbacks += s.fallback_rounding + s.fallback_greedy;
    rejected += s.rejected_audit;
    skipped += s.skipped;
    cached += s.cached_remote;
    nodes += s.milp_nodes;
    frames_sent += s.remote_frames_sent;
    bytes_sent += s.wire_bytes_sent;
    bytes_received += s.wire_bytes_received;
    retries += s.remote_retries;
    local_fallbacks += s.remote_local_fallbacks;
    restarts += s.worker_restarts;
  }
};

/// Per-round per-layer values; times take the median over rounds, counts are
/// reported from the first round (they repeat exactly).
struct LayerRound {
  std::map<std::string, double> values;
};

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

void fill_opt_metrics(std::map<std::string, double>& m, const OptTotals& o) {
  m["vm1opt.windows"] = o.windows;
  m["vm1opt.windows_per_s"] = ratio(o.windows, o.wall);
  m["vm1opt.outer_iterations"] = o.outer;
  m["vm1opt.solved"] = o.solved;
  m["vm1opt.fallbacks"] = o.fallbacks;
  m["vm1opt.rejected_audit"] = o.rejected;
  m["vm1opt.skip_rate"] = ratio(o.skipped + o.cached, o.windows);
  m["milp.nodes"] = o.nodes;
  m["milp.nodes_per_window"] = ratio(o.nodes, o.windows);
  m["dist.frames_sent"] = o.frames_sent;
  m["dist.frames_per_window"] = ratio(o.frames_sent, o.windows);
  m["dist.bytes_sent"] = o.bytes_sent;
  m["dist.bytes_received"] = o.bytes_received;
  m["dist.retries"] = o.retries;
  m["dist.local_fallbacks"] = o.local_fallbacks;
  m["dist.worker_restarts"] = o.restarts;
}

/// Per-layer metric names with units, in print order. Every workload
/// reports every one (0 where the workload leaves the layer idle).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"design.make_s", "s"},
      {"place.global_s", "s"},
      {"place.legalize_s", "s"},
      {"place.detailed_s", "s"},
      {"place.hpwl_global", "dbu"},
      {"place.hpwl_legal", "dbu"},
      {"place.hpwl_detailed", "dbu"},
      {"route.graph_s", "s"},
      {"route.init_s", "s"},
      {"route.final_s", "s"},
      {"route.searches", "count"},
      {"route.expansions", "count"},
      {"route.expansions_per_search", "ratio"},
      {"route.ripup_victims", "count"},
      {"route.init_drv", "count"},
      {"route.unrouted", "count"},
      {"route.rwl", "dbu"},
      {"route.via12", "count"},
      {"route.dm1", "count"},
      {"route.drv", "count"},
      {"timing.sta_s", "s"},
      {"timing.power_s", "s"},
      {"vm1opt.wall_s", "s"},
      {"vm1opt.objective_s", "s"},
      {"vm1opt.windows", "count"},
      {"vm1opt.windows_per_s", "1/s"},
      {"vm1opt.outer_iterations", "count"},
      {"vm1opt.solved", "count"},
      {"vm1opt.fallbacks", "count"},
      {"vm1opt.rejected_audit", "count"},
      {"vm1opt.skip_rate", "ratio"},
      {"milp.nodes", "count"},
      {"milp.nodes_per_window", "ratio"},
      {"lp.pivots", "count"},
      {"lp.refactorizations", "count"},
      {"dist.frames_sent", "count"},
      {"dist.frames_per_window", "ratio"},
      {"dist.bytes_sent", "bytes"},
      {"dist.bytes_received", "bytes"},
      {"dist.retries", "count"},
      {"dist.local_fallbacks", "count"},
      {"dist.worker_restarts", "count"},
      {"cache.open_s", "s"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.stores", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.store_bytes", "bytes"},
      {"cache.rerun_s", "s"},
      {"cache.rerun_milp_nodes", "count"},
      {"trace.flow_s", "s"},
      {"trace.untraced_flow_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.span_coverage", "ratio"},
      {"proc.peak_rss_mb", "MB"},
  };
  return k;
}

bool is_time(const std::string& unit) { return unit == "s"; }

// ---------------------------------------------------------------------------
// The benchmark.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/flowbench/work";
  bool smoke = false;
};

class Bench {
 public:
  Bench(const Args& a, Workload w) : args_(a), w_(std::move(w)) {}

  int run();

 private:
  void setup();
  void routed_round();
  void cache_round();

  /// Runs rounds until the time budget would be exceeded (at least one).
  void measure(const std::function<void()>& round);

  const Args& args_;
  Workload w_;
  std::string worker_;
  Counts counts_;
  std::vector<double> setup_s_;
  /// Routed workloads: every run_flow; cache_jobs: every cold sequence.
  std::vector<double> flow_s_;
  std::vector<double> rerun_s_;  ///< cache_jobs: warm sequence times
  std::optional<FlowQoR> qor_;   ///< final QoR summed over designs
  std::vector<LayerRound> layers_;
  // cache_jobs: placed designs from the last set-up.
  std::vector<Design> placed_;
  std::vector<std::vector<Placement>> start_;
  PlaceHpwl place_hpwl_;
  std::map<std::string, std::vector<double>> setup_layer_s_;
  int store_serial_ = 0;
};

void Bench::measure(const std::function<void()>& round) {
  Clock::time_point t0 = Clock::now();
  double last = 0;
  do {
    Clock::time_point r0 = Clock::now();
    round();
    last = since(r0);
  } while (since(t0) + last <= args_.seconds);
}

void Bench::setup() {
  // Repeat the set-up (at least kMinSetupReps times and kMinSetupSeconds in
  // all) so its median is steady even when one set-up takes microseconds.
  constexpr int kMinSetupReps = 3;
  constexpr double kMinSetupSeconds = 0.3;
  constexpr int kMaxSetupReps = 1000;
  double total = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || total < kMinSetupSeconds);
       ++rep) {
    Clock::time_point t0 = Clock::now();
    Tracer tr(args_.trace != 0);
    PlaceHpwl hp;
    std::vector<Design> designs;
    for (const DesignSpec& spec : w_.designs) {
      FlowOptions f = flow_options(w_, spec, args_.seed, worker_);
      if (w_.routed) {
        tr.span("design.make", [&] {
          designs.push_back(make_design(f.design_name, f.arch, f.design));
        });
      } else {
        designs.push_back(traced_place(tr, f, hp));
      }
    }
    if (!w_.routed) {
      // Store creation (then discarded: each measured round starts cold).
      fs::path dir = fs::path(args_.workdir) / "setup_store";
      fs::remove_all(dir);
      tr.span("cache.open", [&] {
        cache::StoreOptions so;
        so.dir = dir.string();
        so.epoch = cache::default_epoch();
        cache::CacheStore store(so);
      });
      fs::remove_all(dir);
    }
    setup_s_.push_back(since(t0));
    total += setup_s_.back();
    for (const char* n : {"design.make", "place.global", "place.legalize",
                          "place.detailed", "cache.open"}) {
      setup_layer_s_[n].push_back(tr.self_time(n));
    }
    for (const Design& d : designs) {
      if (d.netlist().num_instances() == 0) abort_run("empty design");
    }
    if (!w_.routed) {
      placed_ = std::move(designs);
      place_hpwl_ = hp;
    }
  }
  for (const Design& d : placed_) start_.push_back(d.placements());
}

void Bench::routed_round() {
  Tracer tr(args_.trace != 0);
  FlowQoR round_qor;
  double untraced = 0;
  OptTotals opt;
  PlaceHpwl hp;
  long init_drv = 0, unrouted = 0;
  for (const DesignSpec& spec : w_.designs) {
    FlowOptions f = flow_options(w_, spec, args_.seed, worker_);
    std::optional<Design> out;
    Clock::time_point t0 = Clock::now();
    FlowResult r = run_flow(f, &out);
    double secs = since(t0);
    untraced += secs;
    flow_s_.push_back(secs);
    std::fprintf(stderr, "flowbench: flow %s#%d %.6f s\n", spec.name.c_str(),
                 spec.copy, secs);
    std::string why =
        flow_failure(r, *out, w_.backend == DistBackend::kProcesses);
    counts_.op(why.empty(), spec.name + ": " + why);
    add(round_qor, qor_of(r));
    if (args_.trace) {
      TracedFlow t = traced_flow(tr, f, hp);
      if (!same_qor(t.result.init, r.init) ||
          !same_qor(t.result.final, r.final) ||
          t.design->placements() != out->placements()) {
        abort_run("traced decomposition of " + spec.name +
                  " diverged from run_flow");
      }
      opt.add(t.result.opt);
      init_drv += t.result.init.route.drv;
      unrouted += t.result.init.route.unrouted + t.result.final.route.unrouted;
    }
  }
  if (qor_ && !(*qor_ == round_qor)) {
    counts_.op(false, "final QoR differs between rounds");
  }
  qor_ = round_qor;
  if (!args_.trace) return;

  LayerRound lr;
  auto& m = lr.values;
  for (const char* n : {"design.make", "place.global", "place.legalize",
                        "place.detailed", "route.graph", "route.init",
                        "route.final", "timing.sta", "timing.power",
                        "vm1opt.objective"}) {
    m[std::string(n) + "_s"] = tr.self_time(n);
  }
  m["vm1opt.wall_s"] = tr.self_time("vm1opt.run");
  m["place.hpwl_global"] = hp.global;
  m["place.hpwl_legal"] = hp.legal;
  m["place.hpwl_detailed"] = hp.detailed;
  long searches = tr.delta("route.init", "route.maze_searches") +
                  tr.delta("route.final", "route.maze_searches");
  long expansions = tr.delta("route.init", "route.maze_expansions") +
                    tr.delta("route.final", "route.maze_expansions");
  m["route.searches"] = searches;
  m["route.expansions"] = expansions;
  m["route.expansions_per_search"] = ratio(expansions, searches);
  m["route.ripup_victims"] = tr.delta("route.init", "route.ripup_victims") +
                             tr.delta("route.final", "route.ripup_victims");
  m["route.init_drv"] = init_drv;
  m["route.unrouted"] = unrouted;
  m["route.rwl"] = round_qor.route.rwl;
  m["route.via12"] = round_qor.route.via12;
  m["route.dm1"] = round_qor.route.dm1;
  m["route.drv"] = round_qor.route.drv;
  fill_opt_metrics(m, opt);
  m["lp.pivots"] = tr.delta("vm1opt.run", "lp.pivots");
  m["lp.refactorizations"] = tr.delta("vm1opt.run", "lp.refactorizations");
  for (const char* c : {"cache.hits", "cache.misses", "cache.stores"}) {
    m[c] = tr.delta("vm1opt.run", c);
  }
  auto [flow, covered] = tr.root_coverage("flow");
  double n = static_cast<double>(w_.designs.size());
  m["trace.flow_s"] = flow / n;
  m["trace.untraced_flow_s"] = untraced / n;
  m["trace.overhead_s"] = (flow - untraced) / n;
  m["trace.span_coverage"] = ratio(covered, flow);
  layers_.push_back(std::move(lr));
}

void Bench::cache_round() {
  fs::path dir = fs::path(args_.workdir) /
                 ("store_" + std::to_string(store_serial_++));
  fs::remove_all(dir);
  cache::StoreOptions so;
  so.dir = dir.string();
  so.epoch = cache::default_epoch();

  FlowOptions base = flow_options(w_, w_.designs.front(), args_.seed, worker_);
  const VM1OptOptions& vo = base.vm1;

  // One job sequence over every placed design: each job runs vm1opt on a
  // fresh copy of the placement, as a service job would.
  struct Job {
    std::vector<Placement> placements;
    Coord hpwl = 0;
    VM1OptStats stats;
  };
  // Cold jobs must send every window to the workers; warm reruns find every
  // window in the store before dispatching.
  bool remote = w_.backend == DistBackend::kProcesses;
  auto run_jobs = [&](cache::PersistentCache& pc, Tracer& tr, bool cold) {
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < placed_.size(); ++i) {
      Design& d = placed_[i];
      VM1OptOptions o = vo;
      o.cache = &pc;
      Job j;
      tr.span(cold ? "vm1opt.run" : "vm1opt.rerun",
              [&] { j.stats = vm1opt(d, o); });
      std::string why = vm1_failure(d, j.stats, remote && cold);
      counts_.op(why.empty(), w_.designs[i].name + ": " + why);
      j.placements = d.placements();
      j.hpwl = total_hpwl(d);
      // Put the set-up placement back for the next job on this design.
      for (int k = 0; k < d.netlist().num_instances(); ++k) {
        d.set_placement(k, start_[i][k]);
      }
      jobs.push_back(std::move(j));
    }
    return jobs;
  };

  Tracer tr(args_.trace != 0);
  LayerRound lr;
  auto& m = lr.values;

  // Cold sequence; store creation is not part of flow_s.
  std::vector<Job> cold;
  double cold_s = 0;
  long store_bytes = 0;
  {
    cache::CacheStore store(so);
    cache::PersistentCache pc(&store);
    Clock::time_point t0 = Clock::now();
    Tracer off(false);
    cold = run_jobs(pc, off, true);
    cold_s = since(t0);
    store_bytes = static_cast<long>(store.bytes());
  }
  flow_s_.push_back(cold_s);
  FlowQoR round_qor;
  for (const Job& j : cold) {
    round_qor.hpwl += j.hpwl;
    round_qor.alignments += j.stats.final.alignments;
    round_qor.objective += j.stats.final.value;
  }
  if (qor_ && !(*qor_ == round_qor)) {
    counts_.op(false, "final QoR differs between rounds");
  }
  qor_ = round_qor;

  // Traced cold sequence on its own fresh store: same jobs under spans.
  if (args_.trace) {
    fs::path tdir = dir.string() + "_traced";
    fs::remove_all(tdir);
    cache::StoreOptions tso = so;
    tso.dir = tdir.string();
    OptTotals opt;
    tr.span("jobs.cold", [&] {
      std::optional<cache::CacheStore> store;
      tr.span("cache.open", [&] { store.emplace(tso); });
      cache::PersistentCache pc(&*store);
      for (const Job& j : run_jobs(pc, tr, true)) opt.add(j.stats);
    });
    fs::remove_all(tdir);
    fill_opt_metrics(m, opt);
    m["vm1opt.wall_s"] = tr.self_time("vm1opt.run");
    m["lp.pivots"] = tr.delta("vm1opt.run", "lp.pivots");
    m["lp.refactorizations"] = tr.delta("vm1opt.run", "lp.refactorizations");
    m["cache.stores"] = tr.delta("vm1opt.run", "cache.stores");
    m["cache.misses"] = tr.delta("vm1opt.run", "cache.misses");
    m["cache.store_bytes"] = static_cast<double>(store_bytes);
    auto [flow, covered] = tr.root_coverage("jobs.cold");
    m["trace.flow_s"] = flow;
    m["trace.untraced_flow_s"] = cold_s;
    m["trace.overhead_s"] = flow - cold_s;
    m["trace.span_coverage"] = ratio(covered, flow);
  }

  // Warm reruns on the reopened store: every window must be served from the
  // cache, bit-identical to its cold job, with zero MILP work.
  {
    std::optional<cache::CacheStore> store;
    tr.span("cache.open", [&] { store.emplace(so); });
    cache::PersistentCache pc(&*store);
    long hits = 0, misses = 0, nodes = 0;
    for (int rep = 0; rep < kWarmReps; ++rep) {
      long h0 = pc.hits(), m0 = pc.misses();
      Clock::time_point t0 = Clock::now();
      std::vector<Job> warm = run_jobs(pc, tr, false);
      rerun_s_.push_back(since(t0));
      for (std::size_t i = 0; i < warm.size(); ++i) {
        const VM1OptStats& s = warm[i].stats;
        bool same = warm[i].placements == cold[i].placements &&
                    s.final.value == cold[i].stats.final.value &&
                    s.final.alignments == cold[i].stats.final.alignments &&
                    s.final.hpwl == cold[i].stats.final.hpwl;
        bool solved_nothing = s.milp_nodes == 0 && s.solved == 0 &&
                              s.fallback_rounding == 0 &&
                              s.fallback_greedy == 0;
        counts_.op(same && solved_nothing,
                   w_.designs[i].name + ": warm rerun " +
                       (same ? "solved a MILP" : "differs from cold job"));
        nodes += s.milp_nodes;
      }
      hits += pc.hits() - h0;
      misses += pc.misses() - m0;
    }
    if (args_.trace) {
      m["cache.hits"] = hits;
      m["cache.hit_rate"] = ratio(hits, hits + misses);
      m["cache.rerun_s"] = tr.self_time("vm1opt.rerun") / kWarmReps;
      m["cache.rerun_milp_nodes"] = nodes;
    }
  }
  fs::remove_all(dir);
  if (args_.trace) {
    m["cache.open_s"] = tr.self_time("cache.open");
    layers_.push_back(std::move(lr));
  }
}

int Bench::run() {
  if (w_.backend == DistBackend::kProcesses) {
    worker_ = self_dir() + "/vm1_worker";
    if (access(worker_.c_str(), X_OK) != 0) {
      abort_run("vm1_worker not found at " + worker_ + "; " + w_.name +
                " would measure the threads path");
    }
  }
  fs::create_directories(args_.workdir);

  setup();
  if (w_.routed) {
    measure([&] { routed_round(); });
  } else {
    measure([&] { cache_round(); });
  }
  fs::remove_all(args_.workdir);

  const FlowQoR& q = *qor_;
  double rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s_), "s"},
      {"flow_s", median(flow_s_), "s"},
      {"qor_hpwl", static_cast<double>(q.hpwl), "dbu"},
      {"qor_alignments", static_cast<double>(q.alignments), "count"},
  };

  // Human-readable report: every end-to-end metric of the flow, with the
  // route and rerun metrics that apply to only some workloads marked n/a.
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("flowbench %s: seed %llu, %zu design(s), %ld ops, %ld failed, "
              "build %s, %u hw threads\n",
              w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              w_.designs.size(), counts_.attempted, counts_.failed,
              VM1_BUILD_TYPE, hw);
  auto row = [](const std::string& n, double v, const char* unit) {
    std::printf("  %-30s %18.6f %s\n", n.c_str(), v, unit);
  };
  auto na = [](const std::string& n, const char* unit) {
    std::printf("  %-30s %18s %s\n", n.c_str(), "n/a", unit);
  };
  row("setup_s", median(setup_s_), "s");
  row("flow_s", median(flow_s_), "s");
  if (w_.routed) na("rerun_s", "s"); else row("rerun_s", median(rerun_s_), "s");
  row("peak_rss_mb", rss_mb, "MB");
  row("qor_hpwl", static_cast<double>(q.hpwl), "dbu");
  row("qor_alignments", static_cast<double>(q.alignments), "count");
  if (w_.routed) {
    row("qor_dm1", static_cast<double>(q.route.dm1), "count");
    row("qor_rwl", static_cast<double>(q.route.rwl), "dbu");
    row("qor_via12", static_cast<double>(q.route.via12), "count");
    row("qor_drv", static_cast<double>(q.route.drv), "count");
  } else {
    for (const char* n : {"qor_dm1", "qor_rwl", "qor_via12", "qor_drv"}) {
      na(n, n == std::string("qor_rwl") ? "dbu" : "count");
    }
  }
  row("failed_frac", ratio(counts_.failed, counts_.attempted), "ratio");

  std::vector<Metric> out = e2e;
  if (args_.trace) {
    out.clear();
    std::map<std::string, double> v;
    for (const auto& [name, unit] : layer_metrics()) {
      std::vector<double> per_round;
      for (const LayerRound& lr : layers_) {
        auto it = lr.values.find(name);
        per_round.push_back(it == lr.values.end() ? 0 : it->second);
      }
      v[name] = is_time(unit) ? median(per_round)
                              : (per_round.empty() ? 0 : per_round.front());
    }
    v["proc.peak_rss_mb"] = rss_mb;
    if (!w_.routed) {
      // Placement ran during set-up on this workload.
      v["design.make_s"] = median(setup_layer_s_["design.make"]);
      v["place.global_s"] = median(setup_layer_s_["place.global"]);
      v["place.legalize_s"] = median(setup_layer_s_["place.legalize"]);
      v["place.detailed_s"] = median(setup_layer_s_["place.detailed"]);
      v["place.hpwl_global"] = place_hpwl_.global;
      v["place.hpwl_legal"] = place_hpwl_.legal;
      v["place.hpwl_detailed"] = place_hpwl_.detailed;
    }
    std::printf("per-layer (traced run; times are medians over %zu "
                "round(s), counts are per round):\n",
                layers_.size());
    for (const auto& [name, unit] : layer_metrics()) {
      row(name, v[name], unit.c_str());
      out.push_back({name, v[name], unit});
    }
    if (v["trace.span_coverage"] < 0.95) {
      abort_run("layer spans cover only " +
                std::to_string(100 * v["trace.span_coverage"]) +
                "% of the traced flow (need >= 95%)");
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              counts_.failed == 0 ? "true" : "false", counts_.attempted,
              counts_.failed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return counts_.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload "
               "closedm1_route|cache_jobs --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value());
      } else if (k == "--workdir") {
        a.workdir = value();
      } else if (k == "--smoke") {
        a.smoke = true;
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  std::optional<Workload> w = find_workload(a.workload, a.smoke);
  if (!w) usage(("unknown workload '" + a.workload + "'").c_str());
  if (std::getenv("VM1_FAULTS")) {
    abort_run("VM1_FAULTS is set; fault injection would change what is "
              "measured");
  }
  if (a.trace == 0 && std::getenv("VM1_TRACE")) {
    abort_run("VM1_TRACE is set; untraced runs must run with tracing off");
  }
  try {
    Bench b(a, *w);
    return b.run();
  } catch (const std::exception& e) {
    abort_run(e.what());
  }
}
