#include "scenario/metric_spec.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <sstream>

namespace vm1::scenario {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

bool parse_double(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end && *end == '\0' && end != s.c_str();
}

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

bool parse_tolerance(const std::string& text, Tolerance* tol,
                     std::string* err) {
  std::string kind = text;
  std::string arg;
  std::size_t colon = text.find(':');
  if (colon != std::string::npos) {
    kind = text.substr(0, colon);
    arg = text.substr(colon + 1);
  }
  double v = 0;
  bool has_arg = !arg.empty();
  if (has_arg && !parse_double(arg, &v)) {
    *err = "malformed tolerance argument '" + arg + "'";
    return false;
  }
  if (v < 0) {
    *err = "negative tolerance " + arg;
    return false;
  }
  if (kind == "exact") {
    tol->kind = TolKind::kExact;
  } else if (kind == "abs") {
    if (!has_arg) {
      *err = "abs tolerance needs a value (abs:<T>)";
      return false;
    }
    tol->kind = TolKind::kAbs;
  } else if (kind == "rel") {
    if (!has_arg) {
      *err = "rel tolerance needs a value (rel:<F>)";
      return false;
    }
    tol->kind = TolKind::kRel;
  } else if (kind == "le") {
    tol->kind = TolKind::kLe;
  } else if (kind == "ge") {
    tol->kind = TolKind::kGe;
  } else if (kind == "info") {
    tol->kind = TolKind::kInfo;
  } else {
    *err = "unknown tolerance '" + kind + "'";
    return false;
  }
  tol->value = v;
  return true;
}

}  // namespace

std::string Tolerance::str() const {
  switch (kind) {
    case TolKind::kExact:
      return "exact";
    case TolKind::kAbs:
      return "abs:" + fmt(value);
    case TolKind::kRel:
      return "rel:" + fmt(value);
    case TolKind::kLe:
      return value > 0 ? "le:" + fmt(value) : "le";
    case TolKind::kGe:
      return value > 0 ? "ge:" + fmt(value) : "ge";
    case TolKind::kInfo:
      return "info";
  }
  return "?";
}

bool parse_metric_specs(const std::string& text, std::vector<MetricSpec>* out,
                        std::string* err) {
  std::vector<MetricSpec> specs;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& what) {
    if (err) *err = "line " + std::to_string(lineno) + ": " + what;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    line = trim(line);
    // '#' comments are whole-line only: report regexes legitimately
    // contain '#' (e.g. matching a "#DRV" report label).
    if (line.empty() || line[0] == '#') continue;

    // name;source;tolerance — the tolerance is the text after the LAST ';'
    // so report regexes may contain ';' only in the middle field is wrong —
    // keep it simple: first and last ';' delimit the three fields.
    std::size_t first = line.find(';');
    std::size_t last = line.rfind(';');
    if (first == std::string::npos || first == last) {
      return fail("expected <name>;<source>;<tolerance>");
    }
    MetricSpec spec;
    spec.name = trim(line.substr(0, first));
    std::string source = trim(line.substr(first + 1, last - first - 1));
    std::string tol = trim(line.substr(last + 1));
    if (spec.name.empty()) return fail("empty metric name");

    std::size_t colon = source.find(':');
    if (colon == std::string::npos) {
      return fail("source must be flow:<field>, counter:<name>, or "
                  "report:<regex>");
    }
    std::string src_kind = source.substr(0, colon);
    spec.key = source.substr(colon + 1);
    if (spec.key.empty()) return fail("empty source key");
    if (src_kind == "flow") {
      spec.source = MetricSource::kFlow;
    } else if (src_kind == "counter") {
      spec.source = MetricSource::kCounter;
    } else if (src_kind == "report") {
      spec.source = MetricSource::kReport;
      try {
        std::regex probe(spec.key);
        if (probe.mark_count() < 1) {
          return fail("report regex needs one capture group");
        }
      } catch (const std::regex_error& e) {
        return fail(std::string("bad regex: ") + e.what());
      }
    } else {
      return fail("unknown source '" + src_kind + "'");
    }
    std::string tol_err;
    if (!parse_tolerance(tol, &spec.tol, &tol_err)) return fail(tol_err);
    for (const MetricSpec& s : specs) {
      if (s.name == spec.name) return fail("duplicate metric " + spec.name);
    }
    specs.push_back(std::move(spec));
  }
  *out = std::move(specs);
  return true;
}

const std::string& default_metric_spec_text() {
  // The gated set mirrors the golden quickstart snapshot: integer, fully
  // deterministic metrics gate exactly; quality metrics that legitimately
  // improve get monotonic gates; solver/router internals ride as info so
  // the trend JSON shows *why* a gated metric moved.
  static const std::string kText = R"(# OpenVM1 default scenario metric spec
# quality after VM1Opt + re-route
final_hpwl;flow:final_hpwl;exact
final_alignments;flow:final_alignments;ge
final_num_dm1;flow:final_num_dm1;ge
final_via12;flow:final_via12;exact
final_drv;flow:final_drv;le
final_rwl_dbu;flow:final_rwl_dbu;exact
# baseline placement + route (catches placer/router drift)
init_hpwl;flow:init_hpwl;exact
init_num_dm1;flow:init_num_dm1;exact
init_drv;flow:init_drv;exact
init_rwl_dbu;flow:init_rwl_dbu;exact
# optimizer shape: the window-outcome taxonomy is fully deterministic
outer_iterations;flow:outer_iterations;exact
windows;flow:windows;exact
solved;flow:solved;exact
fallback_rounding;flow:fallback_rounding;exact
fallback_greedy;flow:fallback_greedy;exact
rejected_audit;flow:rejected_audit;exact
kept;flow:kept;exact
faulted;flow:faulted;exact
skipped;flow:skipped;exact
# a window LP cut by its wall clock makes results timing-dependent
lp_time_limit_hits;counter:lp.time_limit_hits;le
# solver/router internals: trend context, not gated
cached_remote;flow:cached_remote;info
cache_hits;flow:cache_hits;info
milp_nodes;flow:milp_nodes;info
lp_solves;counter:lp.solves;info
lp_iterations;counter:lp.pivots;info
lp_dual_pivots;counter:lp.dual_pivots;info
lp_bound_flips;counter:lp.bound_flips;info
milp_rows;counter:milp.rows;info
milp_cols;counter:milp.cols;info
maze_expansions;counter:route.maze_expansions;info
maze_searches;counter:route.maze_searches;info
heap_pushes;counter:route.heap_pushes;info
seconds;flow:seconds;info
# the rendered report is a first-class source (VPR style)
report_final_drv;report:#DRV +[0-9]+ +([0-9]+);exact
)";
  return kText;
}

std::vector<MetricSpec> default_metric_specs() {
  std::vector<MetricSpec> specs;
  std::string err;
  bool ok = parse_metric_specs(default_metric_spec_text(), &specs, &err);
  (void)ok;
  return specs;
}

MetricCheck check_tolerance(const Tolerance& tol, double value,
                            double golden) {
  MetricCheck c;
  auto fail_with = [&](const std::string& why) {
    c.pass = false;
    c.detail = "value " + fmt(value) + " vs golden " + fmt(golden) + " (" +
               tol.str() + "): " + why;
  };
  switch (tol.kind) {
    case TolKind::kInfo:
      break;
    case TolKind::kExact:
      if (fmt(value) != fmt(golden)) fail_with("not equal");
      break;
    case TolKind::kAbs:
      if (std::abs(value - golden) > tol.value) {
        fail_with("drift " + fmt(std::abs(value - golden)) + " > " +
                  fmt(tol.value));
      }
      break;
    case TolKind::kRel: {
      double budget = tol.value * std::max(std::abs(golden), 1.0);
      if (std::abs(value - golden) > budget) {
        fail_with("drift " + fmt(std::abs(value - golden)) + " > " +
                  fmt(budget));
      }
      break;
    }
    case TolKind::kLe: {
      double cap = golden + tol.value * std::max(std::abs(golden), 1.0);
      if (value > cap) fail_with("regressed above " + fmt(cap));
      break;
    }
    case TolKind::kGe: {
      double floor = golden - tol.value * std::max(std::abs(golden), 1.0);
      if (value < floor) fail_with("regressed below " + fmt(floor));
      break;
    }
  }
  return c;
}

bool extract_metric(const MetricSpec& spec, const ExtractionContext& ctx,
                    double* value, std::string* err) {
  switch (spec.source) {
    case MetricSource::kFlow: {
      if (!ctx.flow) {
        *err = "no flow snapshot in context";
        return false;
      }
      auto it = ctx.flow->find(spec.key);
      if (it == ctx.flow->end()) {
        *err = "flow snapshot has no field '" + spec.key + "'";
        return false;
      }
      *value = it->second;
      return true;
    }
    case MetricSource::kCounter: {
      if (!ctx.counters) {
        *err = "no counter snapshot in context";
        return false;
      }
      auto it = ctx.counters->find(spec.key);
      if (it == ctx.counters->end()) {
        *err = "no telemetry counter '" + spec.key + "'";
        return false;
      }
      *value = it->second;
      return true;
    }
    case MetricSource::kReport: {
      if (!ctx.report) {
        *err = "no report text in context";
        return false;
      }
      std::smatch m;
      std::regex re(spec.key);
      if (!std::regex_search(*ctx.report, m, re) || m.size() < 2) {
        *err = "report regex '" + spec.key + "' did not match";
        return false;
      }
      std::string cap = m[1];
      if (!parse_double(cap, value)) {
        *err = "report capture '" + cap + "' is not numeric";
        return false;
      }
      return true;
    }
  }
  *err = "unknown source";
  return false;
}

}  // namespace vm1::scenario
