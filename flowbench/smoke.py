#!/usr/bin/env python3
"""Smoke test of the flow benchmark itself.

    python3 flowbench/smoke.py

Run it from the repository root. It runs every workload's code path on the
`tiny` design (run.py --smoke, about a minute in all, most of it the first
build) with tracing off and on, and fails unless:
  * each run exits 0 and its last stdout line is the result JSON with
    correct=true, attempted >= 1 and failed == 0;
  * the metrics are exactly the end_to_end (trace 0) or per_layer (trace 1)
    metrics named in BENCHMARK.json, each with its declared unit;
  * the predicted zeros hold: no dist traffic on closedm1_route, no routing
    on cache_jobs, and warm reruns there served entirely from the cache with
    zero B&B nodes; cache_jobs' cold jobs sent frames with no local
    fallback; the traced flow's spans cover at least 95% of it;
  * in a directory holding only BENCHMARK.json and flowbench/, run.py exits
    non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(cwd, workload, trace, extra=()):
    cmd = ["python3", os.path.join(cwd, "flowbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    return p.returncode, p.stdout, p.stderr


def check_run(spec, workload, trace):
    rc, out, err = run(REPO, workload, trace, ["--smoke"])
    if rc != 0:
        fail(f"{workload} trace={trace} exited {rc}:\n{err[-2000:]}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        fail(f"{workload} trace={trace}: {lines[-1][:200]}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace={trace}: metric names differ: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {got[m['name']]['unit']}")
    if trace == 0:
        for m in want:
            if got[m["name"]]["value"] == 0:
                fail(f"{workload}: end-to-end {m['name']} is 0")
        for name in ("setup_s", "flow_s", "failed_frac"):
            if not any(l.split()[:1] == [name] for l in lines):
                fail(f"{workload}: report table lacks {name}")
        return
    v = {k: m["value"] for k, m in got.items()}
    if v["trace.span_coverage"] < 0.95:
        fail(f"{workload}: span coverage {v['trace.span_coverage']}")
    route = ["route.searches", "route.expansions", "route.ripup_victims",
             "route.init_s", "route.final_s", "route.rwl"]
    if workload == "closedm1_route":
        if any(v[k] for k in v if k.startswith("dist.")):
            fail("closedm1_route: dist counters nonzero")
        if v["route.searches"] == 0 or v["vm1opt.windows"] == 0:
            fail("closedm1_route: no route or vm1opt work traced")
    if workload == "cache_jobs":
        if v["dist.frames_sent"] == 0 or v["dist.local_fallbacks"] != 0:
            fail("cache_jobs: no frames sent or local fallbacks")
        if any(v[k] for k in route):
            fail("cache_jobs: route counters nonzero")
        if v["cache.hit_rate"] != 1.0 or v["cache.rerun_milp_nodes"] != 0:
            fail("cache_jobs: warm reruns not served from the cache")
        if v["cache.stores"] == 0:
            fail("cache_jobs: cold jobs stored nothing")


def check_bare_directory():
    """run.py must refuse to run without the program sources."""
    bare = os.path.join(REPO, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "flowbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, _ = run(bare, "closedm1_route", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or out.strip():
        fail(f"bare directory: exit {rc}, stdout {out[:200]!r}")


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"smoke: {w['name']} trace={trace} ok")
    check_bare_directory()
    print("smoke: bare directory refused ok")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
