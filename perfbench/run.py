#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload fleet-switch|device-paper
                             --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles ../src in
Release) into .bench_build/perfbench, runs bofl_perfbench for S seconds of
timed repetitions, checks its outputs and prints every metric by name with
its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of a traced
repetition.  Exits non-zero when a correctness check fails.  See
perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perfstats  # noqa: E402

WORKLOADS = ("fleet-switch", "device-paper")
BUILD_JOBS = "2"
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "round_cpu_ms_p50": "ms",
    "round_cpu_ms_tail": "ms",
    "peak_rss_mb": "MiB",
    "energy_j_per_participation": "J",
    "on_time_rate": "ratio",
}

PER_LAYER_UNITS = {
    "fleet.control_plane_ms": "ms",
    "fleet.data_plane_ms": "ms",
    "fleet.control_round_ms_p50": "ms",
    "fleet.control_round_ms_max": "ms",
    "fleet.control_residual_ms": "ms",
    "fleet.participations": "count",
    "fleet.events_pushed": "count",
    "fleet.soa_bytes_per_client": "B/client",
    "fleet.self_ms": "ms",
    "core.explore_entry_ms_sum": "ms",
    "core.explore_entry_count": "count",
    "core.explore_entry_ms_p50": "ms",
    "core.exploit_entry_ms_sum": "ms",
    "core.exploit_entry_count": "count",
    "core.exploit_entry_ms_p50": "ms",
    "core.guardian_trips": "count",
    "core.self_ms": "ms",
    "bo.propose_ms": "ms",
    "bo.ehvi_ms": "ms",
    "bo.ehvi_evaluations": "count",
    "gp.fit_ms_sum": "ms",
    "gp.fit_count": "count",
    "ilp.solves": "count",
    "ilp.cache_hit_ratio": "ratio",
    "priors.load_ms": "ms",
    "priors.publish_ms": "ms",
    "priors.exploration_entries": "count",
    "priors.warm_clusters": "count",
    "priors.self_ms": "ms",
    "device.table_build_ms": "ms",
    "device.flat_table_builds": "count",
    "device.self_ms": "ms",
    "bench.self_ms": "ms",
    "runtime.wall_s": "s",
    "runtime.effective_parallelism": "cores",
    "runtime.pool_utilization": "ratio",
    "runtime.tasks_executed": "count",
    "trace.overhead_pct": "%",
}


def log(message):
    print("[perfbench] " + message, flush=True)


def fail(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(2)


def build(build_dir):
    """Configure once, then (incrementally) build bofl_perfbench."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src; run from a full "
             "checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found on PATH" % tool)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bofl_perfbench")


def binary_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_record(build_dir, key, current):
    """Deterministic outputs must repeat across runs of the same binary,
    workload and seed: compare with (or start) the record of earlier runs."""
    path = os.path.join(build_dir, "records.json")
    records = {}
    if os.path.isfile(path):
        with open(path) as f:
            records = json.load(f)
    bad = perfstats.record_mismatches(records.get(key, {}), current)
    if not bad:
        records[key] = current
        with open(path + ".tmp", "w") as f:
            json.dump(records, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    binary = build(build_dir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(build_dir, "raw-%s.json" % tag)
    trace_path = os.path.join(build_dir, "trace-%s.json" % tag)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", raw_path]
    if args.trace:
        command += ["--trace-out", trace_path]
    sys.stdout.flush()
    try:
        status = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("bofl_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    if status != 0:
        fail("bofl_perfbench exited with status %d" % status)
    with open(raw_path) as f:
        raw = json.load(f)

    checks = []
    for rep in raw["reps"]:
        checks += rep["checks"]
    differing = perfstats.mismatches(raw["reps"])
    checks.append({"name": "trace hash and deterministic outputs identical "
                           "in every repetition",
                   "ok": not differing, "detail": ", ".join(differing)})
    checks.append({"name": "optimized build", "ok": raw["context"]["optimized"],
                   "detail": raw["context"]["build_type"]})
    first = raw["reps"][0]
    record = {"hash": first["hash"], "energy_j": first["energy_j"],
              "participations": first["participations"],
              "missed": first["missed"]}
    key = "%s/%s/%d" % (binary_digest(binary), args.workload, args.seed)
    differing = check_record(build_dir, key, record)
    checks.append({"name": "trace hash and deterministic outputs identical "
                           "to earlier runs of this seed",
                   "ok": not differing, "detail": ", ".join(differing)})

    correct = all(check["ok"] for check in checks)
    names = sorted({check["name"] for check in checks})
    for name in names:
        failed = [c["detail"] for c in checks
                  if c["name"] == name and not c["ok"]]
        log("check %s: %s%s" % ("FAILED" if failed else "ok", name,
                                 " (%s)" % failed[0] if failed else ""))
    log("context: " + json.dumps(raw["context"], sort_keys=True))

    values, info = perfstats.end_to_end(raw)
    log("repetitions %d, set-up samples %d, round samples per group "
        "%d-%d (tail = p%.1f-p%.1f), wall %.3f s, effective parallelism %.2f"
        % (info["repetitions"], info["setup_samples"],
           info["round_samples"][0], info["round_samples"][-1],
           info["tail_percentiles"][0], info["tail_percentiles"][-1],
           info["wall_s"], info["effective_parallelism"]))
    units = END_TO_END_UNITS
    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        values = perfstats.per_layer(raw, events)
        units = PER_LAYER_UNITS
        log("trace: %d spans in %s" % (len(events),
                                       os.path.relpath(trace_path, ROOT)))
    for name, unit in units.items():
        log("%-32s %14.6g %s" % (name, values[name], unit))

    rounds = sum(rep["rounds"] for rep in raw["reps"])
    failed_rounds = sum(rep["rounds"] for rep in raw["reps"]
                        if not all(c["ok"] for c in rep["checks"]))
    if not correct:
        failed_rounds = max(failed_rounds, 1)
    result = {
        "correct": correct,
        "attempted": rounds,
        "failed": failed_rounds,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
