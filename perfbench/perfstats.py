"""Statistics and checks behind perfbench/run.py.

Pure functions over the raw samples bofl_perfbench writes, so they can be
unit-tested without building anything (see test_perfstats.py).
"""

import statistics

# The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count).  With n samples sorted
    ascending this is the sample at index n - beyond - 1, the
    (n - beyond)/n quantile: p99.2 of 1200 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(
            "tail needs more than %d samples, got %d" % (beyond, n))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once).

    `spans` is a list of dicts with "start", "end" and "parent" (index into
    the list, or -1).  Returns a list of self times in the spans' unit.
    """
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span["parent"]
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        intervals = sorted(
            (max(start, spans[c]["start"]), min(end, spans[c]["end"]))
            for c in children[index])
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_self_ms(events):
    """Sum of self time per layer ("cat") over Chrome trace events, in ms."""
    spans = [{"start": e["ts"], "end": e["ts"] + e["dur"],
              "parent": e["args"]["parent"]} for e in events]
    totals = {}
    for event, own in zip(events, self_times(spans)):
        totals[event["cat"]] = totals.get(event["cat"], 0.0) + own / 1e3
    return totals


def mismatches(reps, keys=("hash", "energy_j", "participations", "missed")):
    """Names of the deterministic outputs that differ between repetitions.

    Every repetition of a workload runs the same inputs, so the trace hash
    and the deterministic metrics must be identical in all of them.
    """
    bad = []
    for key in keys:
        if len({repr(rep[key]) for rep in reps}) > 1:
            bad.append(key)
    return bad


def record_mismatches(record, current):
    """Keys whose value differs from an earlier run's record of the same
    binary, workload and seed (an empty record never mismatches)."""
    return sorted(k for k, v in current.items()
                  if k in record and record[k] != v)


def end_to_end(raw):
    """The end-to-end metrics of one run from its untraced repetitions."""
    reps = [rep for rep in raw["reps"] if not rep["traced"]]
    first = reps[0]
    participations = first["participations"]
    # Per-round figures are taken per group of samples (a device-paper
    # instance, p99.2 of 1200 rounds, or a fleet-switch repetition), then
    # the median over all groups of the run.
    p50s = []
    tails = []
    for rep in reps:
        for samples in rep["round_cpu_ms"]:
            p50s.append(median(samples))
            tails.append(tail(samples))
    setup = list(raw["setup_only_s"])
    for rep in reps:
        setup += rep["setup_s"]
    return {
        "setup_s": median(setup),
        "cpu_s": median(rep["cpu_s"] for rep in reps),
        "round_cpu_ms_p50": median(p50s),
        "round_cpu_ms_tail": median(value for value, _, _ in tails),
        "peak_rss_mb": raw["peak_rss_mb"],
        "energy_j_per_participation": first["energy_j"] / participations,
        "on_time_rate": (participations - first["missed"]) / participations,
    }, {
        "repetitions": len(reps),
        "round_samples": sorted({n for _, _, n in tails}),
        "tail_percentiles": sorted({p for _, p, _ in tails}),
        "setup_samples": len(setup),
        "wall_s": median(rep["wall_s"] for rep in reps),
        "effective_parallelism": median(rep["cpu_s"] / rep["wall_s"]
                                        for rep in reps),
    }


def _hist(registry, name):
    return registry["histograms"].get(
        name, {"count": 0, "sum": 0.0, "max": 0.0, "p50": 0.0})


def _sum(instances, section, kind, name, field=None):
    total = 0
    for layers in instances:
        if section not in layers:
            continue
        if kind == "histograms":
            total += _hist(layers[section], name)[field]
        else:
            total += layers[section][kind].get(name, 0)
    return total


def per_layer(raw, events):
    """Per-layer metrics of the traced repetition, summed over its workload
    instances (see README.md)."""
    untraced = [rep for rep in raw["reps"] if not rep["traced"]]
    traced = [rep for rep in raw["reps"] if rep["traced"]][0]
    instances = traced["layers"]

    explore, exploit = [], []
    for event in events:
        if event["name"] in ("core.extend", "core.run_round"):
            ms = event["dur"] / 1e3
            (exploit if event["args"]["phase"] == 3 else explore).append(ms)

    def span_ms(*names):
        return sum(e["dur"] for e in events if e["name"] in names) / 1e3

    def fleet(key):
        return sum(layers.get("fleet", {}).get(key, 0) for layers in instances)

    propose_s = _sum(instances, "run", "histograms", "mbo.propose_seconds",
                     "sum")
    gp_fit_s = _sum(instances, "run", "histograms", "mbo.gp_fit_seconds",
                    "sum")
    # MBO time nested inside the core spans: the replay's share of the
    # registry for the fleet workloads, the whole run for device-paper.
    nested_s = (_sum(instances, "replay", "histograms", "mbo.propose_seconds",
                     "sum") - propose_s
                if "replay" in instances[0] else propose_s)
    self_ms = layer_self_ms(events)
    control_rounds = [_hist(layers["run"], "fleet.control_plane_ms")
                      for layers in instances]
    hits = sum(layers["ilp"]["hits"] for layers in instances)
    solves = hits + sum(layers["ilp"]["misses"] for layers in instances)
    participations = fleet("participations")
    soa_bytes = sum(layers.get("fleet", {}).get("soa_bytes_per_client", 0.0)
                    for layers in instances)
    cpu_median = median(rep["cpu_s"] for rep in untraced)

    def counter(name):
        return _sum(instances, "run", "counters", name)

    return {
        "fleet.control_plane_ms": fleet("control_plane_ms"),
        "fleet.data_plane_ms": fleet("data_plane_ms"),
        "fleet.control_round_ms_p50": median(h["p50"]
                                             for h in control_rounds),
        "fleet.control_round_ms_max": max(h["max"] for h in control_rounds),
        "fleet.control_residual_ms": (fleet("control_plane_ms") -
                                      fleet("replay_ms")),
        "fleet.participations": participations,
        "fleet.events_pushed": counter("fleet.events_pushed"),
        "fleet.soa_bytes_per_client": soa_bytes / len(instances),
        "fleet.self_ms": self_ms.get("fleet", 0.0),
        "core.explore_entry_ms_sum": sum(explore),
        "core.explore_entry_count": len(explore),
        "core.explore_entry_ms_p50": median(explore) if explore else 0.0,
        "core.exploit_entry_ms_sum": sum(exploit),
        "core.exploit_entry_count": len(exploit),
        "core.exploit_entry_ms_p50": median(exploit) if exploit else 0.0,
        "core.guardian_trips": counter("bofl.guardian_trips"),
        "core.self_ms": self_ms.get("core", 0.0) - 1e3 * nested_s,
        "bo.propose_ms": 1e3 * propose_s,
        "bo.ehvi_ms": 1e3 * (propose_s - gp_fit_s),
        "bo.ehvi_evaluations": counter("mbo.ehvi_evaluations"),
        "gp.fit_ms_sum": 1e3 * gp_fit_s,
        "gp.fit_count": _sum(instances, "run", "histograms",
                             "mbo.gp_fit_seconds", "count"),
        "ilp.solves": solves,
        "ilp.cache_hit_ratio": hits / solves if solves else 0.0,
        "priors.load_ms": span_ms("priors.load"),
        "priors.publish_ms": span_ms("priors.prepare_publish",
                                     "priors.apply_publish"),
        "priors.exploration_entries": fleet("exploration_entries"),
        "priors.warm_clusters": fleet("warm_clusters"),
        "priors.self_ms": self_ms.get("priors", 0.0),
        "device.table_build_ms": span_ms("device.table_build"),
        "device.flat_table_builds": counter("device.flat_table_builds"),
        "device.self_ms": self_ms.get("device", 0.0),
        "bench.self_ms": self_ms.get("bench", 0.0),
        "runtime.wall_s": traced["wall_s"],
        "runtime.effective_parallelism": traced["cpu_s"] / traced["wall_s"],
        "runtime.pool_utilization": median(
            layers["run"]["gauges"].get("runtime.pool_utilization", 0.0)
            for layers in instances),
        "runtime.tasks_executed": counter("runtime.tasks_executed"),
        "trace.overhead_pct": 100.0 * (traced["cpu_s"] / cpu_median - 1.0),
    }
