"""Statistics, seed plumbing and metric assembly for the repo benchmark.

The C++ harness (perfbench/harness) only measures and prints raw samples.
This module turns a workload seed into the harness's inputs, and the
harness's raw samples into the reported metrics.
"""

import math
import statistics

DEFAULT_SEED = 1

# Work unit each workload's throughput counts.
WORKLOAD_UNITS = {
    "fleet_sweep": "cells",
    "fleet_rederive": "cells",
    "predict_rfe": "fits",
    "governor_soak": "rounds",
}

# Fleet report hash at DEFAULT_SEED (the chips derive_inputs picks for
# it). fleet_sweep and fleet_rederive must reproduce it at that seed.
PINNED_FLEET_HASH = "4af6c38cd5dd46f7"

# Kernel-pass result hash at DEFAULT_SEED; traced fleet_sweep runs,
# which drive the kernel pass, must reproduce it at that seed.
PINNED_KERNEL_HASH = "0953d1c734279c3c"

_MASK = (1 << 64) - 1


def splitmix64(value):
    """One SplitMix64 output for a 64-bit input."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def seed_stream(seed, salt):
    """Deterministic 64-bit value for (seed, salt)."""
    return splitmix64(splitmix64(seed & _MASK) ^ salt)


def derive_inputs(workload, seed):
    """The harness arguments generated from a workload seed.

    The same seed always gives the same arguments; the harness receives
    nothing else that depends on the seed.
    """
    if workload not in WORKLOAD_UNITS:
        raise ValueError("unknown workload %r" % workload)
    serial = lambda salt: 1 + seed_stream(seed, salt) % 99
    args = [
        "--fleet-chips",
        "TTT:%d,TFF:%d,TSS:%d" % (serial(1), serial(2), serial(3)),
        "--chip", "TTT:%d" % serial(4),
        "--run-seed", str(seed_stream(seed, 5)),
        "--fault-seed", str(seed_stream(seed, 6)),
    ]
    if seed == DEFAULT_SEED and workload in ("fleet_sweep",
                                             "fleet_rederive"):
        args += ["--expect-fleet-hash", PINNED_FLEET_HASH]
    if seed == DEFAULT_SEED and workload == "fleet_sweep":
        args += ["--expect-kernel-hash", PINNED_KERNEL_HASH]
    return args


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile (Python's exclusive
    method); a single sample is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def percentile(values, p):
    """Linear-interpolated p-th percentile of the samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count, p):
    """Samples lying above the p-th percentile of `count` samples."""
    return count - math.ceil(count * p / 100.0)


def tail_percentile(values, p):
    """p-th percentile, refusing one with fewer than ten samples
    beyond it (too few to be a percentile of the tail)."""
    if samples_beyond(len(values), p) < 10:
        raise ValueError("p%g of %d samples has fewer than ten samples "
                         "beyond it" % (p, len(values)))
    return percentile(values, p)


def rates(raw, prefix):
    """Per-iteration throughput (items per second) of the untraced or
    traced iterations."""
    items = raw["samples"].get(prefix + ".iter_items", [])
    seconds = raw["samples"].get(prefix + ".iter_s", [])
    return [i / s for i, s in zip(items, seconds)]


def end_to_end(raw):
    """End-to-end metrics of an untraced run."""
    return {
        "throughput_per_s": (median(rates(raw, "untraced")), "1/s"),
        "setup_s": (median(raw["samples"]["setup_s"]), "s"),
        "peak_rss_mb": (raw["values"]["peak_rss_kb"] / 1024.0, "MiB"),
    }


# Per-layer metrics: name -> (unit, how to compute from the raw record).
# "median" reduces per-iteration samples, "value" copies a single
# number, ("pct", p, samples) takes a tail-checked percentile, ("count",
# samples) counts samples, and ("max", samples) takes the maximum.
PER_LAYER = {
    "sim.core.runs": ("count", "value"),
    "sim.core.epochs": ("count", "value"),
    "sim.core.ns_per_epoch": ("ns", "value"),
    "sim.core.run_us_p50": ("us", ("pct", 50, "sim.core.run_us")),
    "sim.core.run_us_p99": ("us", ("pct", 99, "sim.core.run_us")),
    "sim.core.run_us_n": ("count", ("count", "sim.core.run_us")),
    "sim.cache.data_ns_per_access": ("ns", "value"),
    "sim.cache.instr_ns_per_fetch": ("ns", "value"),
    "sim.cache.l1d_miss_ratio": ("ratio", "value"),
    "sim.cache.l2_miss_ratio": ("ratio", "value"),
    "sim.cache.l3_miss_ratio": ("ratio", "value"),
    "core.campaign.ms_p50": ("ms", ("pct", 50, "core.campaign.ms")),
    "core.campaign.ms_p95": ("ms", ("pct", 95, "core.campaign.ms")),
    "core.campaign.ms_n": ("count", ("count", "core.campaign.ms")),
    "core.campaign.runs_per_campaign": ("count", "value"),
    "core.campaign.abnormal_ratio": ("ratio", "value"),
    "core.executor.execute_ms": ("ms", "median"),
    "core.executor.merge_ms": ("ms", "median"),
    "core.executor.busy_ratio": ("ratio", "median"),
    "core.executor.cells_fresh": ("count", "median"),
    "core.executor.cache_hits": ("count", "median"),
    "util.threadpool.idle_ms": ("ms", "median"),
    "util.threadpool.steals": ("count", "median"),
    "util.threadpool.tasks": ("count", "median"),
    "core.ledger.replay_ms": ("ms", "median"),
    "core.ledger.replay_frames": ("count", "median"),
    "core.ledger.derive_ms": ("ms", "median"),
    "core.ledger.append_us_per_cell": ("us", "median"),
    "core.ledger.file_bytes": ("bytes", "value"),
    "core.ledger.flush_batches": ("count", "median"),
    "core.report.serialize_ms": ("ms", "median"),
    "core.report.deserialize_ms": ("ms", "median"),
    "core.report.bytes": ("bytes", "median"),
    "core.predictor.dataset_ms": ("ms", "median"),
    "core.predictor.evaluate_ms_p50":
        ("ms", ("pct", 50, "core.predictor.evaluate_ms")),
    "core.predictor.evaluate_ms_max":
        ("ms", ("max", "core.predictor.evaluate_ms")),
    "core.predictor.evaluate_n":
        ("count", ("count", "core.predictor.evaluate_ms")),
    "sched.daemon.session_ms_p50":
        ("ms", ("pct", 50, "sched.daemon.session_ms")),
    "sched.daemon.session_n":
        ("count", ("count", "sched.daemon.session_ms")),
    "sched.daemon.round_us": ("us", "median"),
    "sched.daemon.rounds_replayed": ("count", "median"),
    "sched.daemon.nominal_fallbacks": ("count", "median"),
    "sched.supervisor.quarantine_entries": ("count", "median"),
    "sched.supervisor.backoffs": ("count", "median"),
    "fidelity.vmin_err_mv": ("mV", "value"),
    "fidelity.rmse_vs_naive": ("ratio", "value"),
    "fidelity.savings_pct": ("%", "value"),
}


def per_layer(raw):
    """Per-layer metrics of a traced run.

    A metric whose layer the workload does not exercise reads 0 (its
    sample count, where it has one, is 0 too).
    """
    samples = raw["samples"]
    values = raw["values"]
    out = {}
    for name, (unit, how) in PER_LAYER.items():
        if how == "value":
            value = values.get(name, 0.0)
        elif how == "median":
            value = median(samples[name]) if samples.get(name) else 0.0
        else:
            series = samples.get(how[-1], [])
            if how[0] == "count":
                value = float(len(series))
            elif not series:
                value = 0.0
            elif how[0] == "max":
                value = max(series)
            else:
                value = tail_percentile(series, how[1])
        out[name] = (value, unit)

    untraced = median(rates(raw, "untraced"))
    traced = median(rates(raw, "traced"))
    out["obs.overhead_pct"] = ((untraced / traced - 1.0) * 100.0, "%")
    out["obs.traced_iterations"] = (
        float(len(samples.get("traced.iter_s", []))), "count")
    out["checks.failed_ratio"] = (failed_ratio(raw), "ratio")
    return out


def failed_ratio(raw):
    return raw["values"]["failed"] / raw["values"]["attempted"]


def result_line(raw, trace):
    """The final JSON object of a run."""
    metrics = per_layer(raw) if trace else end_to_end(raw)
    attempted = int(raw["values"]["attempted"])
    failed = int(raw["values"]["failed"])
    checks_ok = all(c["failed"] == 0 for c in raw["checks"].values())
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
