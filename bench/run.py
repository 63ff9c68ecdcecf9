"""Benchmark of the `grrs` library and CLI: one workload, one seed, one run.

    python3 bench/run.py --workload {finite-catalog,affine-symbolic,classify-f2}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  A run
repeats passes of the workload, each in a fresh process (bench/worker.py)
that sets up and then issues the workload's fixed operation list once: one
caller, closed loop, each operation starting when the previous one has
returned.  Every answer is checked.  At least two passes run, and more
while the next one would still end within S seconds.

--trace 0 reports the end-to-end metrics, in reference seconds: each
operation's perf_counter latency is scaled by the speed of the machine
measured just before and after it (see `normalized`).  wall_s is the median
over passes of the sum of a pass's latencies, op_p50_ms / op_p90_ms the
percentiles (see `quantile`) of the operations' latencies, each averaged
over the passes, setup_s the median set-up time
over at least seven fresh processes, peak_rss_mb the median peak RSS of a
pass.

--trace 1 runs one untraced pass, then traced passes (bench/tracer.py) while
time allows, and reports calls / self_s / total_s per traced callable, the
counters, and the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Operations on inputs
with a known library defect are counted in fail_ratio but not in `failed`.
Records of the run (context, per-operation outcomes, spans) are written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["finite-catalog", "affine-symbolic", "classify-f2"]
MIN_PASSES = 2
# Set-ups are sampled at least this many times, and further until the
# set-up-only processes have taken SETUP_SAMPLE_S: a cheap set-up (an import
# of ~0.1 s) is noisier and gets more samples.
SETUP_SAMPLES = 7
SETUP_SAMPLE_S = 3.0
SETUP_SAMPLES_MAX = 25
DEADLINE_S = 170  # a run must end within 180 s
# Reported times are reference seconds: seconds at the machine speed at which
# the calibration piece takes this long (about this machine's typical speed).
REFERENCE_S = 0.0025

sys.path.insert(0, HERE)
from tracer import TRACED  # noqa: E402

EXIT_CODES = range(6)  # the README's exit-code contract: 0..5


class RunFailed(Exception):
    pass


def worker(workload, seed, tmp, started, *flags):
    remaining = DEADLINE_S - (perf_counter() - started)
    if remaining <= 0:
        raise RunFailed("no time left for another process")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--tmp", tmp, *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunFailed("a pass did not finish before the run's deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(records):
    lines = "".join(f"{r['op']}\t{r['ok']}\t{r['outcome']}\n" for r in records)
    return hashlib.sha256(lines.encode()).hexdigest()


def src_lines():
    n = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "grrs")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    n += sum(1 for _ in fh)
    return n


def metric(value, unit):
    return {"value": value, "unit": unit}


def normalized(p):
    """A pass's operation latencies in reference seconds.

    Each latency is scaled by REFERENCE_S over the mean of the calibration
    pieces timed just before and just after it (bench/worker.py: calibrate),
    so a slowdown of the whole machine while the operation ran cancels out.
    """
    cal = p["calibration"]
    return [r["s"] * 2 * REFERENCE_S / (cal[i] + cal[i + 1]) for i, r in enumerate(p["ops"])]


def normalized_setup(p):
    return p["setup_s"] * REFERENCE_S / statistics.median(p["setup_calibration"])


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b) (continued fraction)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1 - x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile of xs.

    A Beta-weighted mean of all order statistics.  The operations of a
    workload have widely spread costs, so few latencies lie near the 90th
    percentile and a single interpolated order statistic jumps between
    runs; the weighted mean does not.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def end_to_end(passes, setups):
    """wall_s is the median over passes of a pass's total; the percentiles
    are over the operations, each operation's latency averaged over passes."""
    names = [r["op"] for r in passes[0]["ops"]]
    if any([r["op"] for r in p["ops"]] != names for p in passes):
        raise RunFailed("passes of one seed ran different operations")
    per_pass = [normalized(p) for p in passes]
    lat = [statistics.mean(xs) for xs in zip(*per_pass)]
    return {
        "wall_s": metric(statistics.median(sum(xs) for xs in per_pass), "s"),
        "op_p50_ms": metric(quantile(lat, 0.5) * 1000, "ms"),
        "op_p90_ms": metric(quantile(lat, 0.9) * 1000, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics of one traced pass, and the self-time balance.

    Span times are scaled to reference seconds by the pass's median
    calibration piece; the balance is checked on the unscaled spans.
    """
    trace = traced["trace"]
    stats, roots = trace["stats"], trace["roots"]
    scale = REFERENCE_S / statistics.median(traced["calibration"])
    traced_wall = sum(normalized(traced))
    out = {}
    for mod, qual in TRACED:
        key = f"{mod}.{qual}"
        s = stats.get(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counters": {}})
        out[f"{key}.calls"] = metric(s["calls"], "count")
        out[f"{key}.self_s"] = metric(s["self_s"] * scale, "s")
        out[f"{key}.total_s"] = metric(s["total_s"] * scale, "s")
    rec = stats.get("classify.recognize_cl", {"calls": 0, "raised": 0})
    attempts = sum(n for a, b, n in trace["edges"]
                   if a == "classify.recognize_cl" and b == "finite.isomorphic_finite")
    hits = rec["calls"] - rec["raised"]
    out["classify.recognize_cl.hit_ratio"] = metric(hits / attempts if attempts else 0.0, "ratio")
    for key in ("serialize.dumps", "serialize.loads"):
        out[f"{key}.bytes"] = metric(stats.get(key, {}).get("counters", {}).get("bytes", 0), "B")
    exits = stats.get("cli.main", {}).get("counters", {})
    for code in EXIT_CODES:
        out[f"cli.main.exit_{code}"] = metric(exits.get(f"exit_{code}", 0), "count")

    ops = [r for r in roots if r[0] != "set-up"]
    covered = sum(end - start for _, start, end, _ in roots)
    layer_self = sum(s["self_s"] for s in stats.values())
    root_self = sum(r[3] for r in roots)
    balance = abs(layer_self + root_self - covered - trace["outside_s"])
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.unattributed_share"] = metric(
        sum(r[3] for r in ops) / sum(end - start for _, start, end, _ in ops), "ratio")
    return out, (layer_self, root_self, covered, balance <= 1e-6 * covered + 1e-6)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "grrs", "__init__.py")):
        print(f"no grrs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills the running worker, and the
    # temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = perf_counter()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        return measure(args, started, tmp)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, started, tmp):
    run = lambda *flags: worker(args.workload, args.seed, tmp, started, *flags)
    passes, traced, setups = [], [], []
    setup_only_s = 0.0

    def setup_only():
        nonlocal setup_only_s
        t0 = perf_counter()
        setups.append(normalized_setup(run("--setup-only")))
        setup_only_s += perf_counter() - t0

    while True:
        passes.append(run())
        setups.append(normalized_setup(passes[-1]))
        if args.trace:
            break
        if len(setups) < SETUP_SAMPLES:
            setup_only()
        elapsed = perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while args.trace:
        t0 = perf_counter()
        traced.append(run("--trace"))
        if perf_counter() - started + (perf_counter() - t0) > args.seconds:
            break
    while not args.trace and (len(setups) < SETUP_SAMPLES or (
            setup_only_s < SETUP_SAMPLE_S and len(setups) < SETUP_SAMPLES_MAX)):
        setup_only()

    records = [r for p in passes + traced for r in p["ops"]]
    digests = {digest(p["ops"]) for p in passes + traced}
    attempted = len(records)
    wrong = [r for r in records if not r["ok"]]
    unexpected = [r for r in wrong if r["defect"] is None]
    ops_per_pass = len(passes[0]["ops"])
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(passes), "traced_passes": len(traced), "ops_per_pass": ops_per_pass,
        "setup_samples": len(setups), "outcome_digest": sorted(digests),
        "src_lines": src_lines(), "fail_ratio": len(wrong) / attempted,
        "known_defect_failures": len(wrong) - len(unexpected),
    }
    correct = not unexpected and len(digests) == 1

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  ops/pass {ops_per_pass}  python {context['python']}  nproc {context['nproc']}"
          f"  src_lines {context['src_lines']}")
    print(f"outcome digest {' '.join(sorted(digests))}")
    untraced = end_to_end(passes, setups)
    n = ops_per_pass
    notes = {
        "wall_s": f"median over {len(passes)} passes of {ops_per_pass} operations each",
        "op_p50_ms": f"{n} samples, each the mean of {len(passes)} passes; Harrell-Davis",
        "op_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond; Harrell-Davis",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": f"median of {len(passes)} pass(es)",
    }
    for name, m in untraced.items():
        print(f"{name:<13} {m['value']:12.4f} {m['unit']:<3} ({notes[name]})")
    raw = statistics.median(sum(r["s"] for r in p["ops"]) for p in passes)
    print(f"{'unscaled wall':<13} {raw:12.4f} s   (wall_s before scaling to reference seconds)")
    print(f"{'fail_ratio':<13} {context['fail_ratio']:12.4f}     ({len(wrong)} of {attempted}"
          f" operations failed their check: {context['known_defect_failures']} on known-defect"
          f" inputs, {len(unexpected)} unexpected)")
    for r in {r["op"]: r for r in wrong}.values():
        print(f"  {'known defect ' + r['defect'] if r['defect'] else 'UNEXPECTED'}: "
              f"{r['op']}: {r['outcome']}")
    if len(digests) != 1:
        print("  UNEXPECTED: passes of the same seed produced different outcomes")

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    norm = [normalized(p) for p in passes]
    record = {
        "context": context, "end_to_end": untraced, "setups_s": setups,
        "calibration": [p["calibration"] for p in passes],
        "ops": [
            dict(r, s=[p["ops"][i]["s"] for p in passes], s_ref=[lat[i] for lat in norm])
            for i, r in enumerate(passes[0]["ops"])
        ],
    }
    if args.trace:
        layers = [layer_metrics(t, untraced["wall_s"]["value"]) for t in traced]
        metrics = {
            name: metric(statistics.median(l[0][name]["value"] for l in layers), m["unit"])
            for name, m in layers[0][0].items()
        }
        layer_self, root_self, covered, balanced = layers[0][1]
        print(f"traced pass, unscaled: self time of the listed callables {layer_self:.4f} s + the rest of"
              f" the set-up and operation spans {root_self:.4f} s = {covered:.4f} s spanned"
              f" (+ {traced[0]['trace']['outside_s']:.4f} s called outside them):"
              f" {'balanced' if balanced else 'UNBALANCED'}")
        print(f"tracing overhead {metrics['trace.overhead_s']['value']:.4f} s"
              f" (traced wall_s {metrics['trace.wall_s']['value']:.4f} s, untraced"
              f" {metrics['trace.untraced_wall_s']['value']:.4f} s)")
        correct = correct and all(l[1][3] for l in layers)
        record["per_layer"] = metrics
        with open(os.path.join(OUT, tag + "-spans.json"), "w") as fh:
            json.dump([t["trace"] for t in traced], fh)
    else:
        metrics = untraced
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(unexpected),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
