"""One pass of one workload, in a fresh process, as a user of `grrs` meets it.

    python3 bench/worker.py --workload NAME --seed N --tmp DIR [--setup-only] [--trace]

Set-up (importing `grrs` from ../src and preparing the seeded inputs) is
timed from the start of this script; then every operation of the workload
runs once, in order, each timed alone between two calibration pieces (see
`calibrate`) and checked after its clock stops.  The last line
of standard output is one JSON object with the set-up time, one record per
operation, the peak resident set size and, with --trace, the per-layer span
totals.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def calibrate():
    """Seconds taken by a fixed piece of pure-Python Fraction and dict work.

    The machine's speed drifts by tens of percent over seconds to minutes
    (other tenants share its cores); timing this piece next to every
    operation measures the speed the operation ran at.  The garbage
    collector is held off so that the piece's time does not depend on how
    many objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _piece()
    finally:
        if enabled:
            gc.enable()


def _piece():
    t0 = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 7) - Fraction(i, 11)
        seen[(i % 13, i % 17)] = total
    return perf_counter() - t0


class Runner:
    """Issues operations one at a time and records latency and check.

    A calibration piece runs before every operation (outside its timing)
    and once after the last; op i ran between pieces i and i + 1.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = []
        self.calibration = []

    def op(self, name, check, fn, *args, defect=None):
        out, error = None, None
        self.calibration.append(calibrate())
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                with self.tracer.root(name):
                    out = fn(*args)
        except Exception as exc:  # a raised error is a wrong answer, recorded
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if error is None:
            try:
                ok, outcome = check(out)
            except Exception as exc:  # a check that cannot read the answer fails it
                ok, outcome = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, outcome = False, error
        self.records.append(
            {"op": name, "s": seconds, "ok": bool(ok), "outcome": outcome, "defect": defect}
        )
        return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, here)
    import grrs

    if not os.path.abspath(grrs.__file__).startswith(os.path.join(src, "grrs")):
        raise SystemExit(f"grrs imported from {grrs.__file__}, not from {src}")
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    prepare, run = workloads.WORKLOADS[args.workload]
    if tracer is None:
        inputs = prepare(args.seed, args.tmp)
    else:
        with tracer.root("set-up"):
            inputs = prepare(args.seed, args.tmp)
    setup_s = perf_counter() - T0

    result = {"setup_s": setup_s, "setup_calibration": [calibrate() for _ in range(5)]}
    if not args.setup_only:
        runner = Runner(tracer)
        run(runner, inputs)
        runner.calibration.append(calibrate())
        result["ops"] = runner.records
        result["calibration"] = runner.calibration
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = {
            "stats": {
                key: {
                    "calls": s.calls, "self_s": s.self_s, "total_s": s.total_s,
                    "raised": s.raised, "counters": s.counters,
                }
                for key, s in tracer.stats.items()
            },
            "edges": [[a, b, n] for (a, b), n in sorted(tracer.edges.items())],
            "roots": tracer.roots,
            "outside_s": tracer.outside[0],
        }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
