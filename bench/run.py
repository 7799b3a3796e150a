"""layerlab benchmark: one workload per call, timed end to end or traced.

    python3 bench/run.py --workload sphere_solve --seed 1 --seconds 15 --trace 0

Run from the root of a layerlab checkout; the library is imported from
``src/``.  Every workload runs in child processes of this one, single
threaded: BLAS pools are set to one thread and LAYERLAB_THREADS is
removed, so ``cli._pmap`` runs serially.

--trace 0: two set-up-only children and one full child.  ``setup_s`` is
the median of the three set-up times; the other end-to-end metrics come
from the full child.

--trace 1: one untraced and one traced full child at the same seed.  The
per-layer metrics come from the traced child; the spans and a report
with the tracing overhead go to ``bench/out/``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sphere_solve", "sphere_post", "plate_eval", "cli_artifacts")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "full"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child: one process that sets up and, for "full", runs the op list
# ---------------------------------------------------------------------------

class SpeedProbe:
    """A fixed reference kernel timed between ops to follow the machine's
    speed, which drifts by up to 1.8x over 10-30 s on shared hosts.

    The kernel is half interpreter loop, half small-array numpy, the two
    kinds of work layerlab does; its time is the geometric mean of the two
    halves, each the median of three repeats.  ``factor`` turns a wall time
    taken next to a probe into the time at the nominal probe speed.
    """

    NOMINAL_S = 1.0e-3  # typical probe time on the reference host (README)

    def __init__(self, np):
        self.np = np
        self.a = np.linspace(0.0, 1.0, 4096)

    def _py(self):
        s = 0
        for i in range(20_000):
            s += i * i
        return s

    def _numpy(self):
        a = self.a
        for _ in range(60):
            a = self.np.sqrt(a * a + 1.0) - 0.5
        return a

    def measure(self) -> float:
        from time import perf_counter
        times = []
        for part in (self._py, self._numpy):
            reps = []
            for _ in range(3):
                t = perf_counter()
                part()
                reps.append(perf_counter() - t)
            times.append(sorted(reps)[1])
        return (times[0] * times[1]) ** 0.5

    def factor(self, *probes: float) -> float:
        return self.NOMINAL_S / (sum(probes) / len(probes))


PROBE_EVERY_S = 0.5  # op time between two probes


def child(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import resource
    from time import perf_counter

    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = wl.plan(np.random.default_rng(args.seed), wl.rounds(args.seconds))
    if tracer:
        with tracer.region("bench.setup"):
            ctx = wl.setup(ops)
    else:
        ctx = wl.setup(ops)
    setup_raw = time.monotonic() - args.t0
    speed = SpeedProbe(np)
    last_probe = speed.measure()
    setup_s = setup_raw * speed.factor(last_probe)
    if args.child == "setup":
        return {"setup_s": setup_s, "setup_raw_s": setup_raw}

    raw, corrected, pending = [], [], []
    failures, errors = [], 0

    def flush():
        """Correct the pending op times by the probes around them."""
        nonlocal last_probe
        probe = speed.measure()
        f = speed.factor(last_probe, probe)
        corrected.extend(x * f for x in pending)
        pending.clear()
        last_probe = probe

    for i, op in enumerate(ops):
        if tracer:
            tracer.current_op = i
        try:
            with tracer.region("bench.op") if tracer else contextlib.nullcontext():
                t = perf_counter()
                out = wl.run(op, ctx)
                dt = perf_counter() - t
        except Exception as exc:  # an op the program fails: count it, go on
            errors += 1
            print(f"op {i} ({op.kind}) failed: {exc!r}", file=sys.stderr)
            continue
        raw.append(dt)
        pending.append(dt)
        if tracer:
            tracer.enabled = False
        bad = wl.check(op, out, ctx)
        if tracer:
            tracer.enabled = True
        if bad:
            failures.append(f"op {i} ({op.kind}): {bad}")
            print(f"check failed: {failures[-1]}", file=sys.stderr)
        if sum(pending) >= PROBE_EVERY_S:
            flush()
    if pending:
        flush()
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "attempted": len(ops),
        "failed": errors + len(failures),
        "correct": not failures,
        "latencies": corrected,
        "raw_latencies": raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.enabled = False
        bad = tracer.closure()
        if bad:
            print(f"trace closure failed: {bad}", file=sys.stderr)
            result["correct"] = False
        result["layers"] = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans_{args.workload}_seed{args.seed}.npz")
        result["spans"] = len(tracer.start)
    return result


# ---------------------------------------------------------------------------
# parent: spawns the children and prints the result
# ---------------------------------------------------------------------------

def spawn(args, kind: str, trace: int, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("LAYERLAB_THREADS", None)
    env.update({k: "1" for k in SINGLE_THREAD})
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(trace), "--child", kind, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {args.workload} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  On a 21-op run it spreads a third as much from run
    to run as the single order statistic does; on large runs the two agree."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    cdf = [betainc(p * (n + 1), (1 - p) * (n + 1), i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def latency_metrics(lat: list[float]) -> dict:
    if len(lat) < 2:
        raise SystemExit("error: fewer than two ops completed")
    return {"ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": 1e3 * hd_quantile(lat, 0.5),
            "op_ms_p90": 1e3 * hd_quantile(lat, 0.9)}


def end_to_end(full: dict, setups: list[float]) -> dict:
    values = {"setup_s": statistics.median(setups), **latency_metrics(full["latencies"]),
              "peak_rss_mb": full["peak_rss_mb"]}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(args, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced child, plus the tracing overhead:
    traced minus untraced op time at the same seed."""
    metrics = {k: {"value": v, "unit": "s" if k.endswith("self_s") else "count"}
               for k, v in traced["layers"].items()}
    untraced, with_spans = sum(plain["latencies"]), sum(traced["latencies"])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (with_spans - untraced) / untraced,
                                     "unit": "%"}
    report = {"workload": args.workload, "seed": args.seed, "spans": traced["spans"],
              "untraced_op_s": untraced, "traced_op_s": with_spans,
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    with open(OUT / f"layers_{args.workload}_seed{args.seed}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        for k in SINGLE_THREAD:
            os.environ[k] = "1"
        os.environ.pop("LAYERLAB_THREADS", None)
        print(json.dumps(child(args)))
        return 0
    if not (ROOT / "src" / "layerlab" / "__init__.py").is_file():
        print(f"error: no layerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.trace == 0:
        children = [spawn(args, "setup", 0, deadline) for _ in range(SETUP_REPEATS - 1)]
        full = spawn(args, "full", 0, deadline)
        children.append(full)
        setups = [c["setup_s"] for c in children]
        raw_setups = [c["setup_raw_s"] for c in children]
        results, metrics = [full], end_to_end(full, setups)
        raw = {"setup_s": statistics.median(raw_setups), **latency_metrics(full["raw_latencies"])}
        print("raw wall clock: " + " ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    else:
        plain = spawn(args, "full", 0, deadline)
        traced = spawn(args, "full", 1, deadline)
        results, metrics = [plain, traced], per_layer(args, plain, traced)
    last = results[-1]
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": last["attempted"], "failed": last["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
