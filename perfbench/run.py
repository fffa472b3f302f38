"""threshcast benchmark: drive `threshcast.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload exact|block|policy-tree --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from `src/`.
One process, one client, closed loop: ops run back to back in rotations
of the workload's fixed mix (see workloads.py).  A run makes
round(--seconds / rotation_s) whole rotations, rotation_s being the
workload's wall time per rotation on the reference core, so every run
of a workload times the same ops whatever the host's speed.  Each op's
stdout is captured and checked by an oracle outside the timed interval,
and garbage from earlier ops is collected before each op starts, as it
would be in a fresh CLI process.

Times are reported in reference seconds.  On a shared host the core's
speed drifts, by up to two times within a minute, which would hide a
regression well beyond any bound.  So right before and right after each
op (and each set-up) the run times a fixed piece of pure-Python work
outside the program, the reference kernel; an op's time is scaled by
REFERENCE_S over the mean of those two probes, which is about the time
the op would have taken on a core that runs the kernel in REFERENCE_S.
The correction is partial: ops with large working sets slow down more
than the kernel on a busy host (README.md gives the figures).

Op costs within a mix span two orders of magnitude, so a single order
statistic jumps between neighbouring ops of very different cost: the
median latency is estimated by the interquartile mean of the op times.
Bits per instance cover the whole run and the stdout digest the first
rotation; both are the same for the same seed.

`--trace 0` prints the end-to-end metrics.  `--trace 1` first runs
rotation 0 untraced twice, timing the second, then re-imports the
package, wraps the calls into each module (tracing.py) and runs traced
rotations; it prints the per-layer metrics, per rotation, and the
tracing overhead.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # samples beyond the tail percentile
# reference_kernel() time on an idle core of a 2-core x86-64 host, Python 3.11
REFERENCE_S = 0.005
# kernel runs per probe; a probe is their mean, not their median, because
# the time slices the host withholds from a run are what slows the ops
PROBE_RUNS = 3


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work outside the program."""
    t0 = perf_counter()
    d = {}
    for i in range(20000):
        d[i * 7 % 1009, i] = i * 0.5
    sum(d.values())
    return perf_counter() - t0


class Speed:
    """Probes of the reference kernel, taken around every timed interval."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> float:
        k = statistics.fmean(reference_kernel() for _ in range(PROBE_RUNS))
        self.samples.append(k)
        return k

    def timed(self, fn, *args):
        """(result, reference seconds) of fn(*args).  The probe after one
        call also serves as the probe before the next."""
        before = self.samples[-1] if self.samples else self.probe()
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        after = self.probe()
        return result, wall * REFERENCE_S / ((before + after) / 2)

    def slowdown(self) -> float:
        """How many times longer than REFERENCE_S the kernel took, over the run."""
        return statistics.median(self.samples) / REFERENCE_S


def fresh_import():
    """Import the package from scratch, dropping any earlier copy and its caches."""
    for name in [m for m in sys.modules if m == "threshcast" or m.startswith("threshcast.")]:
        del sys.modules[name]
    cli = importlib.import_module("threshcast.cli")
    cli.build_parser()
    return cli


def run_op(cli, op: wl.Op, tracer: Tracer | None = None) -> tuple[int, str]:
    """Run one op; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = cli.main(list(op.argv))
        else:
            rc = tracer.span("cli.main", cli.main, list(op.argv))
    return rc, buf.getvalue()


def judge(op: wl.Op, rc: int, text: str, tc) -> wl.Outcome:
    if rc != 0:
        return wl.Outcome(False, why=f"exit code {rc}")
    try:
        return op.check(text, tc)
    except (KeyError, ValueError, IndexError) as e:  # malformed output
        return wl.Outcome(False, why=f"unreadable output: {e!r}")


def setup_once(ops: list[wl.Op]) -> tuple[object, int]:
    """Import, build the parser and run the warm-up ops; returns the
    package's cli module and the number of failed warm-ups."""
    cli = fresh_import()
    results = [run_op(cli, op) for op in ops]
    tc = sys.modules["threshcast"]
    return cli, sum(not judge(op, rc, text, tc).ok for op, (rc, text) in zip(ops, results))


def setup(workload: wl.Workload, speed: Speed) -> tuple[object, float, int, int]:
    """Set up SETUP_REPEATS times; returns the last package, the median
    set-up time in reference seconds, and the attempted and failed
    warm-up op counts."""
    times = []
    failed = 0
    ops = wl.warmup_ops(workload)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (cli, bad), ref = speed.timed(setup_once, ops)
        times.append(ref)
        failed += bad
    return cli, statistics.median(times), SETUP_REPEATS * len(ops), failed


class Loop:
    """Runs rotations and keeps the per-op records the metrics need."""

    def __init__(self, workload: wl.Workload, seed: int, cli, speed: Speed, tracer: Tracer | None = None):
        self.workload, self.seed, self.cli, self.speed, self.tracer = workload, seed, cli, speed, tracer
        self.latencies: list[float] = []  # reference seconds per op
        self.rotation_seconds: list[float] = []  # reference seconds per rotation
        self.failed = 0
        self.failures: list[str] = []
        self.bits = [0.0, 0.0]  # bits, instances
        self.digest = hashlib.sha256()  # stdout of the first rotation
        self.stdout_bytes = 0

    def run_rotation(self, index: int) -> None:
        tc = sys.modules["threshcast"]
        spent = 0.0
        for op in wl.rotation_ops(self.workload, self.seed, index):
            gc.collect()
            if self.tracer is not None:
                self.tracer.begin_op(len(self.latencies))
            (rc, text), seconds = self.speed.timed(run_op, self.cli, op, self.tracer)
            if self.tracer is not None:
                self.tracer.end_op()
            spent += seconds
            self.latencies.append(seconds)
            self.stdout_bytes += len(text.encode())
            outcome = judge(op, rc, text, tc)
            if not outcome.ok:
                self.failed += 1
                self.failures.append(f"{op.kind} {' '.join(op.argv[:1] + op.argv[3:])}: {outcome.why}")
            self.bits[0] += outcome.bits
            self.bits[1] += outcome.instances
            if index == 0:
                self.digest.update(text.encode())
        self.rotation_seconds.append(spent)

    def run(self, rotations: int) -> None:
        for index in range(rotations):
            self.run_rotation(index)


def interquartile_mean(latencies: list[float]) -> float:
    """Mean of the samples from the 25th to the 75th percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    lo = n // 4
    return statistics.fmean(ordered[lo:max(lo + 1, n - n // 4)])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def environment() -> str:
    import numpy

    return f"python {platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "threshcast" / "__init__.py").is_file():
        print(f"error: no threshcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = wl.WORKLOADS[args.workload]
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {environment()}")

    rotations = max(1, round(args.seconds / workload.rotation_s))
    speed = Speed()
    cli, setup_s, setup_attempted, setup_failed = setup(workload, speed)
    start = perf_counter()
    if args.trace:
        # rotation 0 runs three times: untraced to grow the heap (the first
        # rotation of a process pays for that), untraced again to be timed,
        # and traced, so that the overhead compares like with like
        Loop(workload, args.seed, cli, speed).run_rotation(0)
        untraced = Loop(workload, args.seed, cli, speed)
        untraced.run_rotation(0)
        tracer = Tracer()
        cli = fresh_import()
        tracer.install({m: sys.modules[f"threshcast.{m}"] for m in ("cli", "dp", "huffman", "sim", "verify")})
        loop = Loop(workload, args.seed, cli, speed, tracer)
        loop.run(max(1, rotations - 2))
        tracer.counts["cli.stdout_bytes"] = loop.stdout_bytes
        metrics = layer_metrics(tracer, len(loop.rotation_seconds), speed.slowdown())
        traced_s, untraced_s = loop.rotation_seconds[0], untraced.rotation_seconds[0]
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        print(f"traced rotations={len(loop.rotation_seconds)} spans={len(tracer.name)} overhead: rotation 0 took "
              f"{traced_s:.4f} reference s traced, {untraced_s:.4f} untraced")
        shares = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_share")}
        print("self-time shares: " + ", ".join(f"{k.split('.')[0]} {v:.3f}" for k, v in
                                               sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        loop = Loop(workload, args.seed, cli, speed)
        loop.run(rotations)
        ops = len(loop.latencies)
        pct, tail_s = tail(loop.latencies)
        bits, instances = loop.bits
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops / sum(loop.latencies), "1/s"),
            "latency_p50_s": (interquartile_mean(loop.latencies), "s"),
            "latency_tail_s": (tail_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "bits_per_instance": (bits / instances, "bit"),
        }
        print(f"rotations={len(loop.rotation_seconds)} ops={ops} latency_tail=p{pct:.2f} over {ops} samples")
        print(f"loop {perf_counter() - start:.3f} wall s; kernel slowdown {speed.slowdown():.4f} "
              f"(median of {len(speed.samples)} probes)")
        print("rotation reference seconds=" + " ".join(f"{t:.3f}" for t in loop.rotation_seconds))

    loops = [untraced, loop] if args.trace else [loop]
    attempted = sum(len(lp.latencies) for lp in loops) + setup_attempted
    failed = sum(lp.failed for lp in loops) + setup_failed
    print(f"failed_ops_ratio={failed / attempted:.6g} ({failed} of {attempted}, "
          f"{setup_failed} in set-up)")
    for line in [f for lp in loops for f in lp.failures][:10]:
        print(f"failed: {line}")
    print(f"stdout_sha256 (first rotation)={loop.digest.hexdigest()}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
