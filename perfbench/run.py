#!/usr/bin/env python3
"""Benchmark of mchords: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: extremal-chains, bound-search, cli-session (see README.md).
The run makes its inputs from --seed, checks every output against the
oracles, and keeps running whole rounds of the same ops until S seconds
have passed.  The first round is a warm-up whose outputs are checked
against the oracles; every later round must repeat them bit for bit.

--trace 0 prints the end-to-end metrics (setup_s, run_s, op_p50_ms,
peak_rss_mib).  --trace 1 runs untraced rounds, then traced ones, and
prints the per-layer metrics from the spans' self times plus
trace.overhead_s; the spans go to perfbench/out/trace-<workload>-<seed>.jsonl.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Each result is also appended, with nproc, versions and git
SHA, to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, so the numbers measure
# the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = {"extremal-chains": "extremal_chains",
             "bound-search": "bound_search",
             "cli-session": "cli_session"}
SETUP_REPEATS = 3
CALIBRATION_VECTORS = 1 << 18
CLI_COMMANDS = ("gauge", "check", "check-wrt", "involute", "lm", "sweep",
                "hexagon", "reuleaux", "convexify", "bisector", "maxmin",
                "hypercube", "verify-all")


class SetupError(Exception):
    pass


class Raised(str):
    """The output of an op that raised: its exception, as text."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it")
    return ap.parse_args(argv)


def import_library():
    """Import mchords from this checkout's src/; returns the seconds the
    import took."""
    if not os.path.isfile(os.path.join(SRC, "mchords", "__init__.py")):
        raise SetupError("no mchords sources under %s" % SRC)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mchords
    took = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(mchords.__file__))) != SRC:
        raise SetupError("mchords imported from %s, not from %s"
                         % (mchords.__file__, SRC))
    return took


def setup_once(workload, seed, tracer):
    """(seconds, plan): the mchords import plus the workload's build."""
    took = import_library()
    module = importlib.import_module(WORKLOADS[workload])
    t0 = time.perf_counter()
    plan = module.build(seed, tracer)
    return took + time.perf_counter() - t0, plan


def setup_samples(args):
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError("set-up process failed: %s" % proc.stderr[-2000:])
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Runner:
    """Runs rounds of a plan and keeps what the metrics need."""

    def __init__(self, plan):
        # common imports numpy, so it loads only after the timed set-up
        from common import Failure, digest
        self.plan = plan
        self.Failure = Failure
        self.digest = digest
        self.reference = None  # per op: (digest, failed)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def problem(self, text):
        if len(self.problems) < 40:
            self.problems.append(text)

    def round(self, tracer, label):
        """Run every op once; returns the op times in seconds."""
        times = []
        first = self.reference is None
        ref = []
        for k, op in enumerate(self.plan.ops):
            tracer.begin_op("%s:%s" % (label, op.id))
            t0 = time.perf_counter()
            try:
                out = op.run(tracer)
            except Exception as exc:  # a raising op is a failed op
                out = Raised("%s: %s" % (type(exc).__name__, exc))
            times.append(time.perf_counter() - t0)
            if op.after and not isinstance(out, Raised):
                op.after(tracer, out)
            tracer.end_op()
            key = self.digest(out)
            if first:
                failed = self.judge(op, out)
                ref.append((key, failed))
            else:
                rkey, failed = self.reference[k]
                if key != rkey:
                    self.correct = False
                    self.problem("%s: output differs from the first round"
                                 % op.id)
                    failed = self.judge(op, out)
            self.attempted += 1
            self.failed += failed
        if first:
            self.reference = ref
        return times

    def judge(self, op, out):
        """True when the op failed; an unexpected failure also makes the
        run incorrect."""
        try:
            if isinstance(out, Raised):
                raise self.Failure("raised " + out)
            op.check(out)
            return False
        except self.Failure as exc:
            msg = str(exc)
        except Exception as exc:  # a crashing check is a failed check
            msg = "check raised %s: %s" % (type(exc).__name__, exc)
        if op.known_fault:
            self.problem("%s: failed (known fault: %s): %s"
                         % (op.id, op.known_fault, msg))
        else:
            self.correct = False
            self.problem("%s: FAILED: %s" % (op.id, msg))
        return True


def rounds_until(runner, tracer, label, deadline, minimum):
    totals, ops = [], []
    while len(totals) < minimum or time.perf_counter() < deadline:
        times = runner.round(tracer, "%s%d" % (label, len(totals)))
        totals.append(sum(times))
        ops.extend(times)
    return totals, ops


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(tracer, traced_rounds, calibration):
    """Per-layer metrics from the spans of the traced rounds; the
    tracemalloc peaks come from the warm-up round."""
    spans = tracer.self_times()

    def agg(name):
        rows = [(s, a) for s, a, op in spans.get(name, [])
                if (op or "").startswith("traced")]
        return sum(s for s, _ in rows), rows

    m = {}
    per = float(traced_rounds)
    s, rows = agg("curvekit.check_increasing_chords")
    npts = [a["points"] for _, a in rows]
    pairs = sum(n * (n - 1) / 2.0 for n in npts)
    m["curvekit.check_increasing_chords.s"] = metric(s / per, "s")
    m["curvekit.check_increasing_chords.calls"] = metric(len(rows) / per, "count")
    m["curvekit.check_increasing_chords.points"] = metric(sum(npts) / per, "count")
    m["curvekit.check_increasing_chords.mpairs_per_s"] = metric(
        pairs / s / 1e6 if s > 0 else 0.0, "Mpairs/s")
    peaks = [a.get("peak_alloc_b", 0) for _, a, _ in
             spans.get("curvekit.check_increasing_chords", [])]
    m["curvekit.check_increasing_chords.peak_alloc_mib"] = metric(
        max(peaks or [0]) / 2.0 ** 20, "MiB")
    for name in ("curvekit.arclength", "chordbound.inscribed_hexagon",
                 "chordbound.reuleaux", "chordbound.reuleaux_two_sides",
                 "chordbound.lm"):
        m[name + ".s"] = metric(agg(name)[0] / per, "s")
    s, rows = agg("chordbound.lm_sweep")
    m["chordbound.lm_sweep.s"] = metric(s / per, "s")
    m["chordbound.lm_sweep.directions_per_s"] = metric(
        sum(a["directions"] for _, a in rows) / s if s > 0 else 0.0, "1/s")
    s, rows = agg("chordbound.maxmin_search")
    evals = sum(a["evaluations"] for _, a in rows)
    m["chordbound.maxmin_search.s"] = metric(s / per, "s")
    m["chordbound.maxmin_search.evaluations"] = metric(evals / per, "count")
    m["chordbound.maxmin_search.evals_per_s"] = metric(
        evals / s if s > 0 else 0.0, "1/s")
    for label, rate in calibration.items():
        m["normplane.gauge_many.%s.melem_per_s" % label] = metric(rate, "Melem/s")
    for cmd in CLI_COMMANDS:
        m["cli.%s.s" % cmd] = metric(agg("cli." + cmd)[0] / per, "s")
    return m


def calibrate(tracer, plan):
    """Melem/s of gauge_many on a fixed batch against the plan's largest
    and smallest disks (median of 5 calls each)."""
    import numpy as np
    from mchords import gauge_many
    X = np.random.default_rng(0).normal(0.0, 1.0, (CALIBRATION_VECTORS, 2))
    by_size = sorted(plan.disks, key=lambda d: len(d.vertices))
    out = {}
    for label, disk in (("large_m", by_size[-1]), ("small_m", by_size[0])):
        tracer.begin_op("calibration:" + label)
        for _ in range(5):
            tracer.call("normplane.gauge_many", gauge_many, disk, X)
        tracer.end_op()
        first = len(tracer.spans) - 6
        took = [end - start for _, start, end, _, _, _ in tracer.spans[first + 1:]]
        out[label] = CALIBRATION_VECTORS / statistics.median(took) / 1e6
    return out


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            took, plan = setup_once(args.workload, args.seed, NullTracer())
            if plan.cleanup:
                plan.cleanup()
            print(json.dumps({"setup_s": took}))
            return 0
        os.makedirs(OUT, exist_ok=True)
        setups = setup_samples(args)
        tracer = Tracer() if args.trace else NullTracer()
        _, plan = setup_once(args.workload, args.seed, tracer)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        import selfcheck
        oracle_ok = all(ok for _, ok, _ in selfcheck.checks())
        runner = Runner(plan)
        if not oracle_ok:
            runner.correct = False
            runner.problem("oracle self-check failed")
        null = NullTracer()
        start = time.perf_counter()
        # lazy imports and caches; checks outputs; in a traced run also
        # the tracemalloc peaks, which would slow the timed spans
        tracer.memory = bool(args.trace)
        runner.round(tracer, "warmup")
        tracer.memory = False
        if args.trace:
            half = start + 0.5 * args.seconds
            plain, _ = rounds_until(runner, null, "plain", half, 1)
            traced, _ = rounds_until(runner, tracer, "traced",
                                     start + args.seconds, 1)
            metrics = layer_metrics(tracer, len(traced), calibrate(tracer, plan))
            metrics["trace.overhead_s"] = metric(
                statistics.median(traced) - statistics.median(plain), "s")
            tracer.dump(os.path.join(OUT, "trace-%s-%d.jsonl"
                                     % (args.workload, args.seed)))
        else:
            totals, ops = rounds_until(runner, null, "round",
                                       start + args.seconds, 2)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "run_s": metric(statistics.median(totals), "s"),
                "op_p50_ms": metric(1e3 * statistics.median(ops), "ms"),
                "peak_rss_mib": metric(rss, "MiB"),
            }
    finally:
        if plan.cleanup:
            plan.cleanup()
    for line in runner.problems:
        print(line, file=sys.stderr)
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "setup_samples_s": setups,
              "result": result}
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("# env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
