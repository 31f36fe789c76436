"""arl benchmark: run one workload for a fixed time and report its metrics.

    python3 benchmark/run.py --workload bilevel_softmax --seed 0 --seconds 20 --trace 0

Run it from the repository root. BENCHMARK.json declares the workloads and
the metrics with their units; workloads.py builds the seeded operations and
checks their outputs. One run is one process and one client in a closed
loop: each operation starts when the previous one ends.

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation. ``--trace 1`` reports the per-layer metrics: it first runs
untraced (timing only ``meta.arl_train``), then wraps the arl module
functions with spans.Tracer and runs again. Times are in reference seconds:
wall time scaled by a calibration kernel timed around each round (see
calibrate.py); the report and the record keep the wall times too.

A report for people comes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The artifacts, a full record of the run and the spans of the
first traced round go to ``.perfbench_out/``. Exit code 0 when every output checked out, 1 when one
did not, 2 when the repository sources are not there.
"""

import os

# one BLAS thread, set before numpy loads (the set-up probes inherit it)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SRC = Path("src")
OUT = Path(".perfbench_out")
SPEC = Path("BENCHMARK.json")
SETUP_PROBES = 11
UNTRACED_SHARE = 0.4  # share of --seconds a trace run spends untraced

# per-layer groups named after what they count rather than after the function
ALIASES = {
    "model.forward": "model._forward_cached",
    "losses.tempered_solve": "losses._tempered_softmax_batch",
}
SOLVE_PASS = "losses._exp_t_neg_args"
US_PER_ITER = "meta.arl_train.us_per_iter."


class Ledger:
    """Attempts, failures and the first outcome of each operation of a round.

    Every later run of an operation must reproduce its first outcome byte
    for byte; the inputs are the same, so anything else is a failure.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures = []
        self.reference = [None] * len(ops)

    def run_round(self, arl, call):
        """Run each operation once; return the seconds spent inside them."""
        busy = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            work_dir = OUT / "work" / op.name
            try:
                start = time.perf_counter()
                result = call(arl, op, work_dir)
                busy += time.perf_counter() - start
                outcome = workloads.check(arl, op, result, work_dir)
            except Exception:  # a raising operation is counted, and the loop goes on
                self.failures.append(f"{op.name} raised:\n{traceback.format_exc()}")
                continue
            self._compare(i, op, outcome)
        return busy

    def _compare(self, i, op, outcome):
        reference = self.reference[i]
        if outcome.problems:
            self.failures.append(f"{op.name}: {'; '.join(outcome.problems)}")
        elif reference is None:
            self.reference[i] = outcome
        elif (outcome.digests, outcome.accuracy) != (reference.digests, reference.accuracy):
            self.failures.append(f"{op.name}: outputs differ from the first run of the same inputs")

    @property
    def failed(self):
        return len(self.failures)


# busy: wall seconds inside the operations; calibration: mean of the kernel
# passes around them; reference: busy scaled to the reference machine speed
Round = namedtuple("Round", "busy calibration reference")


def _round(kernel, busy, calibration):
    return Round(busy, calibration, busy * kernel.nominal_s / calibration)


def timed_rounds(ledger, arl, call, seconds, kernel, after_round=None):
    """Repeat the round until ``seconds`` have passed (at least once).

    A calibration pass runs before the first round and after every round,
    so each round sits between two passes. ``after_round(elapsed)`` runs
    between rounds. Neither counts towards ``seconds`` nor in the CPU/wall
    ratio. Returns the Rounds and the CPU/wall ratio of the rounds.
    """
    rounds = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    before = kernel.seconds()
    side_wall, side_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    while not rounds or time.perf_counter() - wall0 - side_wall < seconds:
        busy = ledger.run_round(arl, call)
        start, cpu = time.perf_counter(), time.process_time()
        after = kernel.seconds()
        rounds.append(_round(kernel, busy, 0.5 * (before + after)))
        before = after
        if after_round is not None:
            after_round(start - wall0 - side_wall)
        side_wall += time.perf_counter() - start
        side_cpu += time.process_time() - cpu
    wall = time.perf_counter() - wall0 - side_wall
    return rounds, (time.process_time() - cpu0 - side_cpu) / wall


def probe_setup(workload, seed, kernel):
    """Set-up of ``workload`` in a fresh interpreter (see probe.py), as a Round."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
    before = kernel.seconds()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return _round(kernel, float(done.stdout.split()[-1]), 0.5 * (before + kernel.seconds()))


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k <= (len(ordered) - 1) / 2:
        return None
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def timing_line(name, samples, unit="s"):
    med = statistics.median(samples)
    high = tail(samples)
    high_text = (f"p{high[0]:.0f} {high[1]:.4f} {unit}" if high
                 else "no percentile above the median has 10 samples beyond it")
    return f"{name}: median {med:.4f} {unit}, {high_text} (n={len(samples)})"


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC / "arl"),
        "seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end(ledger, ops, setup, rounds):
    iters = sum(op.iterations for op in ops)
    outcomes = [o for o in ledger.reference if o is not None]
    return {
        "setup_s": statistics.median(r.reference for r in setup),
        "run_s": statistics.median(r.reference for r in rounds),
        "iters_per_s": statistics.median(iters / r.reference for r in rounds),
        "test_acc": statistics.fmean(o.accuracy for o in outcomes) if outcomes else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def timed_arl_train(inner, records):
    """``meta.arl_train`` that appends (variant, iterations, seconds) per call."""

    def timed(dataset, meta_set, test_set, config, *args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(dataset, meta_set, test_set, config, *args, **kwargs)
        finally:
            records.append((config.variant, config.max_iters, time.perf_counter() - start))

    return timed


def traced_run(ledger, arl, ops, seconds, kernel, spans_path):
    """Untraced then traced rounds; returns the per-layer inputs and problems.

    Times from both phases are scaled to reference seconds by the
    calibration of their round; the record keeps the wall times as well.
    """
    records, ends = [], []  # arl_train calls; per round, the index after its last call
    original = arl.meta.arl_train
    arl.meta.arl_train = timed_arl_train(original, records)
    untraced, ratio_a = timed_rounds(ledger, arl, workloads.call, seconds * UNTRACED_SHARE, kernel,
                                     lambda _elapsed: ends.append(len(records)))
    arl.meta.arl_train = original

    tracer = spans.Tracer()
    tracer.install()
    per_round, kept = [], []

    def collect(_elapsed):
        batch = tracer.take()
        if not kept:
            kept.append(batch)  # the first traced round, written out at the end
        per_round.append(tracer.aggregate(batch))

    traced, ratio_b = timed_rounds(
        ledger, arl, tracer.wrap("bench.operation", workloads.call),
        seconds * (1.0 - UNTRACED_SHARE), kernel, collect,
    )
    tracer.write_csv(kept[0], spans_path)
    counts = [{name: entry[0] for name, entry in r.items()} for r in per_round]
    problems = []
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced rounds of the same inputs")
    for stats, r in zip(per_round, traced):
        for entry in stats.values():
            entry[1] *= kernel.nominal_s / r.calibration
            entry[2] *= kernel.nominal_s / r.calibration

    wall_us, ref_us = {}, {}
    start = 0
    for r, end in zip(untraced, ends):
        for variant, iters, secs in records[start:end]:
            wall_us.setdefault(variant, []).append(secs / iters * 1e6)
            ref_us.setdefault(variant, []).append(secs / iters * 1e6 * kernel.nominal_s / r.calibration)
        start = end
    extras = {
        "trace.overhead_frac": (statistics.median(r.reference for r in traced)
                                / statistics.median(r.reference for r in untraced) - 1.0),
        "bench.cpu_wall_ratio": statistics.fmean([ratio_a, ratio_b]),
        **{US_PER_ITER + v: statistics.median(us) for v, us in ref_us.items()},
    }
    record = {
        "untraced": [r._asdict() for r in untraced],
        "traced": [r._asdict() for r in traced],
        "us_per_iter_wall": wall_us,
        "us_per_iter_reference": ref_us,
        "counts": counts[0],
        "counts_sha256": hashlib.sha256(json.dumps(counts[0], sort_keys=True).encode()).hexdigest(),
    }
    return tracer, per_round, extras, record, problems


def layer_values(names, tracer, per_round, ops, extras):
    """Per-layer metric values; a function missing from arl reads as absent (0)."""
    n_ops, iters = len(ops), sum(op.iterations for op in ops)
    first = per_round[0]
    values, absent = {}, set()

    def calls(fn):
        return first.get(fn, (0, 0.0, 0.0))[0]

    for name in names:
        if name in extras:
            values[name] = extras[name]
            continue
        if name.startswith(US_PER_ITER):  # a variant this workload does not train
            values[name] = 0.0
            continue
        group, stat = name.rsplit(".", 1)
        fn = ALIASES.get(group, group)
        needed = [fn, SOLVE_PASS] if stat == "passes_per_solve" else [fn]
        missing = [f for f in needed if f not in tracer.wrapped]
        if missing:
            absent.update(missing)
            values[name] = 0.0
        elif stat == "calls":
            values[name] = calls(fn) / n_ops
        elif stat == "per_iter":
            values[name] = calls(fn) / iters
        elif stat == "passes_per_solve":
            values[name] = calls(SOLVE_PASS) / calls(fn) if calls(fn) else 0.0
        elif stat in ("self_s", "total_s"):
            column = 1 if stat == "self_s" else 2
            values[name] = statistics.median(r.get(fn, (0, 0.0, 0.0))[column] for r in per_round) / n_ops
        else:
            raise ValueError(f"per-layer metric {name!r} has no statistic {stat!r}")
    return values, sorted(absent)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "arl" / "__init__.py").is_file() or not SPEC.is_file():
        print("run from the repository root: src/arl or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    ops = workloads.make_round(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    sys.path.insert(0, str(SRC.resolve()))
    import arl.cli  # noqa: F401  binds the package with all its modules

    record = {"args": vars(args), "environment": environment(args.seed)}
    kernel = calibrate.Kernel(workloads.CALIBRATION[args.workload])
    ledger = Ledger(ops)
    ledger.run_round(arl, workloads.call)  # warm-up; fixes the reference outputs
    problems = []
    if args.trace:
        tracer, per_round, extras, trace_record, problems = traced_run(
            ledger, arl, ops, args.seconds, kernel, OUT / f"{tag}.spans.csv")
        declared = spec["per_layer"]
        values, absent = layer_values([m["name"] for m in declared], tracer, per_round, ops, extras)
        record.update(trace_record, absent=absent)
    else:
        # import-bound set-up tracks the small kernel; the probes are spread
        # over the run so that they see the same machine as the rounds (the
        # import above has already written the bytecode cache they read)
        setup_kernel = calibrate.Kernel("small")
        setup = []

        def probe_due(elapsed):
            due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / args.seconds))
            while len(setup) < due:
                setup.append(probe_setup(args.workload, args.seed, setup_kernel))

        rounds, ratio = timed_rounds(ledger, arl, workloads.call, args.seconds, kernel, probe_due)
        probe_due(args.seconds)
        declared = spec["end_to_end"]
        values = end_to_end(ledger, ops, setup, rounds)
        record.update(setup=[r._asdict() for r in setup], rounds=[r._asdict() for r in rounds],
                      cpu_wall_ratio=ratio)

    correct = ledger.failed == 0 and not problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record.update(
        operations=[op.name for op in ops],
        digests={op.name: o.digests for op, o in zip(ops, ledger.reference) if o},
        failures=ledger.failures + problems,
        metrics=metrics,
    )
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    report(args, ops, ledger, record, problems)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def report(args, ops, ledger, record, problems):
    env = record["environment"]
    print(f"arl benchmark: {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s; " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "seed"))
    print(f"round: {', '.join(op.name for op in ops)}; "
          f"{sum(op.iterations for op in ops)} iterations")
    for name, digests in record["digests"].items():
        print(f"  {name}: " + ", ".join(f"{f} sha256 {d[:16]}" for f, d in digests.items()))
    if args.trace:
        for phase in ("untraced", "traced"):
            print(timing_line(f"{phase} round wall time", [r["busy"] for r in record[phase]]))
        print(timing_line("calibration pass", [r["calibration"] for r in record["untraced"] + record["traced"]]))
        for variant, us in record["us_per_iter_wall"].items():
            ref = record["us_per_iter_reference"][variant]
            print(f"arl_train {variant}: {timing_line('wall', us, 'us/iter')}; "
                  f"reference median {statistics.median(ref):.0f} us/iter")
        print(f"call counts sha256 {record['counts_sha256']}")
        if record["absent"]:
            print(f"absent (reported as 0): {', '.join(record['absent'])}")
    else:
        for name, key in (("setup", "setup"), ("round", "rounds")):
            for field in Round._fields:
                print(timing_line(f"{name} {field}", [r[field] for r in record[key]]))
        print(f"cpu/wall {record['cpu_wall_ratio']:.3f}")
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed "
          f"(ops_failed_frac {ledger.failed / ledger.attempted:.4f})")
    for failure in ledger.failures + problems:
        print(f"FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
