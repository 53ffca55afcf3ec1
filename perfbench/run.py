"""coherework benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dense64 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The library is imported from ``src/`` of
that checkout and driven in-process through its public entry point,
``coherework.cli.main(["run", file])`` (``["self-test"]`` for the selftest
workload), in a closed loop: one caller, one operation at a time. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from a
traced run. The line before it holds the details a reader needs to interpret
them (environment, tail percentile and sample count, failed ratio, report
digest, known-failure probe). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "COHEREWORK_THREADS")

# timed fresh-interpreter imports per untraced run
SETUP_PROBES = 7

# untimed ops for at least this long before timing; the first passes of a
# fresh process were seen to run slower (dense64)
WARMUP_S = 1.0

# timed passes a run holds whatever --seconds says, so every op has a best of
# at least this many samples
MIN_PASSES = 3

# a run stops starting passes after this long whatever --seconds says
HARD_STOP_S = 150.0

CRITERIA = ("01_projection_work_identity", "02_three_step_optimality",
            "03_quasistatic_convergence", "04_entropy_change_bound",
            "05_jarzynski_identity", "06_monte_carlo_soundness",
            "07_single_shot_consistency", "08_correlated_ancilla",
            "09_max_work_fixed_energy", "10_aggregate_and_mutation")


class Pass:
    """Outcome of one pass: per-op wall times, failures and report digests."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.failures: list[str] = []
        self.failed_ops = 0
        self.digests: list[str] = []
        self.criteria: dict[str, float] = {}
        self.wall: float | None = None
        self.elapsed = 0.0

    @property
    def busy(self) -> float:
        """Seconds the caller spent waiting on the program in this pass."""
        return self.wall if self.wall is not None else sum(self.op_seconds)


def _call_main(main, argv):
    """Run the CLI in-process.

    Returns (seconds, exit code or None, error or None, stdout); the error
    names an exception that escaped ``main`` or a nonzero exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code, error = main(argv), None
        except (Exception, SystemExit) as exc:  # the op failed; keep measuring
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return seconds, code, error, out.getvalue()


class ScenarioWorkload:
    """A pass runs every generated scenario file once through `coherework run`."""

    warmup_s = WARMUP_S

    def __init__(self, cli, ops, paths):
        self.cli, self.ops, self.paths = cli, ops, paths
        self.ops_per_pass = len(ops)

    def run_pass(self, stop_after: float | None = None) -> Pass:
        """Run the ops in order; with ``stop_after``, stop once that many
        seconds have gone by (a partial pass, used for warm-up)."""
        p = Pass()
        start = perf_counter()
        for op, path in zip(self.ops, self.paths):
            if stop_after is not None and perf_counter() - start >= stop_after:
                break
            seconds, _, error, text = _call_main(self.cli.main, ["run", path])
            p.op_seconds.append(seconds)
            p.digests.append(hashlib.sha256(text.encode()).hexdigest())
            reason = error
            if reason is None:
                try:
                    reason = checks.check_report(op, json.loads(text))
                except ValueError as exc:
                    reason = f"report is not JSON: {exc}"
            if reason:
                p.failures.append(f"{op.name}: {reason}")
        p.failed_ops = len(p.failures)
        return p


class SelfTestWorkload:
    """A pass is one `coherework self-test`; each acceptance criterion is an op.

    Per-criterion times are the ``elapsed`` the suite measures around each
    criterion, read from ``acceptance.run_all``'s results through a hook that
    adds no timing of its own.
    """

    ops_per_pass = len(CRITERIA)
    # no warm-up: a fresh process's first self-test was not slower than its
    # later ones (5.9 s against 5.5-5.9 s), and a pass is too long to spare
    warmup_s = 0.0

    def __init__(self, cli, acceptance):
        self.cli = cli
        self._results = []
        run_all = acceptance.run_all

        def capture():
            results = run_all()
            self._results = results
            return results

        acceptance.run_all = capture

    def run_pass(self) -> Pass:
        p = Pass()
        self._results = []
        seconds, _, error, text = _call_main(self.cli.main, ["self-test"])
        p.digests.append(hashlib.sha256(text.encode()).hexdigest())
        p.criteria = {r.name: r.elapsed for r in self._results}
        p.op_seconds = (list(p.criteria.values())
                        or [seconds / self.ops_per_pass] * self.ops_per_pass)
        p.failures = checks.check_selftest(text.splitlines())
        if error or not self._results:
            p.failures.append(error or "self-test returned no criterion results")
            p.failed_ops = len(p.op_seconds)
        else:
            p.failed_ops = sum(not r.passed for r in self._results) or (
                1 if p.failures else 0)
        p.wall = seconds
        return p


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class SetupProbe:
    """Wall seconds for a fresh interpreter to import coherework.cli.

    The first probe is untimed (it may compile bytecode). The timed ones are
    spread over the run, one before each pass, so that a single slow moment
    of the machine does not decide their median.
    """

    def __init__(self, wanted: int):
        self.wanted = wanted
        self.samples: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        if wanted:
            self._probe()

    def _probe(self) -> float:
        code = ("import sys, coherework.cli; "
                "sys.exit(0 if coherework.cli.__file__.startswith(sys.argv[1]) else 3)")
        start = perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, env=self.env,
                       check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    def between_passes(self):
        if len(self.samples) < self.wanted:
            self.samples.append(self._probe())

    def finish(self) -> list[float]:
        while len(self.samples) < self.wanted:
            self.between_passes()
        return self.samples


def tail(values: list[float]):
    """(value, percentile) at the highest percentile with ten samples beyond it.

    Nearest rank: the value of rank n - 10 in ascending order has n - 10 of
    the n samples at or below it and ten above it. None below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n


def best_times(passes: list[Pass]) -> list[float]:
    """Each op's fastest wall time over the timed passes, in seconds.

    On a shared host the machine's speed wanders by tens of percent within
    seconds, and that can only add time to an op; an op's best time over a
    run is what the program needed, as ``timeit`` takes the minimum.
    """
    return [min(times) for times in zip(*(p.op_seconds for p in passes))]


def snapshot(tracer: spans.Tracer) -> dict:
    calls, self_s, incl_s = spans.aggregate(tracer.spans)
    return {"calls": calls, "self_s": self_s, "incl_s": incl_s,
            "counts": dict(tracer.counts), "errors": dict(tracer.errors)}


def measure(workload, seconds: float, tracer: spans.Tracer | None, between=lambda: None):
    """Closed loop of whole passes filling ``seconds``.

    A pass starts only if the median pass so far still fits before the
    deadline, so a run ends close to ``seconds`` however long a pass takes;
    at least MIN_PASSES untraced passes run. Untraced passes run
    unmodified library code. With a tracer, untraced and traced passes
    alternate, so the two halves see the same conditions. ``between`` runs
    before each pass, outside every op's timing.
    """
    plain, traced = [], []
    start = perf_counter()
    while True:
        between()
        pass_start = perf_counter()
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                p = workload.run_pass()
            finally:
                tracer.uninstall()
            traced.append((p, snapshot(tracer)))
        else:
            p = workload.run_pass()
            plain.append(p)
        p.elapsed = perf_counter() - pass_start
        elapsed = perf_counter() - start
        typical = statistics.median(q.elapsed for q in plain + [t for t, _ in traced])
        done = (len(plain) >= MIN_PASSES and (tracer is None or traced)
                and elapsed + typical > seconds)
        if done or elapsed >= HARD_STOP_S:
            return plain, traced


def end_to_end_metrics(plain: list[Pass], ops_per_pass: int, setup: list[float]):
    best = best_times(plain)
    t = tail(best) or (max(best), 100.0)  # selftest has ten ops: its slowest
    metrics = {
        "ops_per_s": (ops_per_pass / sum(best), "1/s"),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "op_ms_tail": (t[0] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail": {"percentile": t[1], "samples": len(best)}}


def layer_metrics(plain: list[Pass], traced: list, extra_errors: dict):
    snaps = [s for _, s in traced]
    n = len(snaps)
    total = lambda key, name: sum(s[key].get(name, 0) for s in snaps)
    metrics = {}
    for module, names in spans.TARGETS.items():
        for name in names:
            span = f"{module}.{name}"
            metrics[f"{span}.calls"] = (total("calls", span) / n, "count")
            metrics[f"{span}.self_ms"] = (
                statistics.median(s["self_s"].get(span, 0.0) for s in snaps) * 1e3, "ms")
    metrics["cli.dumps_stable.bytes"] = (total("counts", "cli.dumps_stable.bytes") / n,
                                         "bytes")
    # rates computed from the inputs: work each call was asked to do, over the
    # inclusive time of those calls
    for span, counter, name in (("protocol.simulate", "substeps", "substeps_per_s"),
                                ("fluctuation.sample_trajectories", "samples",
                                 "samples_per_s"),
                                ("singleshot.iid_rate", "classes", "classes_per_s")):
        busy = total("incl_s", span)
        work = total("counts", f"{span}.{counter}")
        metrics[f"{span}.{name}"] = (work / busy if busy > 0 else 0.0, "1/s")
    for criterion in CRITERIA:
        times = [p.criteria.get(criterion, 0.0) for p, _ in traced]
        metrics[f"acceptance.{criterion}.ms"] = (statistics.median(times) * 1e3, "ms")
    for module in spans.ERROR_MODULES:
        for kind in ("typed", "untyped"):
            count = total("errors", (module, kind)) + extra_errors.get((module, kind), 0)
            metrics[f"{module}.errors.{kind}"] = (count, "count")
    busy = lambda passes: statistics.median(p.busy for p in passes)
    metrics["trace.overhead_ratio"] = (busy([p for p, _ in traced]) / busy(plain) - 1.0,
                                       "ratio")
    return metrics


def known_failure_probe(cli, run_dir: Path, tracer: spans.Tracer | None):
    """Run the known-failure reproduction once, untimed and traced if tracing.

    Returns its outcome and the module errors the tracer saw.
    """
    path = run_dir / "known_failure.json"
    path.write_text(json.dumps(workloads.KNOWN_FAILURE), encoding="utf-8")
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        _, code, error, _ = _call_main(cli.main, ["run", str(path)])
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = dict(tracer.errors) if tracer is not None else {}
    return {"scenario": workloads.KNOWN_FAILURE, "exit_code": code, "error": error}, errors


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coherework" / "__init__.py").is_file():
        print(f"perfbench: no coherework sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    env = environment()
    setup = SetupProbe(0 if args.trace else SETUP_PROBES)
    sys.path.insert(0, str(SRC))
    import coherework.cli as cli
    from coherework.errors import CohereworkError

    ops = workloads.generate(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, op in enumerate(ops):
            paths.append(str(run_dir / f"{i:04d}.json"))
            Path(paths[-1]).write_text(json.dumps(op.scenario), encoding="utf-8")
        if args.workload == "selftest":
            import coherework.acceptance as acceptance  # set-up, paid once per process

            workload = SelfTestWorkload(cli, acceptance)
        else:
            workload = ScenarioWorkload(cli, ops, paths)
        # keep the benchmark's own objects (thousands of scenario dicts on
        # qubit_batch) out of the collections the library's ops trigger
        gc.collect()
        gc.freeze()
        warmup = [workload.run_pass(workload.warmup_s)] if workload.warmup_s else []

        tracer = spans.Tracer((CohereworkError, cli.ScenarioError)) if args.trace else None
        plain, traced = measure(workload, args.seconds, tracer, setup.between_passes)

        probe, probe_errors = None, {}
        if args.workload != "selftest":
            probe, probe_errors = known_failure_probe(cli, run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setup_samples = setup.finish()
    all_passes = warmup + plain + [p for p, _ in traced]
    attempted = sum(len(p.op_seconds) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    failed = sum(p.failed_ops for p in all_passes)
    # every pass must give the same report bytes per op; the warm-up pass may
    # be partial, so digests are compared op by op against the first full pass
    reference = plain[0].digests
    nondeterministic = sorted({i for p in all_passes for i, d in enumerate(p.digests)
                               if d != reference[i]})
    digest = hashlib.sha256("".join(reference).encode()).hexdigest()

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "passes": {"warmup": len(warmup), "untraced": len(plain),
                         "traced": len(traced)},
              "untraced_pass_busy_s": [p.busy for p in plain],
              "ops_per_pass": workload.ops_per_pass,
              "failed_ratio": failed / max(attempted, 1),
              "failures": failures[:10],
              "report_sha256": digest,
              "nondeterministic_ops": [ops[i].name if ops else "self-test"
                                       for i in nondeterministic],
              "setup_samples_s": setup_samples}
    if probe is not None:
        detail["known_failure"] = probe
    if tracer is not None:
        metrics = layer_metrics(plain, traced, probe_errors)
        detail["trace_missing_targets"] = tracer.missing
    else:
        metrics, extra = end_to_end_metrics(plain, workload.ops_per_pass, setup_samples)
        detail.update(extra)

    result = {
        "correct": not failures and not nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
