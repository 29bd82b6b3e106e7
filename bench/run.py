"""Benchmark of the bogopath package: oracle-checked workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload kl_exp_quadratic --seed 0 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload in this one process.
Each repetition is one operation; it fails if it raises or misses its oracle
check.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it record the environment and the repetitions.  A traced
run also writes its spans to bench/traces/<workload>-seed<seed>.jsonl.

End-to-end metrics, from untraced repetitions only:

* setup_s - median over several set-ups, spread over the run, of importing
  the package (timed in a fresh interpreter) plus the median of building the
  workload's operators;
* wall_s - median time of one repetition that passes its oracle check;
* tts_s - time to a relative standard error of 1e-3, the median over
  repetitions of wall x (rel_std_error / 1e-3)^2; equal to wall_s for the
  deterministic workload;
* peak_mem_mb - peak memory allocated by one repetition (tracemalloc, which
  numpy reports its buffers to), measured on the untimed warm-up repetition.

BLAS is pinned to one thread in this process, so the ``threads`` argument of
``mc_columns`` is the only source of parallelism.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "bogopath" / "__init__.py").is_file():
    sys.exit(f"bench: no package source at {ROOT / 'src' / 'bogopath'}; "
             "run from the root of a bogopath checkout")

# must precede the first numpy import, here or in a module imported below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import LAYER_METRICS, Tracer, instrument, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS, Outcome, determinism_check  # noqa: E402

SETUP_REPEATS = 5
TRACE_DIR = ROOT / "bench" / "traces"
TARGET_REL_SE = 1e-3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "tts_s": "s", "peak_mem_mb": "MB"}

_IMPORT_CHILD = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import bogopath\n"
    "from bogopath import (dynamics, equilibrium, functionals, kernel, oracle,\n"
    "                      potentials, quadrature, sampler, trajectories)\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def rep_seed(seed: int, rep: int) -> int:
    """Philox seed of repetition ``rep``: distinct streams, all fixed by ``seed``."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1, np.uint64)[0])


def git_commit() -> str | None:
    """The checked-out commit; None outside a git repository or without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, seconds: int, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Run:
    """Repetitions of one workload and their operation counts."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.imports: list[float] = []
        self.builds: list[float] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: {self.wl.name}: {what} failed", file=sys.stderr)

    def attempt(self, seed: int, tracer: Tracer | None = None) -> tuple[Outcome | None, float]:
        """One repetition, timed; an exception or a missed oracle check is a failure."""
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = self.wl.rep(seed)
            else:
                with instrument(tracer), tracer.span("bench.rep"):
                    outcome = self.wl.rep(seed)
        except Exception:  # a failing repetition is counted, and the run goes on
            traceback.print_exc()
            outcome = None
        elapsed = time.perf_counter() - start
        self.operation(outcome is not None and outcome.passed,
                       f"repetition with seed {seed} ({outcome})")
        return outcome, elapsed

    def setup(self) -> float:
        """One set-up: a fresh interpreter's import, then the workload's build."""
        start = time.perf_counter()
        self.imports.append(import_seconds())
        build_start = time.perf_counter()
        self.wl.build()
        self.builds.append(time.perf_counter() - build_start)
        return time.perf_counter() - start

    def measure(self, seconds: float, trace: bool) -> dict:
        # the first launch of an interpreter also fills the file cache; not timed
        import_seconds()
        self.setup()
        self.operation(determinism_check(self.seed), "thread-count determinism check")

        # warm-up: untimed, so lazy set-up and first-touch costs stay out of
        # wall_s; it repeats the first repetition's stream, adding no new sample
        tracemalloc.start()
        try:
            self.attempt(rep_seed(self.seed, 1))
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

        tracer = Tracer() if trace else None
        walls, traced_walls, tts = [], [], []
        rep, last = 0, 0.0
        deadline = time.perf_counter() + seconds
        # the other set-ups are spread evenly over the run, so that setup_s
        # samples the machine over the same window as wall_s; the time they
        # take extends the deadline
        while rep == 0 or time.perf_counter() + last <= deadline:
            rep += 1
            start = time.perf_counter()
            seed = rep_seed(self.seed, rep)
            # traced runs pair each repetition with an untraced one on the same
            # stream, alternating which goes first
            modes = [None] if tracer is None else ([None, tracer] if rep % 2 else [tracer, None])
            results = {}
            for mode in modes:
                outcome, elapsed = self.attempt(seed, mode)
                results[mode is not None] = outcome
                if outcome is not None and outcome.passed:
                    (walls if mode is None else traced_walls).append(elapsed)
                    if mode is None:
                        factor = 1.0 if outcome.rel_se is None else (outcome.rel_se / TARGET_REL_SE) ** 2
                        tts.append(elapsed * factor)
            if tracer is not None and None not in results.values():
                self.operation(results[True].estimates == results[False].estimates,
                               f"traced and untraced estimates agree (seed {seed})")
            last = time.perf_counter() - start
            due = deadline - seconds * (1 - len(self.builds) / SETUP_REPEATS)
            if len(self.builds) < SETUP_REPEATS and time.perf_counter() >= due:
                deadline += self.setup()
        while len(self.builds) < SETUP_REPEATS:
            self.setup()
        setup_s = statistics.median(self.imports) + statistics.median(self.builds)

        self.info = {
            "workload": self.wl.name, "seed": self.seed, "trace": trace,
            "threads": self.wl.threads, "sizes": self.wl.sizes,
            "reps_timed": len(walls), "rep_wall_s": walls,
            "setup": {"import_s": self.imports, "build_s": self.builds},
        }
        if tracer is None:
            values = {
                "setup_s": setup_s,
                "wall_s": _median(walls),
                "tts_s": _median(tts),
                "peak_mem_mb": peak_mb,
            }
            units = END_TO_END_UNITS
        else:
            self.info["traced_rep_wall_s"] = traced_walls
            overhead = _median(traced_walls) / _median(walls) - 1.0 if walls and traced_walls else 0.0
            TRACE_DIR.mkdir(exist_ok=True)
            trace_file = TRACE_DIR / f"{self.wl.name}-seed{self.seed}.jsonl"
            write_spans(tracer.spans, trace_file)
            self.info["spans_file"] = str(trace_file.relative_to(ROOT))
            roots = [s.id for s in tracer.spans if s.name == "bench.rep"]
            values = layer_metrics(tracer.spans, roots, self.wl.paths_per_rep, overhead)
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up and measure one workload; prints its repetitions, returns the result."""
    run = Run(WORKLOADS[name](tiny=tiny), seed)
    metrics = run.measure(seconds, trace)
    print(json.dumps({"run": run.info}))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    print(json.dumps({"env": environment(args.seed, args.seconds, bool(args.trace))}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
