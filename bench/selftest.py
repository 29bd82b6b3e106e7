"""Self-tests of the benchmark, every workload at a tiny size.

    python3 bench/selftest.py            (or: python3 -m pytest -q bench/selftest.py)
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS and puts the package source on the path)
from spans import LAYER_METRICS, Span, SpanTree, Tracer, _covered, instrument, rep_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from bogopath import sampler  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _traced_rep(workload, seed: int):
    tracer = Tracer()
    with instrument(tracer), tracer.span("bench.rep"):
        outcome = workload.rep(seed)
    return outcome, tracer


def test_benchmark_json_lists_what_the_code_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["per_layer"] == [{"name": n, "unit": u, "better": b}
                                      for n, (u, b) in LAYER_METRICS.items()]


def test_every_workload_emits_every_metric_with_its_unit():
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, seed=3, seconds=1, trace=trace, tiny=True)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 3
            listed = BENCHMARK["per_layer" if trace else "end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in listed}
            for m in listed:
                metric = result["metrics"][m["name"]]
                assert metric["unit"] == m["unit"]
                assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
            if trace:
                spans = (run.TRACE_DIR / f"{name}-seed3.jsonl").read_text().splitlines()
                assert any(json.loads(line)["name"] == "bench.rep" for line in spans)
            else:
                assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_traced_and_untraced_runs_give_identical_estimates():
    original = sampler.mc_columns
    for name, cls in WORKLOADS.items():
        workload = cls(tiny=True)
        workload.build()
        plain = workload.rep(11)
        traced, tracer = _traced_rep(workload, 11)
        assert traced.estimates == plain.estimates, name
        assert len(tracer.spans) > 1, name
    assert sampler.mc_columns is original


def test_grid_equilibrium_draws_every_path_five_times():
    workload = WORKLOADS["grid_equilibrium"](tiny=True)
    workload.build()
    _, tracer = _traced_rep(workload, 5)
    root = next(s.id for s in tracer.spans if s.name == "bench.rep")
    m = rep_metrics(SpanTree(tracer.spans, root), workload.paths_per_rep)
    assert m["sampler.builds"] == 5
    assert m["equilibrium.mc_passes"] == 5
    assert m["sampler.draws_per_path"] == 5.0
    assert m["sampler.bad_frac"] == 0.0


def test_self_time_excludes_the_union_of_children():
    parent = Span(1, None, "p", 0.0, 10.0)
    children = [Span(2, 1, "c", 1.0, 3.0), Span(3, 1, "c", 2.0, 5.0),
                Span(4, 1, "c", 7.0, 8.0), Span(5, 1, "c", 9.5, 12.0)]
    assert _covered(parent, children) == 5.5


def test_spans_from_many_threads_are_all_kept():
    tracer = Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("root"):
            leaf = tracer.adopt(tracer.timed("leaf", lambda: None))

            def worker():
                for _ in range(500):
                    leaf()

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 8 * 500
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    assert all(s.parent == root.id for s in leaves)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test_name, test in tests:
        test()
        print(f"ok {test_name}", file=sys.stderr)
    print(f"{len(tests)} passed", file=sys.stderr)
