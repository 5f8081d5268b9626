"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ritzfiber as rf  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_emitted_metrics():
    spec = _contract()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result, summary, spans = run.benchmark(workload, seed=5, seconds=0.05, trace=trace,
                                           min_ops=3, import_spawns=1)
    spec = _contract()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert summary["failed_frac"] == 0.0
    assert (spans is not None) == bool(trace)


def _perturbed(op):
    """The op with its result scaled by 1 + 1e-6."""
    def call():
        out = op.call()
        if isinstance(out, tuple):  # roundtrip: (coords, rebuilt matrix)
            return out[0], out[1] * (1 + 1e-6)
        return out * (1 + 1e-6)
    return replace(op, call=call)


def _raising(op):
    def call():
        raise rf.GenericityError("injected")
    return replace(op, call=call)


def test_perturbed_and_raising_ops_are_counted_failures():
    stream = workloads.ops("roundtrip", 3, run.child_env())
    # one whole cycle of three sizes, then the op that opens the next one
    ops = iter([_perturbed(next(stream)), _raising(next(stream)), next(stream), next(stream)])
    stats = run.measure(ops, seconds=0.0, min_ops=3, deadline=float("inf"), probe=speed.SpeedProbe())
    assert (stats.attempted, stats.failed) == (3, 2)
    assert stats.failed / stats.attempted == pytest.approx(2 / 3)


def test_every_fibre_op_oracle_rejects_a_1e6_perturbation():
    stream = workloads.ops("fibre_ops", 4, run.child_env())
    seen = set()
    while len(seen) < len(workloads.FIBRE_KINDS) * len(workloads.SIZES):
        op = next(stream)
        seen.add((op.kind, op.size))
        assert op.check(op.call())[1], (op.kind, op.size)
        assert not op.check(_perturbed(op).call())[1], (op.kind, op.size)


def test_tracer_restores_every_binding_site():
    import ritzfiber.fiber as fiber

    t = tracer.Tracer()
    original, solve = fiber.eigenvalues, np.linalg.solve
    with t.recording(0, 4):
        assert fiber.eigenvalues is not original
        rf.ritz_values(np.eye(4) + np.triu(np.ones((4, 4)), 1))
    assert fiber.eigenvalues is original
    assert np.linalg.solve is solve
    assert t.calls["numcore.eigenvalues"] == 4


def test_self_time_excludes_child_spans():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0)]
    assert [s for _, _, s in tracer.self_times(spans)] == [7.0, 2.0, 1.0]


def test_exception_counted_once_at_the_module_it_leaves_first():
    t = tracer.Tracer()
    singular = np.ones((3, 3))  # all Ritz levels share the eigenvalue 0
    with t.recording(0, 3), pytest.raises(rf.GenericityError):
        rf.extract_coords(singular)
    assert t.errors == {"fiber": 1}
