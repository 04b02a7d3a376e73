"""The benchmark's own tests: output schema, names against BENCHMARK.json,
span nesting, probe removal, and a miniature of every workload.

None of these look at how fast anything ran.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import layers, run, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402
from voicesep.model import ModelConfig  # noqa: E402

TINY = ModelConfig(n_filters=8, hidden=8, num_blocks=2, kernel_len=4)
MINI = {
    "train-paper": workloads.TrainPaperSpec(
        model=TINY, crop_s=0.5, steps=3, setup_repeats=2),
    "separate-long": workloads.SeparateLongSpec(
        model=TINY, mixture_s=1.0, n_mixtures=2, setup_repeats=2),
    "fit-eval-small": workloads.FitEvalSmallSpec(
        model=TINY, train_per_c=3, valid_per_c=2, test_per_c=2, epochs=1,
        setup_repeats=2),
}
SECONDS = 1

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
E2E = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.fixture(scope="module")
def printed():
    """Each miniature run once through the command line entry point:
    {workload: (exit code, stdout lines)}."""
    import contextlib
    import io
    out = {}
    for name in workloads.WORKLOADS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", name, "--seed", "3",
                             "--seconds", str(SECONDS), "--trace", "0"],
                            specs=MINI)
        out[name] = (code, buf.getvalue().strip().splitlines())
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each miniature run once under the probes."""
    out = {}
    for name in workloads.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(name))
        out[name] = run.run_workload(name, 3, SECONDS, True, workdir, MINI)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_schema(printed, name):
    code, lines = printed[name]
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["metrics"]
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"]) and metric["value"] != 0
    assert any(line.startswith("check ") for line in lines[:-1])
    assert not os.path.exists(os.path.join(ROOT, ".bench_work",
                                           f"{name}-{os.getpid()}"))


def test_names_match_benchmark_json(printed, traced):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]}
    for name in workloads.WORKLOADS:
        _, lines = printed[name]
        metrics = json.loads(lines[-1])["metrics"]
        assert set(metrics) == E2E, name
        for metric, value in metrics.items():
            assert value["unit"] == units[metric], metric
    for name, result in traced.items():
        layer_metrics = result.layer_metrics
        assert set(layer_metrics) | {"trace.overhead_pct"} == PER_LAYER, name
        for metric, (_, unit) in layer_metrics.items():
            assert units[metric] == unit, metric


def test_spans_nest_and_self_times_sum(traced):
    for result in traced.values():
        tracer = result.tracer
        assert tracer.names[0].startswith("bench.")
        assert all(math.isfinite(e) for e in tracer.ends)
        for idx, parent in enumerate(tracer.parents):
            if parent >= 0:
                assert tracer.starts[parent] <= tracer.starts[idx]
                assert tracer.ends[idx] <= tracer.ends[parent]
            else:
                assert idx == 0
        own = tracer.self_times()
        assert min(own) > -1e-9
        root = tracer.ends[0] - tracer.starts[0]
        assert sum(own) == pytest.approx(root, rel=1e-9, abs=1e-9)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    root = t.begin("root")        # 0
    a = t.begin("a")              # 1
    b = t.begin("b")              # 2
    t.end(b)                      # 4
    t.end(a)                      # 5
    t.end(root)                   # 10
    assert t.parents == [-1, root, a]
    assert t.self_times() == [6.0, 2.0, 2.0]
    assert t.totals()["a"] == (1, 2.0, 4.0)
    assert t.has_ancestor(b, "root") and not t.has_ancestor(root, "a")


def _patched_attributes():
    from voicesep import autodiff, optim
    points = [(o, a) for o, a, _ in layers.SPANS + layers.COUNTS]
    points += [(layers.model, "mulcat_block"),
               (autodiff.Tape, "__enter__"), (autodiff.Tape, "record"),
               (autodiff.Tape, "backward"), (optim.Adam, "step")]
    return {(o, a): o.__dict__[a] for o, a in points}


def test_probes_wrap_every_point_and_are_removed():
    before = _patched_attributes()
    tracer = Tracer()
    layers.LayerProbes(tracer).install()
    try:
        during = _patched_attributes()
        assert all(during[k] is not before[k] for k in before)
    finally:
        tracer.restore()
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_probes_removed_after_traced_run(tmp_path):
    before = _patched_attributes()
    run.run_workload("separate-long", 0, SECONDS, True, str(tmp_path), MINI)
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_probes_removed_after_failed_run(tmp_path, monkeypatch):
    before = _patched_attributes()

    def broken(*args):
        raise RuntimeError("workload failed")
    monkeypatch.setitem(workloads.WORKLOADS, "train-paper", broken)
    with pytest.raises(RuntimeError):
        run.run_workload("train-paper", 0, 1, True, str(tmp_path), MINI)
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_traced_training_shows_retained_tapes(traced):
    m = traced["train-paper"].layer_metrics
    calls = m["autodiff.backward_calls"][0]
    assert calls % 3 == 0 and calls >= 3 * workloads.MIN_REPEATS
    assert m["autodiff.tapes_alive_max"][0] >= 2
    assert m["autodiff.live_bytes_at_backward_max"][0] >= \
        m["autodiff.live_bytes_at_backward"][0] > 0
    assert not tracemalloc.is_tracing()
    assert m["trainer.step_max_s"][0] >= m["trainer.step_s"][0] > 0
    assert m["embedder.embed_tensor_calls"][0] > 0
    separate = traced["separate-long"].layer_metrics
    assert separate["autodiff.backward_calls"][0] == 0
    assert separate["autodiff.live_bytes_at_backward"][0] == 0
    fit = traced["fit-eval-small"].layer_metrics
    assert fit["evalkit.separations_per_mix"][0] >= 1
    assert fit["autodiff.live_bytes_at_backward"][0] > 0


def test_tracing_overhead_sign():
    untraced = {"ops_per_s": (2.0, "1/s")}
    slower = {"ops_per_s": (1.6, "1/s")}
    assert run.tracing_overhead_pct(untraced, slower) == pytest.approx(25.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
