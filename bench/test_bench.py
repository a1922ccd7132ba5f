"""Self-tests of the benchmark harness: `python3 -m pytest bench`."""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from compdepth import cli, depth_branches  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DensePipeline, LabSynthetic, SparseNoisy, run_op  # noqa: E402


def _ops(workload):
    return {op.name: op for op in workload.ops()}


def test_self_time_is_span_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3].
    spans = [["root", 0.0, 10.0, -1, True], ["a", 1.0, 4.0, 0, True],
             ["a1", 2.0, 3.0, 1, True], ["b", 5.0, 9.0, 0, False]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_combine_the_depth_kernels():
    spans = [["cli.oracle", 0.0, 10.0, -1, True],
             ["depth_branches.z_key", 1.0, 2.0, 0, True],
             ["depth_branches.z_key", 3.0, 4.0, 0, False],
             ["depth_branches.z_alt", 5.0, 6.5, 0, True]]
    m = layer_metrics(spans, Counter({"kitti_io.jsonl_bytes": 12}))
    assert m["cli.oracle.self_s"] == 6.5
    assert m["depth_branches.z_kernels.calls"] == 3
    assert m["depth_branches.z_kernels.failed"] == 1
    assert m["depth_branches.z_kernels.self_s"] == 3.5
    assert m["depth_branches.z_kernels.ok_ratio"] == 2 / 3
    assert m["kitti_io.jsonl_bytes"] == 12
    assert m["camera.project.calls"] == 0


def test_tracer_sees_from_imported_calls_and_uninstalls(tmp_path):
    workload = DensePipeline(tmp_path, seed=1, frames=3, per_frame=5)
    workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(cli.box_keypoints, "__wrapped__")
        assert hasattr(depth_branches.project, "__wrapped__")
        results = [run_op(op, {}, wrap=tracer.span) for op in workload.ops()]
    finally:
        tracer.uninstall()
    assert all(r.ok for r in results), results
    m = layer_metrics(tracer.spans, tracer.counts)
    # oracle: bottom, top and 8 corners per object; plane: 1 per object.
    assert m["camera.project.calls"] == 11 * workload.objects
    assert m["depth_branches.box_keypoints.calls"] == workload.objects
    assert m["kitti_io.read_predictions.records"] == 2 * workload.objects
    assert m["cli.oracle.self_s"] > 0
    assert not hasattr(cli.box_keypoints, "__wrapped__")
    assert not hasattr(depth_branches.project, "__wrapped__")


def test_edited_z_star_fails_the_oracle_op(tmp_path):
    workload = DensePipeline(tmp_path, seed=2, frames=2, per_frame=5)
    workload.setup()
    oracle = _ops(workload)["oracle"]
    assert run_op(oracle, {}).ok

    def run_and_edit():
        code = oracle.run()
        lines = workload.preds.read_text().splitlines()
        record = json.loads(lines[1])
        record["z_star"] += 1e-9
        lines[1] = json.dumps(record)
        workload.preds.write_text("\n".join(lines) + "\n")
        return code

    result = run_op(dataclasses.replace(oracle, run=run_and_edit), {})
    assert not result.ok
    assert result.error.startswith("check:") and "z_star" in result.error


def test_truncated_heatmap_fails_the_read_back(tmp_path):
    workload = SparseNoisy(tmp_path, seed=3, frames=3, per_frame=6)
    workload.setup()
    ops = _ops(workload)
    assert run_op(ops["plane_heatmap"], {}).ok
    assert run_op(ops["horizon_fit"], {}).ok
    pgm = workload.heatmap_dir / "000001.pgm"
    pgm.write_bytes(pgm.read_bytes()[:-100])
    result = run_op(ops["horizon_fit"], {})
    assert not result.ok and "ValueError" in result.error


def test_changed_rerun_fails_and_multiflip_symmetry_is_checked(tmp_path):
    workload = LabSynthetic(tmp_path, seed=4, n_objects=500)
    workload.setup()
    multiflip = _ops(workload)["lab_multiflip"]
    digests = {}
    assert run_op(multiflip, digests).ok
    assert run_op(multiflip, digests).ok

    def run_and_edit():
        code = multiflip.run()
        text = workload.multiflip.read_text().replace("\nmultiflip,1,", "\nmultiflip,1,9")
        workload.multiflip.write_text(text)
        return code

    result = run_op(dataclasses.replace(multiflip, run=run_and_edit), digests)
    assert not result.ok and "k=1" in result.error


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    args = ["--workload", "lab_synthetic", "--seed", "0", "--seconds", "1"]
    assert run.main(args) == 2
    assert capsys.readouterr().out == ""


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = LabSynthetic(tmp_path, seed=5, n_objects=200)
    _, e2e, _ = run.measure(workload, seconds=0.01)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    _, layers, _ = run.measure_traced(workload, 0.01, tmp_path / "spans.jsonl")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}
