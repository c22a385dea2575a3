"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest bench
"""

import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np
from pytest import approx

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import bellkit  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
from bellkit import cli  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    records = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["a1", 15, 25, 1],
        ["a2", 20, 35, 1],  # overlaps a1: together they cover 15..35
        ["b", 50, 60, 0],
        ["c", 90, 120, 0],  # runs past its parent: only 90..100 counts
    ]
    assert spans.self_times(records) == [50, 10, 10, 15, 10, 30]


def test_recorder_nests_spans_and_sums_them():
    recorder = spans.Recorder(clock=itertools.count(0, 10).__next__)
    inner = recorder.wrap("m.inner", lambda x: x + 1)
    outer = recorder.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    summary = spans.summarize(recorder)
    # clock ticks: outer 0, inner 10..20, inner 30..40, outer ends at 50
    assert summary["m.inner"] == {"calls": 2, "total_s": approx(20e-9), "self_s": approx(20e-9)}
    assert summary["m.outer"] == {"calls": 1, "total_s": approx(50e-9), "self_s": approx(30e-9)}


def test_install_wraps_every_namespace_that_binds_a_function():
    original = bellkit.corrtensor.max_product_value
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        wrapped = bellkit.corrtensor.max_product_value
        assert wrapped.__wrapped__ is original
        assert bellkit.septest.max_product_value is wrapped
        assert bellkit.bellcheck.max_product_value is wrapped
        assert bellkit.max_product_value is wrapped
        bellkit.separability_check(bellkit.make_werner(0.9))
    finally:
        uninstall()
    assert bellkit.septest.max_product_value is original
    assert not hasattr(bellkit.DensityMatrix.__post_init__, "__wrapped__")
    summary = spans.summarize(recorder)
    assert summary["septest.separability_check"]["calls"] == 1
    assert summary["corrtensor.compute_tensor"]["calls"] == 1
    assert summary["corrtensor.max_product_value"]["calls"] == 1
    assert summary["corrtensor.max_product_value"]["converged"] == 1
    assert summary["qstate.DensityMatrix.validate"]["calls"] == 1
    check = summary["septest.separability_check"]
    assert check["self_s"] < check["total_s"]


def test_csv_counter_counts_characters_written():
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        buf = io.StringIO()
        buf.write("x")
        bellkit.tensor_to_csv(bellkit.compute_tensor(bellkit.make_werner(0.5)), buf)
    finally:
        uninstall()
    assert spans.summarize(recorder)["corrtensor.tensor_to_csv"]["bytes"] == len(buf.getvalue()) - 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.REQUIRED)
    assert set(run.layer_metrics({}, 1, 0.0)) == {name for name, _ in run.PER_LAYER}
    for names in run.REQUIRED.values():
        assert set(names) <= set(spans.SPAN_NAMES)


def _tensor_csv(rho) -> bytes:
    buf = io.StringIO()
    bellkit.tensor_to_csv(bellkit.compute_tensor(rho), buf)
    return buf.getvalue().encode()


def test_csv_check_accepts_a_true_export_and_rejects_a_changed_one():
    rho = bellkit.make_werner(0.5)
    sum_sq = 4 * float(np.sum(np.abs(rho.matrix) ** 2))
    out = _tensor_csv(rho)
    assert jobs.check_tensor_csv(out, 2, sum_sq) is None
    assert jobs.check_tensor_csv(out.replace(b"1,1,-0.4", b"1,1,-0.6"), 2, sum_sq)
    assert jobs.check_tensor_csv(out.rsplit(b"\r\n", 2)[0] + b"\r\n", 2, sum_sq)


def _cli(capsys, argv) -> bytes:
    assert cli.main(argv) == 0
    return capsys.readouterr().out.encode()


def test_json_checks_accept_true_outputs(capsys, tmp_path):
    out = _cli(capsys, ["rotational", "--n", "4", "--v", "0.5"])
    assert jobs.check_rotational(out, 4, 0.5) is None
    assert jobs.check_rotational(out, 4, 0.6)

    out = _cli(capsys, ["commrun", "--n", "4", "--protocol", "classical", "ghz",
                        "sequential", "--trials", "500"])
    assert jobs.check_commrun(out, 4, 500) is None
    assert jobs.check_commrun(out, 5, 500)

    v = 0.6
    rho = jobs.rotated_noisy_ghz(4, v, np.random.default_rng(0))
    jobs.write_state(tmp_path / "s.json", "mixed", 4, rho.reshape(-1))
    out = _cli(capsys, ["septest", "--state", str(tmp_path / "s.json")])
    assert jobs.check_septest(out, 4, v) is None
    assert jobs.check_septest(out, 4, v + 0.01)


def test_generated_inputs_load_and_match_their_closed_forms(tmp_path):
    rng = np.random.default_rng(1)
    rho = jobs.random_mixed(3, rng)
    jobs.write_state(tmp_path / "m.json", "mixed", 3, rho.reshape(-1))
    loaded = bellkit.load_state(tmp_path / "m.json")
    np.testing.assert_array_equal(loaded.matrix, rho)
    assert np.linalg.eigvalsh(rho)[0] >= 0.5 / 8 - 1e-12  # full rank
    out = _tensor_csv(loaded)
    assert jobs.check_tensor_csv(out, 3, 8 * float(np.sum(np.abs(rho) ** 2))) is None


def test_sweep_pass_has_no_failures():
    calls, failed, errors = sweep.run_pass(sweep.make_plan(0, scale=0.02))
    assert calls == 4 * 2 + 3 * 2 + 2 * 2 + 11
    assert failed == 0, errors
