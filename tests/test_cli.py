"""Command-line interface: subcommands, file formats, exit codes."""

import contextlib
import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bellkit import cli
from bellkit import corrtensor as ct
from bellkit import qstate as qs
from bellkit import septest as st
from io_reference import reference_metric_to_json
from sources import unseekable


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def process_env():
    """The environment of a fresh interpreter that imports this bellkit."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(*args):
    """Run ``python -m bellkit`` on args in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "bellkit", *args],
        env=process_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestThresholds:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n-min", "2", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,standard_threshold,rotational_threshold,rotational_smaller"
        assert len(lines) == 6
        row4 = lines[3].split(",")
        assert row4[0] == "4" and row4[3] == "true"

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n-min", "3", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "0.5"

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "thresholds", "--n-min", "6", "--n-max", "2")
        assert code == 2
        assert "error" in err

    def test_output_file_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["thresholds", "--n-min", "2", "--n-max", "9", "--out", str(out1)]) == 0
        assert cli.main(["thresholds", "--n-min", "2", "--n-max", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestChsh:
    def test_preset(self, capsys):
        code, out, _ = run_cli(capsys, "chsh")
        assert code == 0
        doc = json.loads(out)
        assert doc["b_value"] == pytest.approx(np.sqrt(2) - 1, abs=1e-9)
        assert doc["violated"] is True

    def test_custom_angles_white_noise(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.DensityMatrix(2, np.eye(4) / 4))
        code, out, _ = run_cli(
            capsys, "chsh", "--state", str(path), "--angles", "0", "1.5707963", "0.7853981", "2.3561944"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["b_value"] == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "angles, shown",
        [(("nan", "0", "0", "0"), "[nan, 0.0, 0.0, 0.0]"),
         (("inf", "0", "0", "0"), "[inf, 0.0, 0.0, 0.0]"),
         # a leading space keeps argparse from reading "-inf" as an option
         (("0", "1", "2", " -Infinity"), "[0.0, 1.0, 2.0, -inf]")],
    )
    def test_non_finite_angles_exit_2_with_one_error_line(self, angles, shown):
        proc = run_process("chsh", "--angles", *angles)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --angles must be finite numbers, got {shown}\n"

    def test_negative_angle_in_exponent_form_is_a_number(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--angles", "-1e-05", "0", "0", "0")
        assert code == 0
        assert (code, out) == run_cli(capsys, "chsh", "--angles", " -1e-05", "0", "0", "0")[:2]

    @pytest.mark.parametrize(
        "kind, expected",
        [("pure", "b8ffea40e457d7542bf3addac3cb6505e2164975e7fb78e332d14ee6fc0517bc"),
         ("mixed", "db5810360eea96183fcd42bd3c753dc6d9438a57f77b314e1f838d8f171d55e7")],
    )
    def test_state_file_output_bytes(self, tmp_path, capsys, kind, expected):
        # SHA-256 of the exit code and stdout of chsh --state, with the
        # preset and with given angles, on 2-qubit files built from fixed
        # seeds; recorded before the mixed Born chain took each qubit's
        # diagonal as soon as both its sides were contracted
        rng = np.random.default_rng(2008)
        vecs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        if kind == "pure":
            state = qs.StateVector(2, vecs[0])
        else:
            weights = np.array([0.4, 0.3, 0.2, 0.1])
            mat = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
            state = qs.DensityMatrix(2, mat)
        path = tmp_path / "state.json"
        qs.save_state(path, state)
        digest = hashlib.sha256()
        for extra in ([], ["--angles", "0.3", "1.9", "2.4", "-0.7"]):
            code, out, _ = run_cli(capsys, "chsh", "--state", str(path), *extra)
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == expected


class TestRotational:
    def test_violated_case(self, capsys):
        code, out, _ = run_cli(capsys, "rotational", "--n", "3", "--v", "0.9")
        assert code == 0
        doc = json.loads(out)
        assert doc["violated"] is True
        assert doc["seed"] == 42
        assert doc["s_value"] == pytest.approx(0.81 * 4, abs=1e-9)

    def test_not_violated_case(self, capsys):
        code, out, _ = run_cli(capsys, "rotational", "--n", "3", "--v", "0.3")
        assert code == 0
        assert json.loads(out)["violated"] is False

    def test_bad_visibility(self, capsys):
        code, _, err = run_cli(capsys, "rotational", "--n", "3", "--v", "1.5")
        assert code == 2

    def test_negative_visibility_in_exponent_form_reaches_the_range_check(self, capsys):
        code, out, err = run_cli(capsys, "rotational", "--n", "3", "--v", "-1e-3")
        assert (code, out) == (2, "")
        assert err == "error: visibility must be in [0, 1], got -0.001\n"


class TestCommrun:
    def test_all_three_protocols(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "commrun", "--task", "mod4", "--n", "5",
            "--protocol", "classical", "ghz", "sequential",
            "--trials", "5000", "--seed", "3",
        )
        assert code == 0
        records = json.loads(out)
        by_protocol = {r["protocol"]: r for r in records}
        assert by_protocol["classical"]["fidelity"] == 0.25
        assert by_protocol["classical"]["trials"] == 0
        assert by_protocol["classical"]["stderr"] == 0.0
        assert by_protocol["ghz"]["fidelity"] == 1.0
        assert by_protocol["sequential"]["fidelity"] == 1.0
        for r in records:
            assert r["classical_bound"] == 0.25
            assert set(r) == {
                "task", "n", "protocol", "fidelity", "success_prob",
                "stderr", "trials", "classical_bound", "seed",
            }

    def test_single_protocol_is_flat_object(self, capsys):
        code, out, _ = run_cli(
            capsys, "commrun", "--task", "mod4", "--n", "3", "--protocol", "classical"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["protocol"] == "classical"
        assert doc["fidelity"] == 0.5

    def test_chsh_game_task(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "commrun", "--task", "chsh-game", "--n", "2",
            "--protocol", "ghz", "--trials", "40000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classical_bound"] == 0.5
        assert doc["fidelity"] == pytest.approx(np.sqrt(2) / 2, abs=0.02)

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "commrun", "--task", "mod4", "--n", "3", "--protocol", "ghz", "--trials", "0",
        )
        assert code == 2
        assert "--trials" in err

    def test_trials_beyond_cap_exits_2_without_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys,
                "commrun", "--task", "mod4", "--n", "4",
                "--protocol", "sequential", "--trials", "1000000000000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == "error: --trials must be in [1, 1000000], got 1000000000000\n"
        assert peak < 1 << 20

    def test_unsupported_combination_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "commrun", "--task", "chsh-game", "--n", "2", "--protocol", "sequential",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: the sequential single-qubit protocol is defined for the "
            "modulo-4 sum task only\n"
        )

    @pytest.mark.parametrize("n", [11, 20])
    def test_ghz_beyond_ten_parties_exits_2_before_the_search(self, capsys, monkeypatch, n):
        def no_search(task):
            raise AssertionError("classical_optimum ran")

        monkeypatch.setattr(cli.commcomplex, "classical_optimum", no_search)
        code, out, err = run_cli(
            capsys,
            "commrun", "--task", "mod4", "--n", str(n),
            "--protocol", "classical", "ghz", "sequential",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --protocol ghz needs --n at most 10, got {n}\n"

    def test_mod4_at_14_parties_reports_bound_and_exact_sequential(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "commrun", "--task", "mod4", "--n", "14",
            "--protocol", "classical", "sequential", "--trials", "1000",
        )
        assert code == 0
        for record in json.loads(out):
            assert record["classical_bound"] == 2.0**-6
        assert json.loads(out)[1]["fidelity"] == 1.0

    def test_classical_bound_bytes_for_every_n(self, capsys):
        # SHA-256 of the exit code and stdout for N = 2..20, recorded while
        # N > 12 still took the closed form instead of the search
        digest = hashlib.sha256()
        for n in range(2, 21):
            code, out, _ = run_cli(
                capsys, "commrun", "--task", "mod4", "--n", str(n), "--protocol", "classical"
            )
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "322500a5d840ca57434aee17c8c75c20462dd64c694f00c5cf31448f12eb1fb8"
        )

    @pytest.mark.parametrize(
        "n, protocols, expected",
        [
            (
                "10",
                ["classical", "ghz", "sequential"],
                "a93b33818ed2fc0d9248a8adbc418037ce8581d439e70a45fbada198b8a7a13c",
            ),
            (
                "20",
                ["classical", "sequential"],
                "5e32b97b93d09cf0113a5f65361276d8d14500476e843fd345dff76beae8271e",
            ),
        ],
    )
    def test_protocol_bytes_at_large_n(self, capsys, n, protocols, expected):
        # SHA-256 of stdout at 10^5 trials, recorded while the sequential
        # phases were built from the (trials, N) z and x bits
        code, out, _ = run_cli(
            capsys, "commrun", "--task", "mod4", "--n", n,
            "--protocol", *protocols, "--trials", "100000",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_too_many_parties_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "commrun", "--task", "mod4", "--n", "21", "--protocol", "classical"
        )
        assert code == 2
        assert out == ""
        assert "--n must be at most 20, got 21" in err

    def test_seeded_outputs_identical(self, tmp_path):
        args = [
            "commrun", "--task", "mod4", "--n", "4",
            "--protocol", "ghz", "--trials", "2000", "--seed", "9",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSeptest:
    def test_werner_half_detected(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.make_werner(0.5))
        code, out, _ = run_cli(capsys, "septest", "--state", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["detected"] is True
        assert doc["norm_sq"] == pytest.approx(0.75, abs=1e-9)
        assert doc["t_max"] == pytest.approx(0.5, abs=1e-9)
        assert set(doc) == {"norm_sq", "t_max", "detected", "margin", "converged", "seed"}

    def test_product_state_not_detected(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.DensityMatrix(2, qs.product_matrix([(0, 0, 1), (1, 0, 0)])))
        code, out, _ = run_cli(capsys, "septest", "--state", str(path))
        assert code == 0
        assert json.loads(out)["detected"] is False

    def test_pure_state_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.make_ghz(3))
        code, out, _ = run_cli(capsys, "septest", "--state", str(path))
        assert code == 0
        assert json.loads(out)["detected"] is True

    def test_metric_file(self, tmp_path, capsys):
        """A metric file is strict UTF-8 text with universal newlines, read
        as a state file that does not stream is read."""
        state_path = tmp_path / "state.json"
        qs.save_state(state_path, qs.make_werner(0.6))
        metric_path = tmp_path / "metric.json"
        raw = json.dumps(reference_metric_to_json(st.identity_proper_metric(2)), indent=1).encode()
        cases = [
            (raw, 0, ""),
            (raw.replace(b"\n", b"\r\n"), 0, ""),
            (b"\xef\xbb\xbf" + raw, 2,
             "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
            (raw.replace(b"diagonal", b"diag\xffonal"), 2,
             "error: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte\n"),
            # universal newlines: the character count reads each CRLF as one
            (raw.replace(b"\n", b"\r\n") + b"\r\nx", 2,
             "error: Extra data: line 22 column 1 (char 153)\n"),
        ]
        for content, code, err in cases:
            metric_path.write_bytes(content)
            got = run_cli(
                capsys, "septest", "--state", str(state_path), "--metric", str(metric_path)
            )
            assert (got[0], got[2]) == (code, err)
            if code:
                assert got[1] == ""
                continue
            doc = json.loads(got[1])
            assert doc["detected"] is True
            assert doc["norm_sq"] == pytest.approx(3 * 0.36, abs=1e-9)

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"n_qubits": 2, "kind": "mix')
        code, _, err = run_cli(capsys, "septest", "--state", str(path))
        assert code == 2

    def test_invalid_field_named(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        doc = qs.state_to_json(qs.make_werner(0.5))
        doc["data"][3] = ["oops", 0.0]
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "septest", "--state", str(path))
        assert code == 2
        assert "data[3]" in err

    @pytest.mark.parametrize("n", [-1, 0, 11, 10**9])
    def test_n_qubits_out_of_range_exits_2(self, tmp_path, capsys, n):
        path = tmp_path / "state.json"
        doc = qs.state_to_json(qs.make_ghz(2))
        doc["n_qubits"] = n
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "septest", "--state", str(path))
        assert code == 2
        assert out == ""
        assert "'n_qubits'" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "septest", "--state", "/nonexistent/state.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["septest", "tensor-export"])
    @pytest.mark.parametrize(
        "entry",
        ["NaN", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "-inf", "1e400", "400-digit-int"],
    )
    def test_non_finite_state_entry_exits_2(self, tmp_path, capsys, command, entry):
        path = tmp_path / "state.json"
        path.write_text(
            '{"n_qubits": 2, "kind": "pure", "data": '
            f'[[1, 0], [0, 0], [0, {entry}], [0, 0]]}}'
        )
        code, out, err = run_cli(capsys, command, "--state", str(path))
        assert code == 2
        assert out == ""
        assert "field 'data[2]' must be a finite [re, im] number pair" in err

    @pytest.mark.parametrize(
        "metric",
        [
            '{"kind": "diagonal", "weights": {"a": 1}}',
            '{"kind": "diagonal", "weights": [null, 1, 1, 1]}',
            '{"kind": "diagonal", "weights": [1, 1, 1, 1e999]}',
            '{"kind": "dense", "matrix": [[1, 0], [0]]}',
        ],
        ids=["dict", "null", "1e999", "ragged"],
    )
    def test_malformed_metric_exits_2(self, tmp_path, capsys, metric):
        state_path = tmp_path / "state.json"
        qs.save_state(state_path, qs.DensityMatrix(1, qs.product_matrix([(0, 0, 1)])))
        metric_path = tmp_path / "metric.json"
        metric_path.write_text(metric)
        code, out, err = run_cli(
            capsys, "septest", "--state", str(state_path), "--metric", str(metric_path)
        )
        assert code == 2
        assert out == ""
        field = "weights" if "diagonal" in metric else "matrix"
        assert f"field '{field}' must hold finite numbers" in err

    @pytest.mark.parametrize(
        "metric, message",
        [
            ({"kind": "diagonal", "weights": [[1, 1, 1, 1]] * 4},
             "field 'weights' must be a flat list of numbers"),
            ({"kind": "dense", "matrix": [1.0] + [0.0] * 255},
             "field 'matrix' must be a list of rows of numbers"),
        ],
        ids=["nested-weights", "flat-matrix"],
    )
    def test_metric_nesting_exits_2(self, tmp_path, capsys, metric, message):
        # 16 weights in four rows would fill a two-qubit metric if flattened
        state_path = tmp_path / "state.json"
        qs.save_state(state_path, qs.make_werner(0.5))
        metric_path = tmp_path / "metric.json"
        metric_path.write_text(json.dumps(metric))
        code, out, err = run_cli(
            capsys, "septest", "--state", str(state_path), "--metric", str(metric_path)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "weights",
        [[1.7e308] * 16, [0.0] * 5 + [1.7e308] + [0.0] * 10],
        ids=["all-huge", "one-huge"],
    )
    def test_overflowing_metric_exits_3(self, tmp_path, capsys, weights):
        state_path = tmp_path / "state.json"
        qs.save_state(state_path, qs.make_werner(0.5))
        metric_path = tmp_path / "metric.json"
        metric_path.write_text(json.dumps({"kind": "diagonal", "weights": weights}))
        code, out, err = run_cli(
            capsys, "septest", "--state", str(state_path), "--metric", str(metric_path)
        )
        assert code == 3
        assert out == ""
        assert "overflow" in err

    def test_unit_weight_on_one_coordinate_not_detected(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        qs.save_state(state_path, qs.make_werner(0.5))
        metric_path = tmp_path / "metric.json"
        weights = [0.0] * 5 + [1.0] + [0.0] * 10
        metric_path.write_text(json.dumps({"kind": "diagonal", "weights": weights}))
        code, out, _ = run_cli(
            capsys, "septest", "--state", str(state_path), "--metric", str(metric_path)
        )
        assert code == 0
        assert json.loads(out)["detected"] is False


class TestTensorExport:
    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        qs.save_state(path, qs.make_werner(1.0))
        code, out, _ = run_cli(capsys, "tensor-export", "--state", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j1,j2,value"
        assert len(lines) == 17
        values = {tuple(map(int, ln.split(",")[:2])): float(ln.split(",")[2]) for ln in lines[1:]}
        assert values[(1, 1)] == pytest.approx(-1.0, abs=1e-12)
        assert values[(0, 0)] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_stdout_and_out_file_bytes_identical(self, tmp_path, capsys, kind):
        state = qs.make_noisy_ghz(3, 0.6) if kind == "mixed" else qs.make_ghz(3)
        path, out_path = tmp_path / "state.json", tmp_path / "out.csv"
        qs.save_state(path, state)
        code, out, _ = run_cli(capsys, "tensor-export", "--state", str(path))
        assert code == 0
        args = ("tensor-export", "--state", str(path), "--out", str(out_path))
        assert run_cli(capsys, *args) == (0, "", "")
        assert out_path.read_bytes() == out.encode()

    def test_failed_export_writes_no_file(self, tmp_path, capsys):
        path, out_path = tmp_path / "state.json", tmp_path / "out.csv"
        path.write_text('{"n_qubits": 1, "kind": "pure", "data": [[1, 0], [1, 0]]}')
        args = ("tensor-export", "--state", str(path), "--out", str(out_path))
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: state not normalized")
        assert not out_path.exists()

    def test_pure_state_whose_projector_misses_the_trace_exits_2(self, tmp_path, capsys):
        # StateVector accepts it (Sigma |a|^2 = 0.999999999999); the
        # trace of its projector misses 1 by more than 1e-12
        amps = [(-0.2677445961427941 - 0.9598299797380929j),
                (0.07217185182866134 - 0.0427839343086392j)]
        path = tmp_path / "state.json"
        qs.save_state(path, qs.StateVector(1, amps))
        code, out, err = run_cli(capsys, "tensor-export", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: trace must be 1, got (0.9999999999989999-1.5811045672737672e-17j)\n"

    @staticmethod
    def _saved_state(tmp_path):
        """A mixed state file and its bytes."""
        path = tmp_path / "state.json"
        qs.save_state(path, qs.make_noisy_ghz(3, 0.6))
        return path, path.read_bytes()

    def test_state_read_from_a_pipe(self, tmp_path, capsys):
        path, data = self._saved_state(tmp_path)
        expected = run_cli(capsys, "tensor-export", "--state", str(path))
        read_fd, write_fd = os.pipe()

        def feed():
            with contextlib.suppress(BrokenPipeError), open(write_fd, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = run_cli(capsys, "tensor-export", "--state", f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)  # a writer still blocked gets EPIPE
            writer.join(10)
        assert not writer.is_alive()
        assert expected[0] == 0
        assert got == expected

    def test_state_read_from_a_named_fifo(self, tmp_path):
        path, data = self._saved_state(tmp_path)
        fifo = tmp_path / "state.fifo"
        os.mkfifo(fifo)
        deadline = time.monotonic() + 20

        def feed():
            # one writer only: a reader that opens the FIFO twice waits on
            # its second open until the subprocess timeout
            while time.monotonic() < deadline:
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                except OSError as exc:
                    if exc.errno != errno.ENXIO:  # ENXIO: no reader yet
                        raise
                    time.sleep(0.01)
                    continue
                os.set_blocking(fd, True)
                with contextlib.suppress(BrokenPipeError), open(fd, "wb") as fh:
                    fh.write(data)
                return

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = run_process("tensor-export", "--state", str(fifo))
        finally:
            writer.join(30)
        assert not writer.is_alive()
        expected = run_process("tensor-export", "--state", str(path))
        assert expected.returncode == 0
        assert (got.returncode, got.stdout, got.stderr) == (0, expected.stdout, "")

    @pytest.mark.parametrize("source", ["pipe", "fifo"])
    @pytest.mark.parametrize(
        "flaw",
        [lambda raw: raw[:-3] + b",]}\n", lambda raw: b"\xef\xbb\xbf" + raw,
         lambda raw: raw.replace(b"], [", b"], \xff[", 1)],
        ids=["trailing comma", "BOM", "non-UTF-8 byte"],
    )
    def test_flawed_file_fails_as_it_does_from_disk(self, tmp_path, capsys, source, flaw):
        """A source that cannot seek is spilled to a temporary file, so its
        error names the same position as the file's own."""
        path, data = self._saved_state(tmp_path)
        path.write_bytes(flaw(data))
        expected = run_cli(capsys, "tensor-export", "--state", str(path))
        with unseekable(source, flaw(data), tmp_path) as fed:
            got = run_cli(capsys, "tensor-export", "--state", fed)
        assert expected[:2] == (2, "")
        assert got == expected


class TestClosedStdout:
    """A reader that closes stdout early is not an input error: the run ends
    with EXIT_BROKEN_PIPE and writes nothing to stderr, whether stdout is
    buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_export_read_up_to_its_first_line(self, tmp_path, unbuffered):
        path = tmp_path / "ghz.json"
        qs.save_state(path, qs.make_ghz(8))
        with subprocess.Popen(
            [sys.executable, "-m", "bellkit", "tensor-export", "--state", str(path)],
            env={**process_env(), "PYTHONUNBUFFERED": unbuffered},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"j1,j2,j3,j4,j5,j6,j7,j8,value\r\n"
            proc.stdout.close()
            code = proc.wait(60)
            err = proc.stderr.read()
        assert (code, err) == (cli.EXIT_BROKEN_PIPE, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_rotational_into_a_pipe_closed_before_the_start(self, unbuffered):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bellkit", "rotational", "--n", "3", "--v", "0.5"],
                env={**process_env(), "PYTHONUNBUFFERED": unbuffered},
                stdout=write_fd,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_fd)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


class TestOverflowingState:
    def test_scaled_pure_state_exits_2_with_one_error_line(self, tmp_path):
        # every amplitude scaled by 1.7e308: |amp|^2 overflows to inf
        doc = qs.state_to_json(qs.make_ghz(2))
        doc["data"] = [[1.7e308 * re, 1.7e308 * im] for re, im in doc["data"]]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        proc = run_process("tensor-export", "--state", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: state not normalized: sum |amp|^2 = inf\n"


class TestDeeplyNestedJson:
    """json.load raises RecursionError on arrays nested ~2000 deep; the
    loaders turn it into a usage error."""

    NESTED = "[" * 2000 + "]" * 2000

    @pytest.mark.parametrize("command", ["septest", "tensor-export", "chsh"])
    def test_state_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "state.json"
        path.write_text('{"n_qubits": 2, "kind": "pure", "data": ' + self.NESTED + "}")
        code, out, err = run_cli(capsys, command, "--state", str(path))
        assert (code, out, err) == (2, "", "error: state document nests too deeply\n")

    def test_metric_file_exits_2(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        qs.save_state(state_path, qs.make_werner(0.5))
        metric_path = tmp_path / "metric.json"
        metric_path.write_text('{"kind": "diagonal", "weights": ' + self.NESTED + "}")
        code, out, err = run_cli(
            capsys, "septest", "--state", str(state_path), "--metric", str(metric_path)
        )
        assert (code, out, err) == (2, "", "error: metric document nests too deeply\n")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [("rotational", "--n", "3", "--v", "0.5"),
         ("commrun", "--n", "3", "--protocol", "ghz"),
         ("septest", "--state", "missing.json")],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exits_2_naming_the_flag(self, argv):
        proc = run_process(*argv, "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(("rotational", "--n", "0", "--v", "0.5"), "--n must be in [2, 10], got 0"),
         (("commrun", "--n", "1", "--protocol", "classical"), "--n must be at least 2, got 1")],
        ids=["rotational", "commrun"],
    )
    def test_party_count_out_of_range_exits_2_naming_the_flag(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "thresholds", "--bogus", "1")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_subcommand_help_lists_flags(self, capsys):
        expected = {
            "thresholds": ("--n-min", "--n-max", "--out"),
            "chsh": ("--state", "--angles", "--out"),
            "rotational": ("--n", "--v", "--seed", "--out"),
            "commrun": ("--task", "--n", "--protocol", "--trials", "--seed", "--out"),
            "septest": ("--state", "--metric", "--seed", "--out"),
            "tensor-export": ("--state", "--out"),
        }
        for sub, flags in expected.items():
            code, out, _ = run_cli(capsys, sub, "--help")
            assert code == 0
            for flag in flags:
                assert flag in out, (sub, flag)
