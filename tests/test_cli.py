from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thetakernels.cli import app
from thetakernels.gp import fit as gp_fit
from thetakernels.gp import predict as gp_predict
from thetakernels.kernels import CMixedKernel, MixedKernel, PureKernel
from thetakernels.pgf import make_theta_pgf


def _load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestPgfCommands:
    def test_eval(self, capsys):
        code = app(["pgf-eval", "--theta", "1", "--a", "1", "--c", "1", "--s", "0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_iterate_record(self, capsys):
        code = app(["pgf-iterate", "--theta", "1", "--a", "1", "--c", "1",
                    "--n", "2", "--s", "0"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["a"] == 1.0
        assert record["c"] == pytest.approx(2.0, abs=1e-15)
        assert record["regime"] == "main_super"
        assert record["value"] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_coeffs_file(self, tmp_path):
        out = tmp_path / "p.csv"
        code = app(["pgf-coeffs", "--theta", "1", "--a", "1", "--c", "1",
                    "--k-max", "8", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "k,p"
        table = _load_csv(out)
        assert table.shape == (9, 2)
        assert np.allclose(table[:, 1], 0.5 ** (np.arange(9) + 1.0), atol=1e-15)

    def test_coeffs_finite_at_high_order(self, capsys):
        code = app(["pgf-coeffs", "--theta", "0.5", "--a", "1.5", "--c", "0.3",
                    "--k-max", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 202
        assert "nan" not in out.lower()

    def test_missing_parameter(self, capsys):
        assert app(["pgf-eval", "--a", "1", "--c", "1", "--s", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_regime(self, capsys):
        assert app(["pgf-eval", "--theta", "-0.5", "--a", "2", "--q", "0.2",
                    "--s", "0"]) == 2

    def test_q_out_of_range_names_q(self, capsys):
        assert app(["pgf-eval", "--theta", "0.5", "--a", "0.5", "--q", "1.5",
                    "--s", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "q in [0, 1)" in err

    def test_overflowing_derived_q_names_c(self, capsys):
        assert app(["pgf-eval", "--theta", "-0.01", "--a", "0.5", "--c", "1e10",
                    "--s", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "c = 10000000000.0" in err

    @pytest.mark.parametrize("argv", [
        ["pgf-eval", "--theta", "1", "--a", "1", "--c", "abc", "--s", "0"],
        ["kernel-eval", "--kind", "cmixed", "--theta", "1", "--c", "0.5,abc", "--rho", "0"],
    ])
    def test_unparsable_c_names_the_flag(self, capsys, argv):
        assert app(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--c" in err

    def test_numerical_failure_exit_code(self, capsys):
        code = app(["pgf-iterate", "--theta", "1", "--a", "2", "--c", "1",
                    "--n", "1000000000"])
        assert code == 3


class TestConfigFile:
    def test_config_supplies_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pgf": {"theta": 1.0, "a": 1.0, "c": 1.0}}))
        assert app(["pgf-eval", "--config", str(cfg), "--s", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pgf": {"theta": 1.0, "a": 1.0, "c": 1.0}}))
        assert app(["pgf-eval", "--config", str(cfg), "--c", "2", "--s", "0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pgff": {}}))
        assert app(["pgf-eval", "--config", str(cfg), "--theta", "1", "--a", "1",
                    "--c", "1", "--s", "0"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pgf": {"thate": 1.0}}))
        assert app(["pgf-eval", "--config", str(cfg), "--theta", "1", "--a", "1",
                    "--c", "1", "--s", "0"]) == 2

    def test_type_check(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mlp": {"widths": [16, "32"]}}))
        assert app(["pgf-eval", "--config", str(cfg), "--theta", "1", "--a", "1",
                    "--c", "1", "--s", "0"]) == 2

    def test_booleans_are_not_numbers(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pgf": {"theta": True, "a": 1, "c": 1},
                                   "kernel": {"kind": "pure", "depth": True}}))
        assert app(["kernel-eval", "--config", str(cfg), "--rho", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_output_format_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output": {"format": "csv"}}))
        assert app(["pgf-eval", "--config", str(cfg), "--theta", "1", "--a", "1",
                    "--c", "1", "--s", "0"]) == 2
        assert "'format'" in capsys.readouterr().err

    def test_output_path_from_config(self, tmp_path):
        out = tmp_path / "p.csv"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pgf": {"theta": 1.0, "a": 1.0, "c": 1.0},
                                   "output": {"path": str(out)}}))
        assert app(["pgf-coeffs", "--config", str(cfg), "--k-max", "4"]) == 0
        assert out.exists()


class TestActivationCommands:
    def test_curve_reference(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = app(["activation-curve", "--name", "relu", "--x-min", "-1",
                    "--x-max", "1", "--step", "0.5", "--out", str(out)])
        assert code == 0
        table = _load_csv(out)
        assert table.shape == (5, 2)
        assert table[0, 1] == 0.0                                   # phi(-1)
        assert table[4, 1] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("bounds, step, xs", [
        (("0", "1"), "0.3", [0.0, 0.3, 0.6, 0.9]),
        (("0", "1"), "1", [0.0, 1.0]),
        (("0", "1"), "0.25", [0.0, 0.25, 0.5, 0.75, 1.0]),
        (("-1", "2"), "0.7", [-1.0, -0.3, 0.4, 1.1, 1.8]),
    ], ids=["partial-step", "one-step", "whole-steps", "offset-start"])
    def test_curve_grid_honours_step(self, tmp_path, bounds, step, xs):
        # x_min + k * step up to x_max; x_max only when the steps fit it.
        out = tmp_path / "curve.csv"
        assert app(["activation-curve", "--name", "relu", "--x-min", bounds[0],
                    "--x-max", bounds[1], "--step", step, "--out", str(out)]) == 0
        grid = _load_csv(out)[:, 0]
        assert grid == pytest.approx(xs, abs=1e-15)
        assert grid[-1] <= float(bounds[1])

    def test_curve_default_grid(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert app(["activation-curve", "--name", "relu", "--out", str(out)]) == 0
        grid = _load_csv(out)[:, 0]
        assert grid.shape == (601,)
        assert grid[0] == -3.0 and grid[-1] == 3.0
        assert np.max(np.abs(np.diff(grid) - 0.01)) < 1e-12

    def test_round_trip_through_files(self, tmp_path):
        first = tmp_path / "p.csv"
        second = tmp_path / "p2.csv"
        args = ["--theta", "0.5", "--a", "0.5", "--q", "0.25", "--k-max", "30"]
        assert app(["pgf-coeffs", *args, "--out", str(first)]) == 0
        assert app(["activation-to-pgf", "--coeffs", str(first),
                    "--k-max", "30", "--out", str(second)]) == 0
        original = _load_csv(first)[:, 1]
        recovered = _load_csv(second)[:, 1]
        assert np.max(np.abs(recovered - original)) < 1e-8

    def test_to_pgf_reference(self, tmp_path):
        out = tmp_path / "p.csv"
        assert app(["activation-to-pgf", "--name", "relu", "--k-max", "4",
                    "--out", str(out)]) == 0
        table = _load_csv(out)
        assert table[0, 1] == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert table[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_theta_source_inferred_from_flags(self, tmp_path):
        out = tmp_path / "p.csv"
        assert app(["activation-to-pgf", "--theta", "1", "--a", "1", "--c", "1",
                    "--k-max", "6", "--out", str(out)]) == 0
        table = _load_csv(out)
        assert table[0, 1] == pytest.approx(0.5, abs=1e-10)

    def test_prelu_slope_spelling(self, tmp_path):
        out = tmp_path / "p.csv"
        assert app(["activation-to-pgf", "--name", "prelu(0.25)", "--k-max", "2",
                    "--out", str(out)]) == 0
        scale_sq = 2.0 / (1.0 + 0.0625)
        expected = scale_sq * (0.25 + 0.75 * 0.5) ** 2
        assert _load_csv(out)[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_slope_flag_removed(self, capsys):
        # a slope is part of the name, prelu(S)
        with pytest.raises(SystemExit):
            app(["activation-to-pgf", "--name", "prelu", "--slope", "0.25"])

    def test_theta_to_pgf_writes_the_pgf_coefficients(self, tmp_path):
        # a theta activation holds its PGF, so recovery returns its p_k bit
        # for bit; rebuilding them as sqrt(p_k)^2 changed 27 of 65 rows
        flags = ["--theta", "0.5", "--a", "0.5", "--q", "0.3", "--k-max", "64"]
        recovered, coeffs = tmp_path / "recovered.csv", tmp_path / "coeffs.csv"
        assert app(["activation-to-pgf", *flags, "--out", str(recovered)]) == 0
        assert app(["pgf-coeffs", *flags, "--out", str(coeffs)]) == 0
        assert recovered.read_bytes() == coeffs.read_bytes()


class TestKernelCommands:
    def test_eval_pure(self, capsys):
        code = app(["kernel-eval", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "2", "--rho", "0"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_eval_from_vectors(self, capsys):
        code = app(["kernel-eval", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--x", "1,0", "--z", "0,1"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-15)

    def test_non_finite_vector_rejected(self, capsys):
        assert app(["kernel-eval", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--x", "1,nan", "--z", "1,0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_zero_length_vectors_rejected(self, capsys):
        assert app(["kernel-eval", "--theta", "1", "--a", "1", "--c", "1", "--depth", "1",
                    "--x", ",", "--z", ","]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rho_and_vectors_conflict(self, capsys):
        assert app(["kernel-eval", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--rho", "0", "--x", "1,0",
                    "--z", "0,1"]) == 2

    def test_eval_cmixed(self, capsys):
        code = app(["kernel-eval", "--kind", "cmixed", "--theta", "1",
                    "--c", "1,1", "--rho", "0"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_eval_mixed_factors_file(self, tmp_path, capsys):
        factors = tmp_path / "factors.json"
        factors.write_text(json.dumps([{"theta": 1.0, "a": 1.0, "c": 1.0},
                                       {"theta": 1.0, "a": 1.0, "c": 1.0}]))
        code = app(["kernel-eval", "--kind", "mixed", "--factors", str(factors),
                    "--rho", "0"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("entry, key", [({"a": 1.0, "c": 1.0}, "'theta'"),
                                            ({"theta": 1.0, "a": 1.0, "cc": 1.0}, "'cc'"),
                                            ({"theta": True, "a": 1.0, "c": 1.0}, "pgf.theta")])
    def test_factors_entry_keys_checked(self, tmp_path, capsys, entry, key):
        factors = tmp_path / "factors.json"
        factors.write_text(json.dumps([{"theta": 1.0, "a": 1.0, "c": 1.0}, entry]))
        assert app(["kernel-eval", "--kind", "mixed", "--factors", str(factors),
                    "--rho", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_mixed_needs_factors(self, capsys):
        assert app(["kernel-eval", "--kind", "mixed", "--rho", "0"]) == 2

    def test_gram(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("1.0,0.0\n-1.0,0.0\n")
        out = tmp_path / "gram.csv"
        code = app(["kernel-gram", "--kind", "pure", "--theta", "-1", "--a", "0.5",
                    "--q", "0", "--depth", "1", "--points", str(points),
                    "--out", str(out)])
        assert code == 0
        matrix = _load_csv(out)
        assert np.allclose(matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_limit_pure(self, capsys):
        code = app(["kernel-limit", "--kind", "pure", "--theta", "0.5", "--a", "0.5",
                    "--q", "0.3", "--depth", "1", "--rho", "0"])
        assert code == 0
        assert float(capsys.readouterr().out) == 0.3

    def test_limit_cmixed_needs_convergence_info(self, capsys):
        assert app(["kernel-limit", "--kind", "cmixed", "--theta", "0.5",
                    "--c", "0.1,0.2", "--rho", "0"]) == 2

    def test_limit_cmixed_diverges(self, capsys):
        code = app(["kernel-limit", "--kind", "cmixed", "--theta", "0.5",
                    "--c", "0.1,0.2", "--rho", "0", "--c-sum", "inf"])
        assert code == 0
        assert float(capsys.readouterr().out) == 1.0

    def test_eigen_json(self, tmp_path):
        out = tmp_path / "eigen.json"
        code = app(["kernel-eigen", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--m", "3", "--k-max", "4",
                    "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["dimension"] == 3
        assert record["surface_area"] == pytest.approx(4.0 * math.pi, abs=1e-12)
        assert len(record["entries"]) == 5
        assert record["entries"][1]["multiplicity"] == 3

    def test_eigen_dimension_two_rejected(self, capsys):
        assert app(["kernel-eigen", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--m", "2", "--k-max", "4"]) == 2

    def test_eigen_dimension_beyond_gamma_range(self, capsys):
        # Gamma(m/2) overflows from m = 344 on: a numerical failure naming m
        assert app(["kernel-eigen", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--m", "400", "--k-max", "3"]) == 3
        assert "m = 400" in capsys.readouterr().err


class TestMlpStudy:
    def test_table(self, tmp_path):
        out = tmp_path / "study.csv"
        code = app(["mlp-study", "--activation", "relu", "--depth", "1",
                    "--widths", "16,32", "--samples", "200", "--seed", "1",
                    "--rho", "0.5", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "width,estimate,se,reference,gap"
        table = _load_csv(out)
        assert table.shape == (2, 5)
        assert table[0, 0] == 16.0 and table[1, 0] == 32.0
        assert table[0, 3] == table[1, 3]                   # shared reference
        closed = (math.sqrt(0.75) + 0.5 * (math.pi - math.acos(0.5))) / math.pi
        assert table[0, 3] == pytest.approx(closed, abs=1e-8)

    def test_identical_inputs_have_no_gap(self, tmp_path):
        # the limit at rho 1 is exactly 1; a truncated series read 0.99988
        out = tmp_path / "study.csv"
        code = app(["mlp-study", "--activation", "relu", "--depth", "2",
                    "--widths", "16,64", "--samples", "200", "--seed", "1",
                    "--rho", "1", "--out", str(out)])
        assert code == 0
        table = _load_csv(out)
        assert table[:, 3].tolist() == [1.0, 1.0]
        assert table[:, 4].tolist() == [0.0, 0.0]

    def test_mixed_layers(self, tmp_path):
        out = tmp_path / "study.csv"
        code = app(["mlp-study", "--activation", "linear,relu", "--depth", "2",
                    "--widths", "16", "--samples", "150", "--seed", "3",
                    "--rho", "0.0", "--out", str(out)])
        assert code == 0
        assert _load_csv(out).shape == (1, 5)

    def test_activation_count_mismatch(self, capsys):
        assert app(["mlp-study", "--activation", "linear,relu", "--depth", "3",
                    "--widths", "16", "--samples", "150"]) == 2

    def test_fractional_widths_rejected(self, capsys):
        assert app(["mlp-study", "--widths", "16.7,32.2", "--samples", "100"]) == 2
        assert "--widths" in capsys.readouterr().err

    def test_malformed_activation_name(self, capsys):
        # read as prelu(0.5) when the parser stripped "():" around the slope
        assert app(["mlp-study", "--activation", "prelu)0.5(", "--widths", "16",
                    "--samples", "150"]) == 2
        assert "prelu)0.5(" in capsys.readouterr().err

    def test_rho_range(self, capsys):
        assert app(["mlp-study", "--widths", "16", "--samples", "150",
                    "--rho", "1.5"]) == 2


class TestGpCommands:
    def _write_training(self, tmp_path):
        rng = np.random.default_rng(8)
        coords = rng.standard_normal((8, 3))
        targets = rng.standard_normal(8)
        train = tmp_path / "train.csv"
        rows = [",".join(repr(float(v)) for v in (*row, t))
                for row, t in zip(coords, targets)]
        train.write_text("\n".join(rows) + "\n")
        return train, coords, targets

    def test_fit_and_predict_round_trip(self, tmp_path, capsys):
        train, coords, targets = self._write_training(tmp_path)
        model_path = tmp_path / "model.json"
        code = app(["gp-fit", "--kind", "pure", "--theta", "0.5", "--a", "1.2",
                    "--c", "0.4", "--depth", "2", "--train", str(train),
                    "--model-out", str(model_path)])
        assert code == 0
        assert "jitter_level=0" in capsys.readouterr().out
        record = json.loads(model_path.read_text())
        assert record["kernel"]["kind"] == "pure"
        assert len(record["inputs"]) == 8

        query = tmp_path / "query.csv"
        query.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                   for row in coords) + "\n")
        out = tmp_path / "pred.csv"
        code = app(["gp-predict", "--model", str(model_path), "--query", str(query),
                    "--out", str(out)])
        assert code == 0
        table = _load_csv(out)
        assert table.shape == (8, 2)
        assert np.max(np.abs(table[:, 0] - targets)) < 1e-6     # interpolation
        assert np.all(table[:, 1] >= 0.0)

    def test_predict_matches_library(self, tmp_path):
        train, coords, targets = self._write_training(tmp_path)
        model_path = tmp_path / "model.json"
        assert app(["gp-fit", "--kind", "pure", "--theta", "0.5", "--a", "1.2",
                    "--c", "0.4", "--depth", "2", "--train", str(train),
                    "--noise", "0.01", "--model-out", str(model_path)]) == 0
        query = tmp_path / "query.csv"
        query.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                   for row in coords[:3]) + "\n")
        out = tmp_path / "pred.csv"
        assert app(["gp-predict", "--model", str(model_path),
                    "--query", str(query), "--out", str(out)]) == 0
        table = _load_csv(out)
        spec = PureKernel(make_theta_pgf(theta=0.5, a=1.2, c=0.4), 2)
        expected = gp_predict(gp_fit(spec, coords, targets, 0.01), coords[:3])
        assert np.allclose(table[:, 0], expected.means, atol=1e-10)
        assert np.allclose(table[:, 1], expected.variances, atol=1e-10)

    def test_duplicate_rows_report_jitter(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("1.0,0.0,2.0\n1.0,0.0,2.0\n0.0,1.0,-1.0\n")
        model_path = tmp_path / "model.json"
        code = app(["gp-fit", "--kind", "pure", "--theta", "0.5", "--a", "1.2",
                    "--c", "0.4", "--depth", "1", "--train", str(train),
                    "--model-out", str(model_path)])
        assert code == 0
        assert json.loads(model_path.read_text())["jitter_level"] >= 1

    def test_bad_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"inputs": []}))
        query = tmp_path / "query.csv"
        query.write_text("1.0,0.0\n")
        assert app(["gp-predict", "--model", str(model), "--query", str(query)]) == 2

    # Each value reaches gp.fit as the file holds it and is refused there.
    @pytest.mark.parametrize("field, value", [
        ("targets", ["a"]),
        ("noise", [0.0]),
        ("inputs", [[1.0, 0.0], [1.0]]),
    ], ids=["str-targets", "list-noise", "ragged-inputs"])
    def test_bad_model_values(self, tmp_path, capsys, field, value):
        record = {"kernel": {"kind": "pure", "depth": 1,
                             "pgf": {"theta": 1.0, "a": 1.0, "c": 1.0}},
                  "inputs": [[1.0, 0.0]], "targets": [0.5], "noise": 0.0}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**record, field: value}))
        query = tmp_path / "query.csv"
        query.write_text("1.0,0.0\n")
        assert app(["gp-predict", "--model", str(model), "--query", str(query)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kernel, message", [
        ({"kind": "pure", "depth": 1, "pgf": {"a": 1.0, "c": 1.0}}, "'theta'"),
        ({"kind": "pure", "depth": 2.5, "pgf": {"theta": 1.0, "a": 1.0, "c": 1.0}},
         "kernel.depth"),
        ({"kind": "cmixed", "theta": 0.5}, "'c_sequence'"),
        ({"kind": "pure", "depth": True, "pgf": {"theta": 1.0, "a": 1.0, "c": 1.0}},
         "kernel.depth"),
        ({"kind": "cmixed", "theta": False, "c_sequence": [0.5]}, "pgf.theta"),
        ({"kind": "mixed", "factors": []}, "non-empty"),
    ])
    def test_malformed_model_kernel(self, tmp_path, capsys, kernel, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kernel": kernel, "inputs": [[1.0, 0.0]],
                                     "targets": [0.5], "noise": 0.0}))
        query = tmp_path / "query.csv"
        query.write_text("1.0,0.0\n")
        assert app(["gp-predict", "--model", str(model), "--query", str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    # Kernel records exactly as earlier releases of gp-fit wrote them.
    @pytest.mark.parametrize("record, spec", [
        ({"kind": "pure", "depth": 2,
          "pgf": {"theta": 0.0, "a": 0.5, "c": None, "q": 0.3, "r": 1.0}},
         PureKernel(make_theta_pgf(theta=0.0, a=0.5, q=0.3), 2)),
        ({"kind": "cmixed", "theta": 0.5, "c_sequence": [0.3, 0.2]},
         CMixedKernel(0.5, (0.3, 0.2))),
        ({"kind": "mixed",
          "factors": [{"theta": 1.0, "a": 1.0, "c": 1.0, "q": None, "r": 1.0},
                      {"theta": -1.0, "a": 0.5, "c": None, "q": 0.2, "r": 1.0}]},
         MixedKernel((make_theta_pgf(theta=1.0, a=1.0, c=1.0),
                      make_theta_pgf(theta=-1.0, a=0.5, q=0.2)))),
    ])
    def test_existing_model_file_loads(self, tmp_path, record, spec):
        inputs = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
        targets = [0.5, -0.25, 0.1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kernel": record, "inputs": inputs,
                                     "targets": targets, "noise": 0.01,
                                     "jitter": 0.0, "jitter_level": 0}, indent=2))
        query = tmp_path / "query.csv"
        query.write_text("0.8,0.6\n-1.0,0.0\n")
        out = tmp_path / "pred.csv"
        assert app(["gp-predict", "--model", str(model), "--query", str(query),
                    "--out", str(out)]) == 0
        expected = gp_predict(gp_fit(spec, inputs, targets, 0.01), [[0.8, 0.6], [-1.0, 0.0]])
        table = _load_csv(out)
        assert np.array_equal(table[:, 0], expected.means)
        assert np.array_equal(table[:, 1], expected.variances)

    def test_predict_reports_clamped_variances(self, tmp_path, monkeypatch, capsys):
        train, _, _ = self._write_training(tmp_path)
        model_path = tmp_path / "model.json"
        assert app(["gp-fit", *_PURE, "--train", str(train),
                    "--model-out", str(model_path)]) == 0
        query = tmp_path / "query.csv"
        query.write_text("1.0,0.0,0.0\n")
        monkeypatch.setattr("thetakernels.cli.gp_predict",
                            lambda model, q: gp_predict(model, q)._replace(num_clamped=2))
        capsys.readouterr()
        assert app(["gp-predict", "--model", str(model_path), "--query", str(query),
                    "--out", str(tmp_path / "pred.csv")]) == 0
        assert capsys.readouterr().err == "clamped 2 negative variances\n"

    def test_train_needs_target_column(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("1.0\n2.0\n")
        assert app(["gp-fit", "--kind", "pure", "--theta", "1", "--a", "1",
                    "--c", "1", "--depth", "1", "--train", str(train),
                    "--model-out", str(tmp_path / "m.json")]) == 2


_PURE = ["--kind", "pure", "--theta", "1", "--a", "1", "--c", "1", "--depth", "1"]
_GRAM = ["kernel-gram", *_PURE, "--points", "{d}/points.csv"]
_CONFIG = ["pgf-eval", "--s", "0", "--config", "{d}/config.json"]


class TestInputErrors:
    # Each bad input exits 2 with a one-line error naming its file or flag;
    # "{d}" stands for the test's directory.
    @pytest.mark.parametrize("files, argv, needle", [
        ({}, _GRAM, "{d}/points.csv"),
        ({"points.csv": ""}, _GRAM, "{d}/points.csv"),
        ({"points.csv": "x0,x1\n"}, _GRAM, "{d}/points.csv"),
        ({"points.csv": "1.0,0.0\n1.0,abc\n"}, _GRAM, "{d}/points.csv"),
        ({}, _CONFIG, "{d}/config.json"),
        ({"config.json": "{"}, _CONFIG, "{d}/config.json"),
        ({"config.json": "[]"}, _CONFIG, "{d}/config.json"),
        ({"factors.json": "[1.0]"},
         ["kernel-eval", "--kind", "mixed", "--factors", "{d}/factors.json", "--rho", "0"],
         "factor 0"),
        ({"model.json": json.dumps({"kernel": {"kind": "foo"}, "inputs": [[1.0, 0.0]],
                                    "targets": [0.5], "noise": 0.0}),
          "query.csv": "1.0,0.0\n"},
         ["gp-predict", "--model", "{d}/model.json", "--query", "{d}/query.csv"],
         "model kernel record"),
        ({}, ["activation-curve", "--source", "reference"], "--name"),
        ({}, ["activation-curve", "--name", "relu", "--x-min", "1", "--x-max", "0"],
         "--x-min"),
        ({}, ["kernel-eval", *_PURE], "--rho"),
        ({}, ["kernel-limit", *_PURE, "--rho", "0", "--c-sum", "-3"], "c_sum"),
        ({}, ["mlp-study"], "--widths"),
        ({}, ["mlp-study", "--depth", "1000000000000000000", "--widths", "8"], "--depth"),
        ({}, ["mlp-study", "--activation", "prelu(1e200)", "--widths", "64"],
         "finite square"),
        ({}, ["activation-curve", "--name", "prelu(1e200)"], "--name"),
        ({}, ["pgf-coeffs", "--theta", "1", "--a", "1", "--c", "1",
              "--out", "{d}/missing/x.csv"], "{d}/missing/x.csv"),
        ({}, ["activation-curve", "--name", "relu", "--x-min", "0", "--x-max", "1e300",
              "--step", "1e-300"], "--step"),
        ({}, ["activation-curve", "--name", "relu", "--x-min", "0", "--x-max", "1e20",
              "--step", "1"], "--step"),
        ({}, ["kernel-eval", "--kind", "cmixed", "--theta", "0.5", "--c", "1e308,1e308",
              "--rho", "0.5"], "sum of c"),
        ({}, ["activation-curve", "--name", "relu", "--x-min", "0", "--x-max", "1",
              "--step", "inf"], "--step"),
        ({}, ["activation-curve", "--name", "relu", "--x-min", "0", "--x-max", "1",
              "--step", "1.5"], "--step"),
    ], ids=["points-missing", "points-empty", "points-header-only", "points-non-numeric",
            "config-missing", "config-not-json", "config-list", "factor-not-object",
            "model-kind", "curve-no-name", "grid-reversed", "eval-no-rho",
            "pure-limit-c-sum", "study-no-widths", "study-depth-too-large",
            "study-activation-reason", "curve-name-flag", "out-unwritable", "grid-overflow",
            "grid-too-many-points", "cmixed-c-sum-overflow", "grid-step-inf",
            "grid-step-past-range"])
    def test_exit_2_naming_the_source(self, tmp_path, capsys, files, argv, needle):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert app([arg.replace("{d}", str(tmp_path)) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle.replace("{d}", str(tmp_path)) in err

    def test_ragged_rows_named_ragged(self, tmp_path, capsys):
        (tmp_path / "points.csv").write_text("1,0\n1\n")
        assert app([arg.replace("{d}", str(tmp_path)) for arg in _GRAM]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ragged" in err and "non-numeric" not in err
        assert "[1, 2] columns" in err


class TestFig1:
    def test_linear_case_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = app(["reproduce-fig1", "--case", "linear", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("sup_distance ")
        table = _load_csv(out)
        assert table.shape == (601, 3)
        assert table[0, 0] == -3.0 and table[-1, 0] == 3.0

    def test_output_is_bitwise_stable(self, tmp_path, capsys):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert app(["reproduce-fig1", "--case", "prelu-proxy", "--out", str(first)]) == 0
        first_line = capsys.readouterr().out
        assert app(["reproduce-fig1", "--case", "prelu-proxy", "--out", str(second)]) == 0
        second_line = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert first_line == second_line

    def test_unknown_case(self):
        with pytest.raises(SystemExit):
            app(["reproduce-fig1", "--case", "cubic"])


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        # Build the shim an installer writes for the committed [project.scripts]
        # entry and run it against this checkout, installed or not.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, attr = scripts["theta-kernels"].split(":")
        shim = tmp_path / "theta-kernels"
        shim.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n")
        shim.chmod(0o755)
        exe = shutil.which("theta-kernels", path=str(tmp_path))
        assert exe, "console script theta-kernels not generated"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

        def run(*args):
            return subprocess.run([exe, *args], capture_output=True, text=True,
                                  timeout=60, env=env, cwd=tmp_path)

        proc = run("pgf-eval", "--theta", "1", "--a", "1", "--c", "1", "--s", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0.5"
        proc = run("pgf-eval", "--theta", "-0.5", "--a", "2", "--q", "0.2", "--s", "0")
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr


class TestConfigKeys:
    """Each config key sets its subcommand's input, and the flag beats it."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        """run(argv, config=None) -> (exit status, stdout, files written).

        Commands run in an empty directory, with data files one level up."""
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((6, 3))
        np.savetxt(tmp_path / "train.csv", np.column_stack([coords, coords[:, 0]]),
                   delimiter=",")
        np.savetxt(tmp_path / "points.csv", coords, delimiter=",")
        (tmp_path / "model.json").write_text(json.dumps({
            "kernel": {"kind": "pure", "depth": 2,
                       "pgf": {"theta": 1.0, "a": 1.0, "c": 1.0}},
            "inputs": coords.tolist(), "targets": coords[:, 0].tolist(), "noise": 0.01}))
        workdir = tmp_path / "run"
        workdir.mkdir()
        monkeypatch.chdir(workdir)

        def run(argv, config=None):
            for path in workdir.iterdir():
                path.unlink()
            if config is not None:
                (tmp_path / "cfg.json").write_text(json.dumps(config))
                argv = [*argv, "--config", str(tmp_path / "cfg.json")]
            capsys.readouterr()
            code = app(argv)
            files = {path.name: path.read_bytes() for path in workdir.iterdir()}
            return code, capsys.readouterr().out, files

        return run

    # (section, key, command, config value, the same value as flags, another value)
    CASES = [
        ("pgf", "theta", ["pgf-eval", "--a", "1", "--c", "1", "--s", "0.5"],
         1.0, ["--theta", "1"], 0.5),
        ("pgf", "a", ["pgf-eval", "--theta", "1", "--c", "1", "--s", "0.5"],
         1.0, ["--a", "1"], 1.5),
        ("pgf", "c", ["pgf-eval", "--theta", "1", "--a", "1", "--s", "0.5"],
         1.0, ["--c", "1"], 2.0),
        ("pgf", "q", ["pgf-eval", "--theta", "0.5", "--a", "0.5", "--s", "0.5"],
         0.3, ["--q", "0.3"], 0.2),
        ("pgf", "r", ["pgf-eval", "--theta", "0.5", "--a", "0.5", "--q", "0.3",
                      "--s", "0.5"], 2.0, ["--r", "2"], 1.5),
        ("kernel", "kind", ["kernel-eval", "--theta", "1", "--a", "1.2", "--c", "0.5",
                            "--depth", "1", "--rho", "0.3"], "cmixed", ["--kind", "cmixed"],
         "pure"),
        ("kernel", "depth", ["kernel-eval", "--theta", "1", "--a", "1", "--c", "1",
                             "--rho", "0.3"], 2, ["--depth", "2"], 3),
        ("kernel", "c_sequence", ["kernel-eval", "--kind", "cmixed", "--theta", "1",
                                  "--rho", "0.3"], [0.5, 0.25], ["--c", "0.5,0.25"], [0.5]),
        ("activation", "source", ["activation-to-pgf", "--theta", "1", "--a", "1", "--c", "1",
                                  "--name", "relu", "--k-max", "4"], "reference",
         ["--source", "reference"], "theta"),
        ("activation", "name", ["activation-to-pgf", "--source", "reference", "--k-max", "4"],
         "relu", ["--name", "relu"], "linear"),
        ("activation", "k_max", ["pgf-coeffs", "--theta", "1", "--a", "1", "--c", "1"],
         4, ["--k-max", "4"], 6),
        ("activation", "k_max", ["activation-curve", "--theta", "1", "--a", "1", "--c", "1",
                                 "--step", "0.5"], 4, ["--k-max", "4"], 6),
        ("activation", "k_max", ["activation-to-pgf", "--name", "relu"],
         4, ["--k-max", "4"], 6),
        ("activation", "k_max", ["kernel-eigen", "--theta", "1", "--a", "1", "--c", "1",
                                 "--depth", "1", "--m", "3"], 4, ["--k-max", "4"], 6),
        ("activation", "k_max", ["reproduce-fig1", "--case", "prelu-proxy"],
         8, ["--k-max", "8"], 12),
        ("mlp", "widths", ["mlp-study", "--depth", "1", "--samples", "100", "--seed", "1"],
         [16, 32], ["--widths", "16,32"], [16]),
        ("mlp", "samples", ["mlp-study", "--depth", "1", "--widths", "16", "--seed", "1"],
         100, ["--samples", "100"], 120),
        ("mlp", "seed", ["mlp-study", "--depth", "1", "--widths", "16", "--samples", "100"],
         1, ["--seed", "1"], 2),
        ("gp", "noise", ["gp-fit", "--theta", "1", "--a", "1", "--c", "1", "--depth", "2",
                         "--train", "../train.csv", "--model-out", "m.json"],
         0.01, ["--noise", "0.01"], 0.1),
        ("output", "path", ["pgf-coeffs", "--theta", "1", "--a", "1", "--c", "1",
                            "--k-max", "4"], "a.csv", ["--out", "a.csv"], "b.csv"),
        ("output", "path", ["activation-curve", "--name", "relu", "--step", "0.5"],
         "a.csv", ["--out", "a.csv"], "b.csv"),
        ("output", "path", ["activation-to-pgf", "--name", "relu", "--k-max", "4"],
         "a.csv", ["--out", "a.csv"], "b.csv"),
        ("output", "path", ["kernel-gram", "--theta", "1", "--a", "1", "--c", "1",
                            "--depth", "1", "--points", "../points.csv"],
         "a.csv", ["--out", "a.csv"], "b.csv"),
        ("output", "path", ["kernel-eigen", "--theta", "1", "--a", "1", "--c", "1",
                            "--depth", "1", "--m", "3", "--k-max", "4"],
         "a.json", ["--out", "a.json"], "b.json"),
        ("output", "path", ["mlp-study", "--depth", "1", "--widths", "16",
                            "--samples", "100"], "a.csv", ["--out", "a.csv"], "b.csv"),
        ("output", "path", ["gp-predict", "--model", "../model.json",
                            "--query", "../points.csv"], "a.csv", ["--out", "a.csv"], "b.csv"),
        ("output", "path", ["reproduce-fig1", "--case", "linear"],
         "a.csv", ["--out", "a.csv"], "b.csv"),
    ]

    def test_cases_cover_the_schema(self):
        from thetakernels.cli import _CONFIG_SCHEMA
        assert {(section, key) for section, key, *_ in self.CASES} == set(_CONFIG_SCHEMA)

    @pytest.mark.parametrize("section, key, argv, value, flags, other", CASES,
                             ids=[f"{c[0]}.{c[1]}-{c[2][0]}" for c in CASES])
    def test_config_sets_input_and_flag_overrides(self, run, section, key, argv, value,
                                                  flags, other):
        expected = run([*argv, *flags])
        assert expected[0] == 0
        assert run(argv, {section: {key: value}}) == expected
        assert run([*argv, *flags], {section: {key: other}}) == expected
        assert run(argv, {section: {key: other}}) != expected

    def test_pure_reads_pgf_c_and_cmixed_reads_c_sequence(self, run):
        config = {"pgf": {"c": 0.5}, "kernel": {"c_sequence": [0.25, 0.125]}}
        pure = ["kernel-eval", "--kind", "pure", "--theta", "1", "--a", "1",
                "--depth", "2", "--rho", "0.3"]
        cmixed = ["kernel-eval", "--kind", "cmixed", "--theta", "1", "--rho", "0.3"]
        assert run(pure, config) == run([*pure, "--c", "0.5"])
        assert run(cmixed, config) == run([*cmixed, "--c", "0.25,0.125"])
        for argv in (pure, cmixed):                         # --c beats both keys
            assert run([*argv, "--c", "0.75"], config) == run([*argv, "--c", "0.75"])
        assert run(cmixed, {"pgf": {"c": 0.5}})[0] == 2
        assert run(pure, {"kernel": {"c_sequence": [0.5]}})[0] == 2

    def test_kernel_depth_leaves_mlp_study_depth(self, run):
        argv = ["mlp-study", "--activation", "linear,relu", "--widths", "16",
                "--samples", "100"]
        expected = run(argv)
        assert expected[0] == 0
        assert run(argv, {"kernel": {"depth": 5}}) == expected
        assert run([*argv, "--depth", "2"], {"kernel": {"depth": 5}}) == expected


class TestGpModelRoundTrip:
    """gp-fit writes a kernel record that gp-predict reloads to the same spec."""

    @pytest.mark.parametrize("flags, spec", [
        (["--kind", "cmixed", "--theta", "0.5", "--c", "0.3,0.2,0.6"],
         CMixedKernel(0.5, (0.3, 0.2, 0.6))),
        (["--kind", "mixed", "--factors", "factors.json"],
         MixedKernel((make_theta_pgf(theta=1.0, a=1.2, c=0.4),
                      make_theta_pgf(theta=-1.0, a=0.5, q=0.2),
                      make_theta_pgf(theta=0.5, a=0.5, q=0.3, r=2.0)))),
    ], ids=["cmixed", "mixed"])
    def test_fit_then_predict(self, tmp_path, monkeypatch, capsys, flags, spec):
        from thetakernels.cli import _kernel_from_json
        monkeypatch.chdir(tmp_path)
        (tmp_path / "factors.json").write_text(json.dumps(
            [{"theta": 1.0, "a": 1.2, "c": 0.4}, {"theta": -1.0, "a": 0.5, "q": 0.2},
             {"theta": 0.5, "a": 0.5, "q": 0.3, "r": 2.0}]))
        rng = np.random.default_rng(12)
        coords, queries = rng.standard_normal((10, 3)), rng.standard_normal((4, 3))
        targets = np.sin(coords[:, 0])
        np.savetxt("train.csv", np.column_stack([coords, targets]), delimiter=",",
                   fmt="%.17g")
        np.savetxt("query.csv", queries, delimiter=",", fmt="%.17g")
        assert app(["gp-fit", *flags, "--train", "train.csv", "--noise", "0.01",
                    "--model-out", "model.json"]) == 0
        record = json.loads((tmp_path / "model.json").read_text())
        assert _kernel_from_json(record["kernel"], "model") == spec
        assert app(["gp-predict", "--model", "model.json", "--query", "query.csv",
                    "--out", "post.csv"]) == 0
        expected = gp_predict(gp_fit(spec, coords, targets, 0.01), queries)
        table = _load_csv(tmp_path / "post.csv")
        assert np.array_equal(table[:, 0], expected.means)
        assert np.array_equal(table[:, 1], expected.variances)

    # 300 points, where a refit from already-normalized rows changed the bits.
    @pytest.mark.parametrize("flags, spec", [
        (["--kind", "pure", "--theta", "0.5", "--a", "1.2", "--c", "0.4", "--depth", "2"],
         PureKernel(make_theta_pgf(theta=0.5, a=1.2, c=0.4), 2)),
        (["--kind", "cmixed", "--theta", "0.5", "--c", "0.3,0.2,0.6"],
         CMixedKernel(0.5, (0.3, 0.2, 0.6))),
        (["--kind", "mixed", "--factors", "factors.json"],
         MixedKernel((make_theta_pgf(theta=1.0, a=1.2, c=0.4),
                      make_theta_pgf(theta=-1.0, a=0.5, q=0.2),
                      make_theta_pgf(theta=0.5, a=0.5, q=0.3, r=2.0)))),
    ], ids=["pure", "cmixed", "mixed"])
    def test_predict_replays_the_library_fit(self, tmp_path, monkeypatch, flags, spec):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "factors.json").write_text(json.dumps(
            [{"theta": 1.0, "a": 1.2, "c": 0.4}, {"theta": -1.0, "a": 0.5, "q": 0.2},
             {"theta": 0.5, "a": 0.5, "q": 0.3, "r": 2.0}]))
        rng = np.random.default_rng(12)
        coords, queries = rng.standard_normal((300, 3)), rng.standard_normal((20, 3))
        targets = np.sin(coords[:, 0])
        np.savetxt("train.csv", np.column_stack([coords, targets]), delimiter=",",
                   fmt="%.17g")
        np.savetxt("query.csv", queries, delimiter=",", fmt="%.17g")
        assert app(["gp-fit", *flags, "--train", "train.csv", "--noise", "0.01",
                    "--model-out", "model.json"]) == 0
        record = json.loads((tmp_path / "model.json").read_text())
        assert record["inputs"] == coords.tolist()
        assert record["targets"] == targets.tolist()
        assert app(["gp-predict", "--model", "model.json", "--query", "query.csv",
                    "--out", "post.csv"]) == 0
        expected = gp_predict(gp_fit(spec, coords, targets, 0.01), queries)
        table = _load_csv(tmp_path / "post.csv")
        assert np.array_equal(table[:, 0], expected.means)
        assert np.array_equal(table[:, 1], expected.variances)
