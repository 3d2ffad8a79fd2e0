import argparse
import copy
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from gpdevopt import cli, testbed
from gpdevopt.boxes import SearchBox
from gpdevopt.cli import main
from gpdevopt.global_search import STRATEGIES, lhd_maximin
from gpdevopt.gp import DevianceObjective
from gpdevopt.testbed import TEST_FUNCTION_NAMES, rmspe, run_benchmark
from gpdevopt.testbed import test_function as make_test_function


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def row_read_table(path):
    """A row-at-a-time reader: one float per cell, errors at the file's line."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [name.strip() for name in next(reader)]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: non-numeric value") from None
    return header, rows


def legacy_write_csv(handle, header, rows):
    """The csv.writer table the CLI wrote before it joined rows itself."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def goldstein_price_csv(path, n=20, seed=0):
    fn = make_test_function("goldstein-price")
    rng = np.random.default_rng(seed)
    unit = lhd_maximin(n, SearchBox(np.zeros(2), np.ones(2)), rng)
    native = fn.to_native(unit)
    y = fn.fn(native)
    write_csv(path, ["x1", "x2", "y"], [[*native[i], y[i]] for i in range(n)])
    return native, y


def hump_csv(path, n=10, seed=11):
    fn = make_test_function("hump")
    rng = np.random.default_rng(seed)
    unit = lhd_maximin(n, SearchBox(np.zeros(1), np.ones(1)), rng)
    native = fn.to_native(unit)
    y = fn.fn(native)
    write_csv(path, ["x1", "y"], [[native[i, 0], y[i]] for i in range(n)])
    return native, y


class TestFitCommand:
    def test_model_shape_and_summary(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        model_path = tmp_path / "model.json"
        goldstein_price_csv(data)
        rc = main(["fit", "--data", str(data), "--out", str(model_path), "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deviance=" in out and "fe=" in out and "delta=" in out
        payload = json.loads(model_path.read_text())
        assert len(payload["beta"]) == 2
        assert payload["format_version"] == 1
        assert len(payload["points"]) == 20

    def test_byte_identical_reruns(self, tmp_path):
        data = tmp_path / "train.csv"
        goldstein_price_csv(data)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["fit", "--data", str(data), "--out", str(p), "--seed", "4"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_constant_output_rejected(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        write_csv(data, ["x1", "y"], [[0.1, 2.0], [0.4, 2.0], [0.9, 2.0]])
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unfittable_design_exits_2_without_a_model_file(self, tmp_path, monkeypatch, capsys):
        def infinite(self, beta):
            self.fe_count += 1
            return math.inf

        monkeypatch.setattr(DevianceObjective, "__call__", infinite)
        data = tmp_path / "train.csv"
        write_csv(data, ["x1", "y"], [[0.0, 1.0], [0.3, 0.2], [0.55, -0.5], [1.0, 0.8]])
        model_path = tmp_path / "m.json"
        rc = main(["fit", "--data", str(data), "--out", str(model_path)])
        assert rc == 2
        assert "error: every start produced a non-finite deviance" in capsys.readouterr().err
        assert not model_path.exists()

    def test_box_scale_option_is_a_usage_error(self, capsys):
        # Every strategy searches the fixed boxes; the option no longer parses.
        for argv in (
            ["fit", "--data", "train.csv", "--out", "m.json"],
            ["surface", "--function", "hump", "--grid", "3"],
            ["benchmark", "--function", "hump"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--box-scale", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --box-scale 2" in capsys.readouterr().err

    def test_duplicate_rows_rejected(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        write_csv(data, ["x1", "y"], [[0.1, 1.0], [0.1, 1.0], [0.9, 3.0]])
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_malformed_csv_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x1,y\n0.1,oops\n")
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "bad.csv:2: non-numeric value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            # Blank lines count: the bad row is the file's fourth line.
            ("x1,y\n0.1,1.0\n\n0.5,oops\n", "bad.csv:4: non-numeric value"),
            ("x1,y\n0.1,1.0\n0.5,2.0,3.0\n", "bad.csv:3: expected 2 fields"),
            ("x1,y\n\n\n0.1,1.0\n0.2,2.0\n\n0.3,\n", "bad.csv:7: non-numeric value"),
            # A quoted cell spanning lines 2-3 puts the next record on line 4.
            ('x1,y\n"0.1\n",1\n0.2,oops\n', "bad.csv:4: non-numeric value"),
            ('x1,y\n"0.1\n",1\n0.2,2.0,3.0\n', "bad.csv:4: expected 2 fields"),
        ],
    )
    def test_malformed_csv_names_its_line(self, tmp_path, capsys, text, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {data.parent}/{message}\n"
        with pytest.raises(ValueError) as by_row:
            row_read_table(str(data))
        assert str(by_row.value).endswith(message)

    def test_byte_order_mark_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        hump_csv(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        models = [tmp_path / "plain.json", tmp_path / "marked.json"]
        for data, model in zip((plain, marked), models):
            assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_duplicate_column_rejected(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        write_csv(data, ["x1", "x1", "y"], [[0.1, 0.9, 1.0], [0.5, 0.2, 2.0], [0.9, 0.4, 3.0]])
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert "duplicate column name 'x1'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_missing_columns_rejected(self, tmp_path):
        data = tmp_path / "cols.csv"
        write_csv(data, ["a", "b"], [[0.0, 1.0], [1.0, 2.0]])
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_smoothness_exponent_switch(self, tmp_path):
        data = tmp_path / "train.csv"
        hump_csv(data)
        default_model = tmp_path / "p2.json"
        rough_model = tmp_path / "p199.json"
        assert main(["fit", "--data", str(data), "--out", str(default_model)]) == 0
        assert main(["fit", "--data", str(data), "--out", str(rough_model), "--p", "1.99"]) == 0
        assert json.loads(default_model.read_text())["p"] == [2.0]
        assert json.loads(rough_model.read_text())["p"] == [1.99]
        with pytest.raises(SystemExit):
            main(["fit", "--data", str(data), "--out", str(tmp_path / "x.json"), "--p", "1.5"])


class TestPredictCommand:
    def fit_hump(self, tmp_path):
        data = tmp_path / "train.csv"
        native, y = hump_csv(data)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        return model_path, native, y

    def test_roundtrip_on_training_points(self, tmp_path):
        model_path, native, y = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        span = y.max() - y.min()
        for row, target in zip(rows, y):
            assert abs(float(row["y_hat"]) - target) < 1e-6 * span
            assert float(row["mse"]) >= 0.0

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in np.linspace(native.min(), native.max(), 7)])
        out = tmp_path / "pred.csv"
        argv = ["predict", "--model", str(model_path), "--points", str(points)]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.encode("utf-8") == out.read_bytes()
        assert len(captured.out.splitlines()) == 8

    def test_byte_order_mark_points_accepted(self, tmp_path):
        model_path, native, _ = self.fit_hump(tmp_path)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(plain, ["x1"], [[v] for v in native[:, 0]])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = [tmp_path / "plain.pred.csv", tmp_path / "marked.pred.csv"]
        for points, out in zip((plain, marked), outs):
            argv = ["predict", "--model", str(model_path), "--points", str(points)]
            assert main(argv + ["--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_duplicate_point_column_rejected(self, tmp_path, capsys):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1", "x1"], [[native[0, 0], native[1, 0]]])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model_path), "--points", str(points)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "duplicate column name 'x1'" in captured.err
        assert captured.out == ""

    def test_empty_points_gives_header_only(self, tmp_path):
        model_path, _, _ = self.fit_hump(tmp_path)
        points = tmp_path / "empty.csv"
        write_csv(points, ["x1"], [])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == "x1,y_hat,mse"

    def test_loaded_model_reproduces_fitted_model(self, tmp_path):
        # The model rebuilt from the file predicts bit for bit like the model
        # `fit` returned for the same CSV (30-point Goldstein-Price design).
        from gpdevopt.cli import _load_model, _load_training_csv
        from gpdevopt.gp import fit, predict_many

        data = tmp_path / "train.csv"
        goldstein_price_csv(data, n=30, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        loaded, _, _ = _load_model(str(model_path))
        fitted = fit(_load_training_csv(str(data))[0], "DIRECT-BFGS", rng=0)
        points = np.random.default_rng(1).random((50, 2))
        for got, want in zip(predict_many(loaded, points), predict_many(fitted, points)):
            assert np.array_equal(got, want)

    def test_model_file_kappa_is_exact(self, tmp_path):
        # The fit's evaluations may prove kappa small without computing it;
        # the file still records the eigenvalue condition number of R.
        from gpdevopt.correlation import DistanceCache, nugget_and_kappa

        data = tmp_path / "train.csv"
        goldstein_price_csv(data, n=30, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        points = np.array(payload["points"], dtype=float, order="F")
        R = DistanceCache(points, payload["p"]).correlation(np.array(payload["beta"]))
        assert payload["kappa"] == nugget_and_kappa(R, payload["condition_exponent"])[1]

    def test_predict_output_feeds_back_as_points(self, tmp_path):
        data = tmp_path / "train.csv"
        native, _ = goldstein_price_csv(data, n=20, seed=0)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1", "x2"], [list(row) for row in native[:5] * 0.99])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        argv = ["predict", "--model", str(model_path), "--out"]
        assert main(argv + [str(first), "--points", str(points)]) == 0
        assert main(argv + [str(second), "--points", str(first)]) == 0
        assert "np.float64" not in first.read_text()
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("key", ["mu", "sigma2", "delta", "kappa"])
    def test_one_ulp_edit_still_loads(self, tmp_path, key):
        # The stored values are checked against the rebuilt model to within
        # rounding, not bit for bit: they need not carry across BLAS builds.
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        payload = json.loads(model_path.read_text())
        payload[key] = float(np.nextafter(payload[key], math.inf))
        model_path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(model_path), "--points", str(points)]) == 0

    def test_tampered_model_rejected(self, tmp_path, capsys):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        payload = json.loads(model_path.read_text())
        payload["beta"] = [payload["beta"][0] + 0.1]
        model_path.write_text(json.dumps(payload))
        rc = main(["predict", "--model", str(model_path), "--points", str(points)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "malformed",
        ["missing-points", "json-array", "json-number", "fe-count-null", "beta-object",
         "a-overflow", "a-tiny", "a-low", "a-high", "range-empty", "range-swapped", "range-shape",
         "range-inf", "fe-count-inf", "deviance-huge-int", "a-huge-int", "p-string", "fe-count-string",
         "fe-count-fraction", "fe-count-bool", "fe-count-negative", "beta-strings",
         "deviance-string", "a-string", "points-bool", "points-ragged", "points-row-empty",
         "outputs-nested", "format-version-bool",
         "kappa-banana", "delta-negative", "mu-null", "sigma2-list", "strategy-int",
         "seed-string", "mu-off", "sigma2-off", "kappa-off"],
    )
    def test_malformed_model_file_rejected(self, tmp_path, capsys, malformed):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in native[:, 0]])
        payload = json.loads(model_path.read_text())
        if malformed == "missing-points":
            del payload["points"]
        elif malformed == "json-array":
            payload = [payload]
        elif malformed == "fe-count-null":
            payload["fe_count"] = None
        elif malformed == "beta-object":
            payload["beta"] = {}
        elif malformed == "a-overflow":
            payload["condition_exponent"] = 1000.0
        elif malformed == "a-tiny":
            payload["condition_exponent"] = 1e-17
        elif malformed == "a-low":
            payload["condition_exponent"] = 5.0
        elif malformed == "a-high":
            payload["condition_exponent"] = 30.0
        elif malformed == "range-empty":
            payload["input_max"] = payload["input_min"]
        elif malformed == "range-swapped":
            payload["input_min"], payload["input_max"] = payload["input_max"], payload["input_min"]
        elif malformed == "range-shape":
            # Shape (1, 1) would broadcast against the points without an error.
            payload["input_min"] = [payload["input_min"]]
            payload["input_max"] = [payload["input_max"]]
        elif malformed == "range-inf":
            payload["input_max"] = [float("inf")]
        elif malformed == "fe-count-inf":
            payload["fe_count"] = math.inf  # written as Infinity; 1e400 reads as inf too
        elif malformed == "deviance-huge-int":
            payload["deviance"] = 10**400
        elif malformed == "a-huge-int":
            payload["condition_exponent"] = 10**400
        elif malformed == "p-string":
            payload["p"] = [str(v) for v in payload["p"]]
        elif malformed == "fe-count-string":
            payload["fe_count"] = str(payload["fe_count"])
        elif malformed == "fe-count-fraction":
            payload["fe_count"] += 0.5
        elif malformed == "fe-count-bool":
            payload["fe_count"] = True
        elif malformed == "fe-count-negative":
            payload["fe_count"] = -1
        elif malformed == "beta-strings":
            payload["beta"] = [repr(v) for v in payload["beta"]]
        elif malformed == "deviance-string":
            payload["deviance"] = repr(payload["deviance"])
        elif malformed == "a-string":
            payload["condition_exponent"] = repr(payload["condition_exponent"])
        elif malformed == "points-bool":
            # The largest scaled coordinate is exactly 1.0, which true converts to.
            row = [point[0] for point in payload["points"]].index(1.0)
            payload["points"][row] = [True]
        elif malformed == "points-ragged":
            payload["points"][1] = payload["points"][1] * 2
        elif malformed == "points-row-empty":
            payload["points"][1] = []
        elif malformed == "outputs-nested":
            payload["outputs"] = [[v] for v in payload["outputs"]]
        elif malformed == "format-version-bool":
            payload["format_version"] = True
        elif malformed == "kappa-banana":
            payload["kappa"] = "banana"
        elif malformed == "delta-negative":
            payload["delta"] = -5
        elif malformed == "mu-null":
            payload["mu"] = None
        elif malformed == "sigma2-list":
            payload["sigma2"] = [1]
        elif malformed == "strategy-int":
            payload["strategy"] = 7
        elif malformed == "seed-string":
            payload["seed"] = "x"
        elif malformed.endswith("-off"):
            # Well-typed, but not the value the file's data and beta give.
            key = malformed[: -len("-off")]
            payload[key] *= 1.0 + 1e-6
        else:
            payload = 1.0
        model_path.write_text(json.dumps(payload))
        rc = main(["predict", "--model", str(model_path), "--points", str(points)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        # Each wrong-typed value is named by its key, in one form: a bare key
        # such as "p" would also match inside the rest of the message.
        wrong_type_keys = {
            "fe-count-": "fe_count", "p-": "p", "beta-": "beta", "deviance-": "deviance",
            "a-huge": "condition_exponent", "a-string": "condition_exponent", "points-": "points",
            "outputs-": "outputs", "kappa-banana": "kappa", "mu-null": "mu",
            "sigma2-list": "sigma2", "seed-": "seed",
        }
        for stem, key in wrong_type_keys.items():
            if malformed.startswith(stem):
                assert f"wrong type ({key}: expected " in err
        if malformed in ("a-overflow", "a-tiny", "a-low", "a-high"):
            assert "condition_exponent must be 25.0, got " in err
        if malformed.endswith("-off") or malformed == "delta-negative":
            assert f"stored {malformed.split('-')[0]} " in err
        if malformed == "format-version-bool":
            assert "unsupported model format" in err

    def test_model_file_with_box_scale_key_loads(self, tmp_path):
        # Model files written before the box-scale option was removed carry
        # a "box_scale" key; predict ignores it.
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        write_csv(points, ["x1"], [[v] for v in np.linspace(native.min(), native.max(), 7)])
        old_model = tmp_path / "old.json"
        payload = json.loads(model_path.read_text())
        assert "box_scale" not in payload
        old_model.write_text(json.dumps({**payload, "box_scale": 3.0}))
        outs = [tmp_path / "new.csv", tmp_path / "old.csv"]
        for model, out in zip((model_path, old_model), outs):
            argv = ["predict", "--model", str(model), "--points", str(points), "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_non_finite_points_rejected(self, tmp_path, capsys):
        # Infinite coordinates are rejected too, not clamped into range.
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "pts.csv"
        out = tmp_path / "pred.csv"
        for bad in ("nan", "inf", "-inf"):
            write_csv(points, ["x1"], [[native[0, 0]], [bad]])
            rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
            assert rc == 2
            assert "non-finite input coordinate in data row 2" in capsys.readouterr().err
            assert not out.exists()

    def test_out_of_range_points_clamped_with_warning(self, tmp_path):
        model_path, native, _ = self.fit_hump(tmp_path)
        points = tmp_path / "far.csv"
        write_csv(points, ["x1"], [[native[:, 0].max() + 10.0]])
        out = tmp_path / "pred.csv"
        with pytest.warns(UserWarning):
            rc = main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)])
        assert rc == 0

    def test_far_point_beyond_a_narrow_range_clamps_without_overflow(self, tmp_path):
        # Scaled first, (1e10 - 0) / 3e-300 would overflow; clamped first, the
        # far point predicts exactly as the range's upper bound does.
        data = tmp_path / "narrow.csv"
        xs = [0.0, 0.4e-300, 1.1e-300, 1.5e-300, 2.2e-300, 3e-300]
        write_csv(data, ["x1", "y"], [[x, math.sin(4e300 * x)] for x in xs])
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        predicted = {}
        for x in ("3e-300", "1e10"):
            points, out = tmp_path / f"at-{x}.csv", tmp_path / f"pred-{x}.csv"
            write_csv(points, ["x1"], [[x]])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error", RuntimeWarning)
                warnings.simplefilter("always", UserWarning)
                rc = main(["predict", "--model", str(model_path), "--points", str(points),
                           "--out", str(out)])
            assert rc == 0
            assert [str(w.message) for w in caught] == (
                ["inputs outside the training range; clamping to it"] if x == "1e10" else []
            )
            with open(out, newline="") as handle:
                predicted[x] = list(csv.DictReader(handle))
        (near,), (far,) = predicted["3e-300"], predicted["1e10"]
        assert (far["y_hat"], far["mse"]) == (near["y_hat"], near["mse"])

    def test_csv_roundtrip_preserves_predictions_exactly(self, tmp_path):
        # A downstream script recomputing the relative error from the CSV
        # must agree with the in-process value to roundoff.
        from gpdevopt.cli import _load_model
        from gpdevopt.gp import predict_many

        model_path, native, _ = self.fit_hump(tmp_path)
        fn = make_test_function("hump")
        rng = np.random.default_rng(42)
        unit = lhd_maximin(100, SearchBox(np.zeros(1), np.ones(1)), rng)
        holdout_native = fn.to_native(unit)
        y_true = fn.fn(holdout_native)
        points = tmp_path / "holdout.csv"
        write_csv(points, ["x1"], [[v] for v in holdout_native[:, 0]])
        out = tmp_path / "pred.csv"
        with pytest.warns(UserWarning, match="clamping"):
            assert main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            y_csv = np.array([float(r["y_hat"]) for r in csv.DictReader(handle)])
        model, mins, maxs = _load_model(str(model_path))
        scaled = (holdout_native - mins) / (maxs - mins)
        y_direct, _ = predict_many(model, np.clip(scaled, 0.0, 1.0))
        assert abs(rmspe(y_true, y_csv) - rmspe(y_true, y_direct)) < 1e-12

    def test_cross_check_against_benchmark_rmspe(self, tmp_path):
        # The CLI pipeline on Goldstein-Price data should score within 2x of
        # the benchmark-mode error for the same protocol.
        fn = make_test_function("goldstein-price")
        data = tmp_path / "train.csv"
        goldstein_price_csv(data, n=20, seed=1)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path), "--seed", "0"]) == 0

        rng = np.random.default_rng(99)
        unit = lhd_maximin(200, SearchBox(np.zeros(2), np.ones(2)), rng)
        native = fn.to_native(unit)
        y_true = fn.fn(native)
        points = tmp_path / "holdout.csv"
        write_csv(points, ["x1", "x2"], [list(row) for row in native])
        out = tmp_path / "pred.csv"
        with pytest.warns(UserWarning, match="clamping"):
            assert main(["predict", "--model", str(model_path), "--points", str(points), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            y_hat = np.array([float(r["y_hat"]) for r in csv.DictReader(handle)])
        cli_rmspe = rmspe(y_true, y_hat)

        bench = run_benchmark(fn, ("DIRECT-BFGS",), replicates=3, rng_seed=1)[0]
        assert 0.5 * bench.mean_rmspe <= cli_rmspe <= 2.0 * bench.mean_rmspe


# The value classes that replace each key of a model file, and the first
# element of each list, as Python's json writes them (NaN and Infinity read
# back as floats, a huge literal as an int).
MODEL_VALUES = {
    "0": 0, "-0.0": -0.0, "5e-324": 5e-324, "1e308": 1e308, "-1e308": -1e308, "NaN": math.nan,
    "Infinity": math.inf, "10**400": 10**400, "2**63": 2**63, "-1": -1, "true": True,
    "null": None, '"x"': "x", "[]": [], "[[1.0]]": [[1.0]], "{}": {},
}
MODEL_LISTS = ("beta", "input_max", "input_min", "outputs", "p", "points")
MODEL_KEYS = MODEL_LISTS + (
    "condition_exponent", "delta", "deviance", "fe_count", "format_version", "kappa", "mu",
    "seed", "sigma2", "strategy",
)


def _model_file_mutations():
    for target in MODEL_KEYS + tuple(f"{key}[0]" for key in MODEL_LISTS):
        for name, value in MODEL_VALUES.items():
            marks = ()
            if target == "outputs[0]" and name in ("1e308", "-1e308"):
                # The loader's profile mean overflows in a matmul
                # (`_Profile.centered_mean`): outputs at the float limit.
                marks = pytest.mark.xfail(raises=RuntimeWarning, strict=True)
            yield pytest.param(target, value, id=f"{target}={name}", marks=marks)


@pytest.fixture(scope="module")
def model_file_12(tmp_path_factory):
    """The directory and payload of a model fitted to 12 Goldstein-Price rows,
    with a points CSV of two points inside the inputs' range."""
    root = tmp_path_factory.mktemp("model12")
    goldstein_price_csv(root / "train.csv", n=12)
    assert main(["fit", "--data", str(root / "train.csv"), "--out", str(root / "model.json")]) == 0
    write_csv(root / "points.csv", ["x1", "x2"], [[0.1, 0.2], [-1.0, 1.5]])
    payload = json.loads((root / "model.json").read_text())
    assert sorted(payload) == sorted(MODEL_KEYS)
    return root, payload


@pytest.mark.parametrize("target, value", _model_file_mutations())
def test_a_mutated_model_file_predicts_or_exits_2(model_file_12, target, value):
    root, payload = model_file_12
    payload = copy.deepcopy(payload)
    if target.endswith("[0]"):
        payload[target.removesuffix("[0]")][0] = value
    else:
        payload[target] = value
    model = root / "mutated.json"
    model.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        # A mutated input range may put the points outside it: they clamp.
        warnings.filterwarnings("ignore", "inputs outside the training range", UserWarning)
        rc = main(["predict", "--model", str(model), "--points", str(root / "points.csv")])
    assert rc in (0, 2)


class TestBenchmarkCommand:
    def test_small_table_csv(self, tmp_path, capsys):
        rc = main([
            "benchmark", "--function", "hump",
            "--strategies", "DIRECT-BFGS,IF2",
            "--replicates", "2", "--seed", "0", "--format", "csv",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        assert {row["strategy"] for row in rows} == {"DIRECT-BFGS", "IF2"}
        deltas = [float(row["pct_delta_deviance"]) for row in rows]
        assert min(deltas) == 0.0

    def test_json_format_parses(self, tmp_path):
        out_path = tmp_path / "table.json"
        rc = main([
            "benchmark", "--function", "hump", "--strategies", "DIRECT-BFGS",
            "--replicates", "2", "--seed", "3", "--format", "json",
            "--out", str(out_path),
        ])
        assert rc == 0
        rows = json.loads(out_path.read_text())
        assert rows[0]["strategy"] == "DIRECT-BFGS"
        assert rows[0]["replicates"] == 2

    def test_raw_replicate_csv(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rc = main([
            "benchmark", "--function", "hump", "--strategies", "DIRECT-BFGS,IF2",
            "--replicates", "3", "--seed", "0", "--format", "markdown",
            "--out", str(tmp_path / "table.md"), "--raw-out", str(raw),
        ])
        assert rc == 0
        with open(raw, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6  # 2 strategies x 3 replicates
        assert {row["function"] for row in rows} == {"hump"}

    def test_duplicate_strategy_exits_2_before_any_fit(self, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(testbed, "fit", no_fit)
        rc = main([
            "benchmark", "--function", "all", "--strategies", "DIRECT-BFGS,DIRECT-BFGS",
            "--replicates", "1", "--format", "csv",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: strategy 'DIRECT-BFGS' is listed more than once" in captured.err

    def test_seed_determinism_bytes(self, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main([
                "benchmark", "--function", "hump", "--strategies", "MS-BFGS-halfd",
                "--replicates", "2", "--seed", "5", "--format", "csv",
                "--out", str(path),
            ])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestSurfaceCommand:
    def test_grid_rows_1d(self, tmp_path, capsys):
        rc = main(["surface", "--function", "hump", "--grid", "3", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta1,L"
        assert len(lines) == 4

    def test_grid_min_bounds_fitted_deviance(self, tmp_path):
        data = tmp_path / "train.csv"
        hump_csv(data)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path), "--seed", "2"]) == 0
        fitted = json.loads(model_path.read_text())["deviance"]
        surf = tmp_path / "surf.csv"
        assert main(["surface", "--data", str(data), "--grid", "2001", "--out", str(surf)]) == 0
        with open(surf, newline="") as handle:
            grid_min = min(float(row["L"]) for row in csv.DictReader(handle))
        assert grid_min >= fitted - 1e-6

    def test_hump_surface_is_multimodal(self, tmp_path):
        surf = tmp_path / "surf.csv"
        assert main(["surface", "--function", "hump", "--grid", "2001", "--seed", "0", "--out", str(surf)]) == 0
        with open(surf, newline="") as handle:
            values = np.array([float(row["L"]) for row in csv.DictReader(handle)])
        finite = values[np.isfinite(values)]
        value_range = finite.max() - finite.min()
        interior = values[1:-1]
        local_min = (interior < values[:-2]) & (interior <= values[2:])
        minima_idx = np.where(local_min)[0] + 1
        # Count basins separated by a rise of at least 1% of the range.
        distinct = 0
        for idx in minima_idx:
            left = values[: idx + 1]
            right = values[idx:]
            rise_left = np.nanmax(left[np.isfinite(left)]) - values[idx] if np.isfinite(left).any() else 0
            rise_right = np.nanmax(right[np.isfinite(right)]) - values[idx] if np.isfinite(right).any() else 0
            if rise_left >= 0.01 * value_range and rise_right >= 0.01 * value_range:
                distinct += 1
        assert distinct >= 2

    def test_2d_deviance_surface(self, tmp_path):
        surf = tmp_path / "surf2.csv"
        rc = main([
            "surface", "--function", "goldstein-price", "--grid", "5",
            "--seed", "0", "--out", str(surf),
        ])
        assert rc == 0
        with open(surf, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        assert set(rows[0]) == {"beta1", "beta2", "L"}

    def test_prediction_surface(self, tmp_path):
        surf = tmp_path / "pred_surf.csv"
        rc = main([
            "surface", "--function", "goldstein-price", "--grid", "4",
            "--what", "prediction", "--seed", "0", "--out", str(surf),
        ])
        assert rc == 0
        with open(surf, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 16
        assert set(rows[0]) == {"x1", "x2", "y_hat", "mse"}

    @pytest.mark.parametrize("grid", ["0", "-1"])
    @pytest.mark.parametrize(
        "what, function", [("deviance", "hump"), ("prediction", "goldstein-price")]
    )
    def test_grid_below_one_exits_2_before_any_fit(
        self, monkeypatch, capsys, grid, what, function
    ):
        def no_call(*args, **kwargs):
            raise AssertionError("a design was built or fitted")

        monkeypatch.setattr(cli, "fit", no_call)
        monkeypatch.setattr(cli, "_surface_design", no_call)
        rc = main(["surface", "--function", function, "--grid", grid, "--what", what])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid must be at least 1, got {grid}\n"

    @pytest.mark.parametrize("function, grid", [("hump", 41), ("goldstein-price", 9)])
    def test_deviance_surface_is_the_exact_path_deviance(
        self, tmp_path, monkeypatch, function, grid
    ):
        # Each grid point costs one counted evaluation, which gives the exact
        # path's deviance bit for bit without its eigenvalues.
        def no_call(*args, **kwargs):
            raise AssertionError("the exact path was evaluated")

        surf = tmp_path / "surf.csv"
        argv = ["surface", "--function", function, "--grid", str(grid), "--out", str(surf)]
        with monkeypatch.context() as patch:
            patch.setattr(DevianceObjective, "evaluate", no_call)
            assert main(argv) == 0
        design = cli._surface_design(argparse.Namespace(data=None, function=function, seed=0))
        objective = DevianceObjective(design)
        with open(surf, newline="") as handle:
            rows = [[float(cell) for cell in row] for row in list(csv.reader(handle))[1:]]
        assert len(rows) == grid ** design.d
        for *beta, value in rows:
            assert value == objective.evaluate(np.array(beta))[0], beta

    @pytest.mark.parametrize("what", ["deviance", "prediction"])
    def test_a_grid_past_memory_exits_2_before_any_fit(self, monkeypatch, capsys, what):
        # One axis of 10**16 points is 80 PB, past any address space: no
        # overcommit setting lets numpy reserve it.
        def no_call(*args, **kwargs):
            raise AssertionError("a model was fitted or a deviance evaluated")

        monkeypatch.setattr(cli, "fit", no_call)
        monkeypatch.setattr(DevianceObjective, "batch", no_call)
        grid = str(10**16)
        rc = main(["surface", "--function", "goldstein-price", "--grid", grid, "--what", what])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid {grid}: the grid does not fit in memory\n"

    def test_high_dimension_rejected(self, tmp_path):
        rc = main(["surface", "--function", "schwefel", "--grid", "3"])
        assert rc == 2

    def test_surface_determinism(self, tmp_path):
        outputs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            main(["surface", "--function", "hump", "--grid", "11", "--seed", "9", "--out", str(path)])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "case, message",
    [
        ("empty-csv", "empty file, a header row is required"),
        ("field-count", "data.csv:2: expected 2 fields"),
        ("no-y-column", "missing output column 'y'"),
        ("header-only", "no data rows"),
        # The ids keep the message without its file prefix, which the check now also asserts.
        pytest.param(
            "zero-range-column", "data.csv: input column x2 has zero range",
            id="zero-range-column-input column x2 has zero range",
        ),
        ("input-column-gap", "data.csv: input column x3 lies outside the run x1..x1"),
        ("input-nan", "data.csv: non-finite input coordinate in data row 2"),
        ("output-nan", "data.csv: design points and outputs must be finite"),
        ("output-inf", "data.csv: design points and outputs must be finite"),
        ("duplicate-row", "data.csv: duplicate design points are not allowed"),
        pytest.param(
            "overflowing-range-column",
            "data.csv: input column x1 spans -1e+308 to 1e+308: its range overflows",
            id="overflowing-range-column-input column x1 spans -1e+308 to 1e+308: its range overflows",
        ),
        ("model-range-overflows", "input_max - input_min must be a finite positive normal"),
        ("model-range-subnormal", "input_max - input_min must be a finite positive normal"),
        ("format-version", "unsupported model format"),
        ("model-duplicate-points", "model.json: duplicate design points are not allowed"),
        ("model-point-outside", "model.json: design coordinates must lie in [0, 1]"),
        ("p-not-repeated", "p must repeat one exponent per input column"),
        ("model-p-out-of-range", "model.json: smoothness exponent must lie in (0, 2]"),
        ("model-beta-length", "model.json: beta must have length 1, got (2,)"),
        ("model-beta-huge", "model.json: the deviance at beta=[1e+308] is not finite"),
        ("model-beta-nan", "model.json: the deviance at beta=[nan] is not finite"),
        ("model-constant-outputs", "model.json: the deviance at beta=["),
        ("points-missing-column", "missing input column 'x1'"),
        ("points-extra-column", "points.csv: input column x2 lies outside the run x1..x1"),
        ("1d-prediction-surface", "prediction surfaces require exactly 2 input dimensions"),
        ("csv-bad-byte", "data.csv: 'utf-8' codec can't decode byte 0xff"),
        ("model-not-json", "model.json: Expecting property name enclosed in double quotes"),
        ("model-bad-byte", "model.json: 'utf-8' codec can't decode byte 0xff"),
        ("fit-seed-negative", "--seed must be a nonnegative integer, got -1"),
        ("benchmark-seed-negative", "--seed must be a nonnegative integer, got -1"),
        ("surface-seed-negative", "--seed must be a nonnegative integer, got -1"),
    ],
)
def test_error_exits(tmp_path, capsys, case, message):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    points = tmp_path / "points.csv"
    fit_argv = ["fit", "--data", str(data), "--out", str(model)]
    training_texts = {
        "empty-csv": "",
        "field-count": "x1,y\n0.1,1.0,2.0\n",
        "no-y-column": "x1,z\n0.1,1.0\n0.9,2.0\n",
        "header-only": "x1,y\n",
        "zero-range-column": "x1,x2,y\n0.1,0.5,1.0\n0.9,0.5,2.0\n",
        "input-column-gap": "x1,x3,y\n0.1,0.5,1.0\n0.9,0.2,2.0\n",
        # Every value is finite, but max - min is not.
        "overflowing-range-column": "x1,y\n-1e308,1.0\n0.0,2.0\n1e308,0.5\n",
        # A non-finite input cell is named by its data row, before any range check.
        "input-nan": "x1,y\n0.1,1.0\nnan,2.0\n0.9,0.5\n",
        "output-nan": "x1,y\n0.1,1.0\n0.5,nan\n0.9,2.0\n",
        "output-inf": "x1,y\n0.1,1.0\n0.5,-inf\n0.9,2.0\n",
        "duplicate-row": "x1,y\n0.1,1.0\n0.9,2.0\n0.1,1.0\n",
        # Latin-1 writes the byte 0xff, which is not UTF-8.
        "csv-bad-byte": "x1,y\n0.1,1.0\n\xff0.9,2.0\n",
    }
    if case in training_texts:
        data.write_text(training_texts[case], encoding="latin-1")
        argv = fit_argv
    elif case == "1d-prediction-surface":
        argv = ["surface", "--function", "hump", "--grid", "3", "--what", "prediction"]
    elif case.endswith("-seed-negative"):
        hump_csv(data)
        argv = {
            "fit": fit_argv,
            "benchmark": ["benchmark", "--function", "hump", "--strategies", "IF2",
                          "--replicates", "1"],
            "surface": ["surface", "--function", "hump", "--grid", "3"],
        }[case.split("-")[0]] + ["--seed", "-1"]
    else:
        hump_csv(data)
        assert main(fit_argv) == 0
        payload = json.loads(model.read_text())
        if case == "format-version":
            payload["format_version"] = 2
        elif case == "p-not-repeated":
            payload["p"] = [2.0, 1.99]
        elif case == "model-range-overflows":
            payload["input_min"], payload["input_max"] = [-1e308], [1e308]
        elif case == "model-range-subnormal":
            payload["input_min"], payload["input_max"] = [0.0], [5e-324]
        elif case == "model-duplicate-points":
            payload["points"][1] = payload["points"][0]
        elif case == "model-point-outside":
            payload["points"][0] = [2.0]
        elif case == "model-p-out-of-range":
            payload["p"] = [3.0]
        elif case == "model-beta-length":
            payload["beta"] = payload["beta"] * 2
        elif case == "model-beta-huge":
            payload["beta"] = [1e308]
        elif case == "model-beta-nan":
            payload["beta"] = [math.nan]  # written as NaN, which Python's json reads
        elif case == "model-constant-outputs":
            payload["outputs"] = [1.0] * len(payload["outputs"])
        model.write_text(json.dumps(payload))
        if case == "model-not-json":
            model.write_text("{\n")
        elif case == "model-bad-byte":
            model.write_bytes(b"\xff" + model.read_bytes())
        columns = {"points-missing-column": ["x2"], "points-extra-column": ["x1", "x2", "y"]}
        header = columns.get(case, ["x1"])
        write_csv(points, header, [[0.5, 0.25, 1.0][: len(header)]])
        argv = ["predict", "--model", str(model), "--points", str(points)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


def test_read_table_matches_row_reader_bit_for_bit(tmp_path):
    data = tmp_path / "mixed.csv"
    data.write_text(
        " x1 ,x2, y\n"
        "\n"
        "0.1, 2.5E-7 ,-0.0\n"
        '"1.5","-3e+2",1e-320\n'
        "\n"
        "\n"
        "  -7 ,1E3,4.9406564584124654e-324\n"
        "0.30000000000000004,+.5,1.7976931348623157e308\n"
        "inf,-inf,nan\n"
    )
    header, values = cli._read_table(str(data))
    want_header, want_rows = row_read_table(str(data))
    assert header == want_header == ["x1", "x2", "y"]
    want = np.array(want_rows)
    assert values.shape == want.shape == (5, 3) and values.dtype == np.float64
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
    assert values.flags.c_contiguous


def test_read_table_header_only_gives_empty_array(tmp_path):
    data = tmp_path / "head.csv"
    data.write_text("x1,x2\n\n")
    header, values = cli._read_table(str(data))
    assert header == ["x1", "x2"] and values.shape == (0, 2)


# Every fixed identifier a CLI table can hold: strategy and function names
# in benchmark rows, and the column names of every command's header.
IDENTIFIERS = [
    *STRATEGIES, *TEST_FUNCTION_NAMES, *cli._TABLE_COLUMNS,
    "replicate", "deviance", "rmspe", "fe", "x1", "x12", "y_hat", "mse", "beta1", "L",
]


def test_table_identifiers_need_no_csv_quoting():
    for name in IDENTIFIERS:
        assert not set(name) & set(',"\r\n'), name


def test_write_rows_csv_matches_csv_writer(tmp_path):
    floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e22, 0.1 + 0.2,
              1e-5, 123456789.125, -2.5e-310, 1.7976931348623157e308]
    rows = [[name, 3, -1, *floats] for name in IDENTIFIERS]
    rows += [[0, 1.0, round(2.0 / 3.0, 3), float(np.mean([1.0, 2.0])), *floats[::-1]]]
    header = [f"c{k}" for k in range(len(rows[0]))]
    for table in (rows, []):
        path = tmp_path / "table.csv"
        cli._write_rows(str(path), header, table, "csv")
        want = io.StringIO()
        legacy_write_csv(want, header, table)
        assert path.read_bytes() == want.getvalue().encode("utf-8")
