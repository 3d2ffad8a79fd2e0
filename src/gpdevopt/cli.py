"""Command-line interface: fit, predict, benchmark, and surface dumps.

CSV files are comma-separated with a header row; fit expects input columns
named x1..xd plus one column y.  Inputs are min-max scaled to [0, 1] per
column and the scaling is stored in the JSON model file, so prediction needs
no access to the original data.  All commands are deterministic for a fixed
seed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import warnings

import numpy as np

from .boxes import SearchBox, default_beta_box
from .global_search import STRATEGIES, lhd_maximin
from .gp import (
    DegenerateDataError,
    DesignSet,
    DevianceObjective,
    FittedGP,
    GpOptions,
    UnfittableError,
    fit,
    model_at,
    predict_many,
)
from .testbed import (
    TEST_FUNCTION_NAMES,
    TRAIN_POINTS_PER_DIM,
    BenchmarkResult,
    percent_deltas,
    run_benchmark,
    test_function,
)

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = (
    "format_version", "p", "condition_exponent", "beta", "deviance", "fe_count",
    "input_min", "input_max", "points", "outputs",
)


def _read_table(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, a header row is required") from None
        header = [name.strip() for name in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    return header, rows


def _input_columns(header: list[str], path: str) -> list[str]:
    d = 0
    while f"x{d + 1}" in header:
        d += 1
    if d == 0:
        raise ValueError(f"{path}: no input columns named x1..xd found")
    return [f"x{k + 1}" for k in range(d)]


def _load_training_csv(path: str) -> tuple[DesignSet, np.ndarray, np.ndarray]:
    """Design with inputs min-max scaled to [0, 1], plus the column minima and maxima."""
    header, rows = _read_table(path)
    x_names = _input_columns(header, path)
    if "y" not in header:
        raise ValueError(f"{path}: missing output column 'y'")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    x = data[:, [header.index(name) for name in x_names]]
    y = data[:, header.index("y")]
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    if np.any(maxs <= mins):
        bad = int(np.argmax(maxs <= mins)) + 1
        raise ValueError(f"input column x{bad} has zero range and cannot be scaled")
    return DesignSet((x - mins) / (maxs - mins), y), mins, maxs


def _model_payload(model: FittedGP, mins, maxs, strategy, seed, box_scale) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "strategy": strategy,
        "seed": seed,
        "box_scale": box_scale,
        "p": model.p.tolist(),
        "condition_exponent": model.options.a,
        "beta": model.beta_star.tolist(),
        "mu": model.mu_hat,
        "sigma2": model.sigma2_hat,
        "delta": model.correlation.delta,
        "kappa": model.correlation.kappa,
        "deviance": model.deviance,
        "fe_count": model.fe_count,
        "input_min": np.asarray(mins, dtype=float).tolist(),
        "input_max": np.asarray(maxs, dtype=float).tolist(),
        "points": model.design.points.tolist(),
        "outputs": model.design.outputs.tolist(),
    }


def _load_model(path: str) -> tuple[FittedGP, np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a model file must hold a JSON object")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: model file lacks {', '.join(missing)}")
    if payload["format_version"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format")
    try:
        # Column-major, as `_load_training_csv` builds it: the kernel's
        # reduction order follows the layout of the points, so this rebuilds
        # bit for bit the model that `fit` returned.
        points = np.array(payload["points"], dtype=float, order="F")
        outputs = np.array(payload["outputs"], dtype=float)
        p = np.array(payload["p"], dtype=float)
        a = float(payload["condition_exponent"])
        beta = np.array(payload["beta"], dtype=float)
        fe_count = int(payload["fe_count"])
        stored_deviance = float(payload["deviance"])
        mins = np.array(payload["input_min"], dtype=float)
        maxs = np.array(payload["input_max"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"{path}: a model file value has the wrong type ({exc})") from None
    design = DesignSet(points, outputs)
    if p.shape != (design.d,) or np.any(p != p[0]):
        raise ValueError(f"{path}: p must repeat one exponent per input column")
    if not (
        mins.shape == maxs.shape == (design.d,)
        and np.isfinite([mins, maxs]).all()
        and np.all(maxs > mins)
    ):
        raise ValueError(f"{path}: input_min/input_max must be finite with max > min per column")
    options = GpOptions(p_exponent=float(p[0]), a=a)
    model = model_at(design, beta, options, fe_count=fe_count)
    # Recomputing the deviance verifies the file: the bound is the rounding
    # error of two float64 evaluations at the condition number of R + delta*I.
    kappa = min(model.correlation.kappa, math.exp(options.a))
    tol = 1e-8 * max(abs(model.deviance), 1.0) + (design.n + 1) * kappa * np.finfo(float).eps
    if not abs(stored_deviance - model.deviance) <= tol:
        raise ValueError(
            f"{path}: stored deviance {payload['deviance']!r} does not match "
            f"{model.deviance!r} recomputed from the file's data and beta"
        )
    return model, mins, maxs


def _write_rows(path: str | None, header: list[str], rows: list[list]) -> None:
    handle = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            # float() first: under numpy 2, repr(np.float64(x)) is 'np.float64(x)'.
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    finally:
        if path:
            handle.close()


def _fit(design: DesignSet, args) -> FittedGP:
    return fit(design, args.strategy, p_exponent=args.p, box_scale=args.box_scale, seed=args.seed)


def _cmd_fit(args) -> int:
    design, mins, maxs = _load_training_csv(args.data)
    model = _fit(design, args)
    payload = _model_payload(model, mins, maxs, args.strategy, args.seed, args.box_scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"deviance={model.deviance!r}")
    print(f"fe={model.fe_count}")
    print(f"delta={model.correlation.delta!r}")
    print(f"model written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model, mins, maxs = _load_model(args.model)
    header, rows = _read_table(args.points)
    x_names = [f"x{k + 1}" for k in range(model.d)]
    for name in x_names:
        if name not in header:
            raise ValueError(f"{args.points}: missing input column {name!r}")
    out_header = x_names + ["y_hat", "mse"]
    out_rows: list[list] = []
    if rows:
        data = np.array(rows)
        x_native = data[:, [header.index(name) for name in x_names]]
        bad = np.flatnonzero(~np.isfinite(x_native).all(axis=1))
        if bad.size:
            raise ValueError(f"{args.points}: non-finite input coordinate in data row {bad[0] + 1}")
        x_scaled = (x_native - mins) / (maxs - mins)
        if np.any(x_scaled < 0.0) or np.any(x_scaled > 1.0):
            warnings.warn("inputs outside the training range; clamping to [0, 1]")
            x_scaled = np.clip(x_scaled, 0.0, 1.0)
        y_hat, mse = predict_many(model, x_scaled)
        for i in range(x_native.shape[0]):
            out_rows.append(list(x_native[i]) + [float(y_hat[i]), float(mse[i])])
    _write_rows(args.out, out_header, out_rows)
    return 0


def _format_benchmark(
    results_by_fn: list[tuple[str, list[BenchmarkResult]]], fmt: str
) -> str:
    rows = []
    for fn_name, results in results_by_fn:
        fitted = [r for r in results if r.deviances]
        dev_deltas = percent_deltas([r.mean_deviance for r in fitted]) if fitted else []
        rms_deltas = percent_deltas([r.mean_rmspe for r in fitted]) if fitted else []
        delta_map = {
            r.strategy: (dev_deltas[i], rms_deltas[i]) for i, r in enumerate(fitted)
        }
        for r in results:
            dd, rd = delta_map.get(r.strategy, (math.nan, math.nan))
            rows.append(
                {
                    "function": fn_name,
                    "strategy": r.strategy,
                    "pct_delta_deviance": round(float(dd), 3),
                    "pct_delta_rmspe": round(float(rd), 3),
                    "mean_fe": round(r.mean_fe, 1),
                    "mean_deviance": r.mean_deviance,
                    "mean_rmspe": r.mean_rmspe,
                    "rmspe_std_err": r.rmspe_std_err,
                    "replicates": r.replicates,
                    "failed": r.failed_replicates,
                }
            )
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    columns = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(str(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    # markdown
    widths = {c: max(len(c), *(len(str(row[c])) for row in rows)) for c in columns}
    header = "| " + " | ".join(c.ljust(widths[c]) for c in columns) + " |"
    rule = "|-" + "-|-".join("-" * widths[c] for c in columns) + "-|"
    lines = [header, rule]
    lines += [
        "| " + " | ".join(str(row[c]).ljust(widths[c]) for c in columns) + " |"
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _cmd_benchmark(args) -> int:
    names = list(TEST_FUNCTION_NAMES) if args.function == "all" else [args.function]
    strategies = tuple(s.strip() for s in args.strategies.split(","))
    results_by_fn = []
    raw_rows = []
    for name in names:
        fn = test_function(name)
        results = run_benchmark(
            fn,
            strategies,
            replicates=args.replicates,
            rng_seed=args.seed,
            p_exponent=args.p,
            box_scale=args.box_scale,
        )
        results_by_fn.append((name, results))
        for r in results:
            for i in range(len(r.deviances)):
                raw_rows.append(
                    [name, r.strategy, i, r.deviances[i], r.rmspes[i], r.fe_counts[i]]
                )
    text = _format_benchmark(results_by_fn, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.raw_out:
        _write_rows(
            args.raw_out,
            ["function", "strategy", "replicate", "deviance", "rmspe", "fe"],
            raw_rows,
        )
    return 0


def _surface_design(args) -> DesignSet:
    if args.data:
        return _load_training_csv(args.data)[0]
    fn = test_function(args.function)
    rng = np.random.default_rng(args.seed)
    unit = SearchBox(np.zeros(fn.d), np.ones(fn.d))
    points = lhd_maximin(TRAIN_POINTS_PER_DIM * fn.d, unit, rng)
    return DesignSet(points, fn.evaluate(points))


def _cmd_surface(args) -> int:
    design = _surface_design(args)
    if args.what == "deviance":
        if design.d > 2:
            raise ValueError("deviance surfaces are limited to 1 or 2 input dimensions")
        objective = DevianceObjective(design, GpOptions(p_exponent=args.p))
        box = default_beta_box(design.d, scale=args.box_scale)
        lo, hi = box.bounds()
        axes = [np.linspace(lo[k], hi[k], args.grid) for k in range(design.d)]
        rows = [
            [*map(float, beta), objective.evaluate(np.array(beta))[0]]
            for beta in itertools.product(*axes)
        ]
        header = [f"beta{k + 1}" for k in range(design.d)] + ["L"]
        _write_rows(args.out, header, rows)
        return 0
    # prediction surface
    if design.d != 2:
        raise ValueError("prediction surfaces require exactly 2 input dimensions")
    model = _fit(design, args)
    axis = np.linspace(0.0, 1.0, args.grid)
    grid = np.array([[u, v] for u in axis for v in axis])
    y_hat, mse = predict_many(model, grid)
    rows = [
        [float(grid[i, 0]), float(grid[i, 1]), float(y_hat[i]), float(mse[i])]
        for i in range(grid.shape[0])
    ]
    _write_rows(args.out, ["x1", "x2", "y_hat", "mse"], rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpdevopt",
        description="Fit Gaussian process emulators by profiled-deviance minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by every subcommand that fits: fit, surface, benchmark.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=2.0, choices=[2.0, 1.99])
    common.add_argument("--box-scale", type=float, default=1.0)
    common.add_argument("--seed", type=int, default=0)
    one_strategy = argparse.ArgumentParser(add_help=False, parents=[common])
    one_strategy.add_argument("--strategy", default="DIRECT-BFGS", choices=STRATEGIES)

    p_fit = sub.add_parser("fit", parents=[one_strategy], help="fit a model from a training CSV")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="predict at new points from a model file")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--points", required=True)
    p_pred.add_argument("--out", default=None)
    p_pred.set_defaults(func=_cmd_predict)

    p_bench = sub.add_parser(
        "benchmark", parents=[common], help="benchmark strategies on test functions"
    )
    p_bench.add_argument(
        "--function", required=True, choices=list(TEST_FUNCTION_NAMES) + ["all"]
    )
    p_bench.add_argument("--strategies", default=",".join(STRATEGIES))
    p_bench.add_argument("--replicates", type=int, default=25)
    p_bench.add_argument("--format", default="markdown", choices=["csv", "json", "markdown"])
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--raw-out", default=None, help="per-replicate CSV path")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_surf = sub.add_parser(
        "surface", parents=[one_strategy], help="dump a deviance or prediction surface grid"
    )
    source = p_surf.add_mutually_exclusive_group(required=True)
    source.add_argument("--function", choices=list(TEST_FUNCTION_NAMES))
    source.add_argument("--data")
    p_surf.add_argument("--grid", type=int, required=True)
    p_surf.add_argument("--out", default=None)
    p_surf.add_argument("--what", default="deviance", choices=["deviance", "prediction"])
    p_surf.set_defaults(func=_cmd_surface)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DegenerateDataError, UnfittableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
