"""Command-line interface: fit, predict, benchmark, and surface dumps.

CSV files are comma-separated with a header row; fit expects input columns
named x1..xd plus one column y.  Inputs are min-max scaled to [0, 1] per
column and the scaling is stored in the JSON model file, so prediction needs
no access to the original data.  All commands are deterministic for a fixed
seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import sys
import warnings
from collections.abc import Iterator

import numpy as np

from . import _worker
from .boxes import SearchBox, default_beta_box
from .correlation import CONDITION_EXPONENT
from .global_search import STRATEGIES, lhd_maximin
from .gp import (
    DEFAULT_STRATEGY,
    PREDICT_BLOCK,
    DesignSet,
    DevianceObjective,
    FittedGP,
    GpOptions,
    UnfittableError,
    fit,
    predict_many,
)
from .testbed import (
    TEST_FUNCTION_NAMES,
    TRAIN_POINTS_PER_DIM,
    percent_deltas,
    run_benchmark,
    test_function,
)

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = (
    "format_version", "strategy", "seed", "p", "condition_exponent", "beta", "mu", "sigma2",
    "delta", "kappa", "deviance", "fe_count", "input_min", "input_max", "points", "outputs",
)


def _plain_lines(handle) -> Iterator[str]:
    """The handle's lines, checked 1,024 at a time for a separator \\x1c-\\x1f: numpy
    strips one around a number and float() rejects it, so here it is a ValueError."""
    while lines := list(itertools.islice(handle, 1024)):
        if any(map("".join(lines).__contains__, "\x1c\x1d\x1e\x1f")):
            raise ValueError("a separator \\x1c-\\x1f")
        yield from lines


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Header names and the non-blank data rows as an (m, width) float array.

    A leading UTF-8 byte-order mark is dropped.  numpy's tokenizer reads a seekable file's
    body; csv reads a pipe's, or a body the tokenizer rejects or reads to another width,
    and gives each error the file's line number of the record's last line.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [name.strip() for name in next(reader)]
            for k, name in enumerate(header):
                if name in header[:k]:
                    raise ValueError(f"{path}: duplicate column name {name!r}")
            if handle.seekable():  # a pipe cannot be read again
                with warnings.catch_warnings(), contextlib.suppress(ValueError):
                    warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
                    lines = _plain_lines(handle)
                    rows = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
                    if rows.shape[1] == len(header):
                        return header, rows
                handle.seek(0)
                reader = csv.reader(handle)
                next(reader)
            cells, linenos = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields")
                cells += row
                linenos.append(reader.line_num)
        except StopIteration:
            raise ValueError(f"{path}: empty file, a header row is required") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        values = list(map(float, cells))
    except ValueError:
        width = len(header)
        for k, lineno in enumerate(linenos):
            try:
                list(map(float, cells[k * width:(k + 1) * width]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
        raise
    return header, np.reshape(values, (len(linenos), len(header)))


def _input_columns(table: tuple, path: str, d: int | None = None) -> tuple[list[str], np.ndarray]:
    """x1..xd and their columns of a `_read_table` table, d a model's or the length of the
    header's run x1, x2, ...  A missing one, another x<digits> or a non-finite cell is an error."""
    header, data = table
    if d is None:
        d = next(k for k in range(len(header) + 1) if f"x{k + 1}" not in header)
        if d == 0:
            raise ValueError(f"{path}: no input columns named x1..xd found")
    names = [f"x{k + 1}" for k in range(d)]
    for name in names:
        if name not in header:
            raise ValueError(f"{path}: missing input column {name!r}")
    for name in header:
        if name not in names and name[:1] == "x" and name[1:].isdecimal():
            raise ValueError(f"{path}: input column {name} lies outside the run x1..x{d}")
    x = data[:, [header.index(name) for name in names]]
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite input coordinate in data row {bad[0] + 1}")
    return names, x


def _load_training_csv(path: str) -> tuple[DesignSet, np.ndarray, np.ndarray]:
    """Design with inputs min-max scaled to [0, 1], plus the column minima and maxima."""
    header, data = _read_table(path)
    x_names, x = _input_columns((header, data), path)
    if "y" not in header:
        raise ValueError(f"{path}: missing output column 'y'")
    if not len(data):
        raise ValueError(f"{path}: no data rows")
    y = data[:, header.index("y")]
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    with np.errstate(over="ignore"):
        width = maxs - mins
    for name, lo, hi, w in zip(x_names, mins.tolist(), maxs.tolist(), width.tolist()):
        if not w > 0.0:
            raise ValueError(f"{path}: input column {name} has zero range and cannot be scaled")
        if math.isinf(w):
            raise ValueError(
                f"{path}: input column {name} spans {lo!r} to {hi!r}: its range overflows"
            )
    try:
        return DesignSet((x - mins) / width, y), mins, maxs
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _model_payload(model: FittedGP, mins, maxs, strategy, seed) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "strategy": strategy,
        "seed": seed,
        "p": model.p.tolist(),
        "condition_exponent": CONDITION_EXPONENT,
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


def _number_array(payload: dict, key: str, ndim: int = 1, order: str = "C") -> np.ndarray:
    """payload[key], a JSON number (ndim 0), list of them (ndim 1) or list of such lists
    (ndim 2), as a float array.  Any other JSON type, ragged rows (numpy's ValueError) or an int
    past float64's range is a TypeError naming the key; types are compared to keep out bool."""
    value = payload[key]
    rows = [[value]] if ndim == 0 else value if ndim == 2 and type(value) is list else [value]
    if all(type(row) is list and all(type(v) in (int, float) for v in row) for row in rows):
        with contextlib.suppress(OverflowError, ValueError):
            return np.array(value, dtype=float, order=order)
    raise TypeError(f"{key}: expected float64 numbers, got {json.dumps(value)[:40]}")


def _load_model(path: str) -> tuple[FittedGP, np.ndarray, np.ndarray]:
    """A model file's model, rebuilt and checked, and input ranges; every error names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)  # a ValueError if not UTF-8, or not JSON
        if not isinstance(payload, dict):
            raise ValueError("a model file must hold a JSON object")
        missing = [key for key in _MODEL_KEYS if key not in payload]
        if missing:
            raise ValueError(f"model file lacks {', '.join(missing)}")
        version = payload["format_version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError("unsupported model format")
        # Column-major, as `_load_training_csv` builds it: the kernel's
        # reduction order follows the layout of the points, so this rebuilds
        # bit for bit the model that `fit` returned.
        points = _number_array(payload, "points", ndim=2, order="F")
        outputs, p, beta = (_number_array(payload, key) for key in ("outputs", "p", "beta"))
        mins, maxs = _number_array(payload, "input_min"), _number_array(payload, "input_max")
        scalars = ("condition_exponent", "deviance", "mu", "sigma2", "delta", "kappa")
        a, *stored = (float(_number_array(payload, key, ndim=0)) for key in scalars)
        for key in ("fe_count", "seed"):
            if type(payload[key]) is not int or payload[key] < 0:
                raise TypeError(f"{key}: expected an int >= 0, got {json.dumps(payload[key])[:40]}")
        if a != CONDITION_EXPONENT:
            raise ValueError(f"condition_exponent must be {CONDITION_EXPONENT!r}, got {a!r}")
        if payload["strategy"] not in STRATEGIES:
            raise ValueError(f"unknown strategy {json.dumps(payload['strategy'])[:40]}")
        design = DesignSet(points, outputs)
        if p.shape != (design.d,) or np.any(p != p[0]):
            raise ValueError("p must repeat one exponent per input column")
        # A width below the smallest normal float64 can overflow the scaling of a point.
        with np.errstate(over="ignore", invalid="ignore"):
            widths = maxs - mins if mins.shape == maxs.shape == (design.d,) else np.zeros(1)
        if not np.all((widths >= np.finfo(float).tiny) & (widths < math.inf)):
            raise ValueError(
                "input_max - input_min must be a finite positive normal float64 per column"
            )
        options = GpOptions(p_exponent=float(p[0]))
        model = DevianceObjective(design, options).model(beta, payload["fe_count"])
        # Recomputing the model verifies the file.  The bound is the rounding error of two
        # float64 evaluations at the condition number of R + delta*I, times each value's
        # scale.  Past exp(a) kappa's bits do not carry across BLAS builds: it is clamped.
        kappa = min(model.correlation.kappa, math.exp(CONDITION_EXPONENT))
        stored[-1] = min(stored[-1], math.exp(CONDITION_EXPONENT))
        rounding = (design.n + 1) * kappa * np.finfo(float).eps
        recomputed = (model.deviance, model.mu_hat, model.sigma2_hat, model.correlation.delta)
        scales = (1.0, design.output_range, model.sigma2_hat, design.n, kappa)
        for key, got, want, scale in zip(scalars[1:], stored, (*recomputed, kappa), scales):
            if not abs(got - want) <= 1e-8 * max(abs(want), scale) + rounding * scale:
                raise ValueError(
                    f"stored {key} {payload[key]!r} does not match "
                    f"{want!r} recomputed from the file's data and beta"
                )
    except TypeError as exc:
        raise ValueError(f"{path}: a model file value has the wrong type ({exc})") from None
    except (ValueError, UnfittableError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, mins, maxs


def _csv_lines(rows: list[list] | np.ndarray, k: int) -> str:
    """The CSV lines of block k of the rows, `PREDICT_BLOCK` rows to a block, a
    float array's a column at a time.  Cells are Python scalars and fixed identifiers,
    so no cell needs quoting; format(float, "") is str(float), the shortest round-trip repr."""
    rows = rows[k * PREDICT_BLOCK:(k + 1) * PREDICT_BLOCK]
    if isinstance(rows, np.ndarray):
        line = ",".join(["{}"] * rows.shape[1]) + "\n"
        return "".join(map(line.format, *rows.T.tolist()))
    return "".join([",".join(map(str, row)) + "\n" for row in rows])


def _write_rows(
    path: str | None, header: list[str], rows: list[list] | np.ndarray, fmt: str = "csv"
) -> None:
    """Write a table to `path` (stdout when None) as CSV, JSON records or markdown.

    A table of at least `_worker._SHARE_MIN_ROWS` rows shares its CSV lines
    with the process's worker, which takes blocks from the back."""
    handle = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        if fmt == "csv":
            lines = functools.partial(_csv_lines, rows)
            share = len(rows) >= _worker._SHARE_MIN_ROWS
            blocks = _worker.run(-(-len(rows) // PREDICT_BLOCK), lines, share=share)
            handle.write("".join([",".join(header) + "\n", *blocks]))
        elif fmt == "json":
            records = [dict(zip(header, row)) for row in rows]
            handle.write(json.dumps(records, sort_keys=True, indent=2) + "\n")
        else:
            cells = [header] + [[str(v) for v in row] for row in rows]
            widths = [max(map(len, column)) for column in zip(*cells)]
            lines = ["| " + " | ".join(map(str.ljust, row, widths)) + " |" for row in cells]
            lines.insert(1, "|-" + "-|-".join("-" * w for w in widths) + "-|")
            handle.write("\n".join(lines) + "\n")
    finally:
        if path:
            handle.close()


def _cmd_fit(args) -> int:
    design, mins, maxs = _load_training_csv(args.data)
    model = fit(design, args.strategy, p_exponent=args.p, rng=args.seed)
    payload = _model_payload(model, mins, maxs, args.strategy, args.seed)
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
    x_names, x_native = _input_columns(_read_table(args.points), args.points, model.design.d)
    # Clamped in native units, a far point cannot overflow the scaling,
    # and a bound scales to exactly 0 or 1.
    x_clamped = np.clip(x_native, mins, maxs)
    if not np.array_equal(x_clamped, x_native):
        warnings.warn("inputs outside the training range; clamping to it")
    x_scaled = (x_clamped - mins) / (maxs - mins)
    out_rows = np.column_stack([x_native, *predict_many(model, x_scaled)])
    _write_rows(args.out, x_names + ["y_hat", "mse"], out_rows)
    return 0


_TABLE_COLUMNS = (
    "function", "strategy", "pct_delta_deviance", "pct_delta_rmspe", "mean_fe",
    "mean_deviance", "mean_rmspe", "rmspe_std_err", "replicates", "failed",
)


def _cmd_benchmark(args) -> int:
    names = list(TEST_FUNCTION_NAMES) if args.function == "all" else [args.function]
    strategies = tuple(s.strip() for s in args.strategies.split(","))
    rows, raw_rows = [], []
    for name in names:
        results = run_benchmark(
            test_function(name),
            strategies,
            replicates=args.replicates,
            rng_seed=args.seed,
            p_exponent=args.p,
        )
        # A strategy with no fitted replicate has NaN means, and so NaN gaps.
        dev_gaps = percent_deltas([r.mean_deviance for r in results])
        rms_gaps = percent_deltas([r.mean_rmspe for r in results])
        for r, dd, rd in zip(results, dev_gaps, rms_gaps):
            rows.append([
                name, r.strategy, round(float(dd), 3), round(float(rd), 3),
                round(r.mean_fe, 1), r.mean_deviance, r.mean_rmspe, r.rmspe_std_err,
                r.replicates, r.failed_replicates,
            ])
            raw_rows += [
                [name, r.strategy, i, *record]
                for i, record in enumerate(zip(r.deviances, r.rmspes, r.fe_counts))
            ]
    _write_rows(args.out, list(_TABLE_COLUMNS), rows, args.format)
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


def _grid(axes: list[np.ndarray]) -> np.ndarray:
    """Every combination of the axes' values, one per row, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _cmd_surface(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    design = _surface_design(args)
    deviance = args.what == "deviance"
    if deviance and design.d > 2:
        raise ValueError("deviance surfaces are limited to 1 or 2 input dimensions")
    if not deviance and design.d != 2:
        raise ValueError("prediction surfaces require exactly 2 input dimensions")
    # The grid comes before the fit, so that a grid past memory costs none.
    box = default_beta_box(design.d) if deviance else SearchBox(np.zeros(2), np.ones(2))
    try:
        grid = _grid([np.linspace(lo, hi, args.grid) for lo, hi in zip(box.lower, box.upper)])
    except MemoryError:
        raise ValueError(f"--grid {args.grid}: the grid does not fit in memory") from None
    if deviance:
        objective = DevianceObjective(design, GpOptions(p_exponent=args.p))
        rows = np.column_stack([grid, objective.batch(list(grid))])
        header = [f"beta{k + 1}" for k in range(design.d)] + ["L"]
    else:
        model = fit(design, args.strategy, p_exponent=args.p, rng=args.seed)
        rows = np.column_stack([grid, *predict_many(model, grid)])
        header = ["x1", "x2", "y_hat", "mse"]
    _write_rows(args.out, header, rows)
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
    common.add_argument("--seed", type=int, default=0)
    one_strategy = argparse.ArgumentParser(add_help=False, parents=[common])
    one_strategy.add_argument("--strategy", default=DEFAULT_STRATEGY, choices=STRATEGIES)

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
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
        return args.func(args)
    except (ValueError, UnfittableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
