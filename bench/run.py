"""gpdevopt benchmark: fit and predict workloads, timed in deviance evaluations (FE).

Run from the repository root:

    python3 bench/run.py --workload lowd-all --seed 0 --seconds 30 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

  lowd-all      hump (d=1, n=10) and Goldstein-Price (d=2, n=20) testbed
                designs, fitted with all seven strategies, then predict_many
                on the protocol's validation set
  highd-direct  Rastrigin 10-D (n=100) and Perm 12-D (n=120), fitted with
                DIRECT-BFGS and DIRECT-IF, then predict_many on the 100d-point
                validation set
  dense-cli     dense native-coordinate CSVs (hump n=40, Goldstein-Price
                n=100) through `gpdevopt fit` and `gpdevopt predict` on a
                101x101-point grid

Each workload is a closed loop: one caller in this process, one call at a
time.  A round runs every (function, strategy) job of the mix once, each on a
fresh design; rounds repeat until --seconds have passed, and at least the
workload's fingerprint rounds always run.  BLAS is pinned to one thread, and
timing metrics are scaled to a reference machine speed (see SpeedProbe).

With --trace 0 the end-to-end metrics are printed; with --trace 1 every call
is made twice, plain and traced, the two must give identical results, and the
per-layer metrics are printed.  Every fit's output is checked.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a run record with the machine, per-fit times and spans is
written under bench/_work/.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads it: multi-threaded eigvalsh at n=100 is several
# times slower than one thread on a two-core machine, and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "fingerprints.json"

# Set-up (input generation and warm-up) is repeated this many times and its
# median reported, so that work moved into set-up shows.
SETUP_REPEATS = 3

# Share of the measured time spent timing the SpeedProbe kernel, and the sum
# of the kernel's inverse squared lengthscales.
PROBE_SHARE = 0.03
PROBE_THETA_SUM = 20.0

# The 90th percentile of fit time is printed (not a metric) only when at
# least ten fits lie beyond it.
TAIL_MIN_FITS = 100


def import_program() -> float:
    """Import gpdevopt from this checkout's src/ and return the seconds it took."""
    if not (SRC / "gpdevopt" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gpdevopt package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gpdevopt  # noqa: F401
    import gpdevopt.cli  # noqa: F401
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    seconds = time.perf_counter() - t0
    if Path(gpdevopt.__file__).resolve().parent != SRC / "gpdevopt":
        raise SystemExit(f"bench: imported gpdevopt from {gpdevopt.__file__}, not {SRC}")
    return seconds


def openblas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process, with its configuration and thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name:
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        # numpy links an ILP64 build (suffix 64_), scipy an LP64 build.
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            found.append({
                "library": Path(path).name,
                "config": get_config().decode(),
                "threads": get_threads(),
            })
            break
    return found


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
    }


def fingerprint(results) -> tuple[str, dict]:
    fits = {r.label: r.digest() for r in results}
    return hashlib.sha256("\n".join(fits.values()).encode()).hexdigest()[:32], fits


def compare_reference(workload: str, seed: int, digest: str, fits: dict) -> list[str]:
    """Lines naming every fit whose fingerprint differs from the committed one."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = reference.get(workload, {}).get(str(seed))
    if ref is None:
        return [f"fingerprint {workload} seed {seed}: {digest} (no committed reference)"]
    if ref["digest"] == digest:
        return [f"fingerprint {workload} seed {seed}: {digest} (matches committed reference)"]
    drifted = sorted(set(ref["fits"]) ^ set(fits) | {
        label for label in fits if ref["fits"].get(label) not in (None, fits[label])
    })
    return [f"fingerprint DRIFT {workload} seed {seed}: {digest} != committed {ref['digest']}"] + [
        f"  drifted fit: {label}" for label in drifted
    ]


class SpeedProbe:
    """Times a fixed kernel between calls, to measure this host's speed.

    On a shared host the speed of one process switches, within a second,
    between states up to 1.6x apart, and the share of time spent in each
    drifts between 30-second windows; no statistic over the calls of one run
    removes that.  The kernel is a frozen numpy/scipy copy of one deviance
    evaluation (Gaussian kernel, eigenvalues, Cholesky, triangular solve) at
    each design shape of the workload, the work that takes 78-96% of every
    workload's fit time, so the host's state slows it as it slows the
    program; it shares no code with gpdevopt, so a change to the program
    cannot move it.  It is sampled after every call until it has taken
    PROBE_SHARE of the measured time, and timing metrics are scaled by
    `factor()` = workload.probe_reference_s / (mean kernel time of the run):
    they read as they would at the reference speed.  The mean, not the
    median, matches how time in each state adds up.
    """

    def __init__(self, shapes, reference_s: float):
        import numpy as np
        from scipy import linalg

        self._np, self._linalg = np, linalg
        self._reference_s = reference_s
        rng = np.random.default_rng(0)
        self._cases = []
        for n, d, repeats in shapes:
            x = rng.random((n, d))
            dist2 = np.transpose((x[:, None, :] - x[None, :, :]) ** 2, (2, 0, 1))
            theta = np.full(d, PROBE_THETA_SUM / d)
            self._cases.append((dist2, theta, rng.random(n), np.eye(n), repeats))
        self.samples: list[float] = []

    def sample(self) -> None:
        np, linalg = self._np, self._linalg
        t0 = time.perf_counter()
        for dist2, theta, y, eye, repeats in self._cases:
            for _ in range(repeats):
                R = np.exp(-np.tensordot(theta, dist2, axes=1))
                np.linalg.eigvalsh(R)
                L = linalg.cholesky(R + 1e-3 * eye, lower=True, check_finite=False)
                linalg.solve_triangular(L, y, lower=True, check_finite=False)
        self.samples.append(time.perf_counter() - t0)

    def keep_up(self, measured_s: float) -> None:
        """Sample until the probe has used PROBE_SHARE of `measured_s`, at least once."""
        self.sample()
        while sum(self.samples) < PROBE_SHARE * measured_s:
            self.sample()

    def factor(self) -> float:
        return self._reference_s / statistics.fmean(self.samples)


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end_metrics(setup_s: float, setup_n: int, results, speed: float) -> dict:
    """name -> (value, unit, sample count); times and rates at the reference speed."""
    ok = [r for r in results if r.ok]
    rounds: dict[int, list] = {}
    for r in ok:
        rounds.setdefault(r.round, []).append(r)
    # The p50 is a median over rounds of the round's mean time per call:
    # every round holds the whole mix once, so the median never falls between
    # the modes of a mix whose designs differ in cost.
    predict_rounds = [statistics.fmean(r.predict_s for r in rs) for rs in rounds.values()]
    fit_total = sum(r.fit_s for r in ok)
    predict_total = sum(r.predict_s for r in ok)
    return {
        "setup_s": (setup_s * speed, "s", setup_n),
        "fe_per_s": (_ratio(sum(r.fe_count for r in ok), fit_total) / speed, "FE/s", len(ok)),
        "predict_pts_per_s": (
            _ratio(sum(r.predict_points for r in ok), predict_total) / speed, "pts/s", len(ok)
        ),
        "predict_s_p50": (_median(predict_rounds) * speed, "s", len(predict_rounds)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
    }


def fit_latency_lines(results, speed: float) -> list[str]:
    """Fit wall time, printed but not a metric: its spread is the designs'.

    One fit's time is its FE count times the time per FE, and the FE count
    depends on the design: highd-direct's 8-12 fits per run differ by 12% in
    mean FE count from seed to seed.  fe_per_s carries every change of fit
    time that leaves the FE counts alone, as a performance change must.
    """
    fit_s = [r.fit_s * speed for r in results if r.ok]
    if not fit_s:
        return []
    lines = [f"fit_s_p50 (not a metric) = {statistics.median(fit_s):.6g} s (n={len(fit_s)}, scaled)"]
    if len(fit_s) >= TAIL_MIN_FITS:
        lines.append(f"fit_s_p90 (not a metric) = {statistics.quantiles(fit_s, n=10)[-1]:.6g} s"
                     f" (n={len(fit_s)}, scaled)")
    return lines


def check_traced(result, plain, tracer, captures_before: int) -> None:
    """A traced fit must count its FEs exactly and behave like the plain one."""
    if len(tracer.captures) != captures_before + 1:
        result.problems.append("fit did not call run_strategy exactly once")
        return
    capture = tracer.captures[-1]
    if not result.fe_count == len(capture.betas) == capture.report_fe:
        result.problems.append(
            f"fe_count {result.fe_count} != objective calls seen {len(capture.betas)}"
            f" or run_strategy total {capture.report_fe}"
        )
    if plain.ok and result.digest() != plain.digest():
        result.problems.append("traced fit differs from the plain fit")


def run_rounds(workload, jobs, seconds: float, tracer, probe):
    """Closed loop over rounds until `seconds` pass; returns (plain, traced, rounds)."""
    plain, traced = [], []
    start = time.perf_counter()
    r = 0
    while r < workload.fingerprint_rounds or time.perf_counter() - start < seconds:
        if r > 0:
            jobs = workload.make_round(r)
        for job in jobs:
            plain.append(workload.run_job(job, r, None))
            if tracer is None:
                probe.keep_up(time.perf_counter() - start)
            if tracer is not None:
                tracer.round = r
                before = len(tracer.captures)
                traced.append(workload.run_job(job, r, tracer))
                if traced[-1].ok:
                    check_traced(traced[-1], plain[-1], tracer, before)
        r += 1
    return plain, traced, r


def _json_number(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lowd-all", "highd-direct", "dense-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_s = import_program()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    if not machine["openblas"] or any(lib["threads"] != 1 for lib in machine["openblas"]):
        print("bench: BLAS is not pinned to one thread: " + json.dumps(machine["openblas"]),
              file=sys.stderr)
        return 3

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / run_id
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = SpeedProbe(workload.probe_shapes, workload.probe_reference_s)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs = workload.make_round(0)
            workload.warm_up(jobs)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        start = time.perf_counter()
        plain, traced, rounds = run_rounds(workload, jobs, args.seconds, tracer, probe)
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = plain + traced
    failures = [f"{res.label}: {p}" for res in results for p in res.problems]
    digest, fits = fingerprint(r for r in plain if r.round < workload.fingerprint_rounds)
    lines = [f"workload {args.workload} seed {args.seed}: {rounds} rounds, {len(plain)} fits "
             f"in {measured_s:.1f} s"]
    lines += compare_reference(args.workload, args.seed, digest, fits)
    if tracer is None:
        speed = probe.factor()
        lines.append(f"machine speed: probe mean {statistics.fmean(probe.samples) * 1e3:.3f} ms"
                     f" over {len(probe.samples)} samples; timings scaled by {speed:.4f}")
        metrics = end_to_end_metrics(setup_s, len(setup_times), plain, speed)
        lines += fit_latency_lines(plain, speed)
    else:
        traced_digest, _ = fingerprint(r for r in traced if r.round < workload.fingerprint_rounds)
        if traced_digest != digest:
            failures.append(f"traced fingerprint {traced_digest} != plain fingerprint {digest}")
        layers, problems = layer_metrics(tracer, workload.fingerprint_rounds)
        failures += problems
        pairs = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
        overhead = _ratio(sum(t.fit_s for _, t in pairs), sum(p.fit_s for p, _ in pairs))
        metrics = {name: (value, unit, len(traced)) for name, (value, unit) in layers.items()}
        metrics["trace.overhead_ratio"] = (overhead, "ratio", len(pairs))
        lines.append(f"tracing overhead: traced fit time / plain fit time = {overhead:.4f}")
    lines += [f"failed: {f}" for f in failures]
    lines += [f"{name} = {value:.6g} {unit} (n={n})" for name, (value, unit, n) in metrics.items()]
    print("\n".join(lines))
    for line in lines:
        if line.startswith(("fingerprint DRIFT", "  drifted", "failed")):
            print(line, file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "import_s": import_s,
        "setup_repeats_s": setup_times, "measured_s": measured_s, "rounds": rounds,
        "probe_s": probe.samples, "fingerprint": {"digest": digest, "fits": fits},
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in metrics.items()},
        "fits": [{"label": res.label, "traced": i >= len(plain), "fit_s": res.fit_s,
                  "predict_s": res.predict_s, "fe": res.fe_count} for i, res in enumerate(results)],
    }
    (WORK / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (WORK / f"{run_id}.spans.json").write_text(json.dumps(tracer.to_rows()) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": sum(1 for res in results if not res.ok),
        "metrics": {name: {"value": _json_number(v), "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
