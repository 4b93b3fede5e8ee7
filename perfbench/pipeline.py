"""One benchmark run: repeated end-to-end repetitions, output checks, metrics.

A repetition takes one draw through the public API:

    setup    generate the draw, split it, save_csv + load_csv the training rows
    fit      boosting.fit on the loaded rows
    persist  model_io.save_model + load_model
    infer    prediction, effects, scoring and diagnostics on the loaded model

and then checks the outputs outside the timed phases. A run cycles over
N_DRAWS draws derived from the workload seed, at least once and until the
requested seconds have passed. Quality metrics are means over the draws of
the first cycle, so they repeat exactly at a fixed seed. Every phase and
every check is one attempted operation; an exception or a failed check
counts as failed.

End-to-end times are medians over repetitions of speed-corrected wall
time. On a shared machine the speed of the same code drifts by up to 1.8x
for tens of seconds to minutes, which would make a run's times depend on
when it ran. So the run times a fixed calibration unit between repetitions
(tree-style recursive masking, column sorts and dense Cholesky solves: the
three kinds of work gbmixed does) and scales each repetition's wall times
by CAL_REF_S over the mean of the calibrations before and after it. The
result reads as seconds at the machine's full speed; raw medians go to
standard error. The calibration is the benchmark's own code, so no change
to gbmixed can move it.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from gbmixed import boosting, data, likelihood, model_io
from gbmixed.data import split_by_groups, summarize_groups

N_DRAWS = 8
# calibrate() at full speed on the machine described in baseline.json: the
# 10th percentile of 450 calibrations over 75 s was 0.0078 s.
CAL_REF_S = 0.0080
_CAL_RNG = np.random.default_rng(12345)
_CAL_X = _CAL_RNG.random((200, 32))
_CAL_B = _CAL_RNG.random((150, 150))
_CAL_S = _CAL_B @ _CAL_B.T + 150.0 * np.eye(150)

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "infer_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "eval_nll": "nats/obs",
    "cate_rmse": "y",
    "interval_score": "y",
}
TIMES = ("setup_s", "fit_s", "infer_s", "total_s")
QUALITY = ("eval_nll", "cate_rmse", "interval_score")
LOGLIK_RTOL = 1e-9


class Ops:
    """Attempted and failed operation counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)


def _cal_tree(depth: int, j: int = 0):
    if depth == 0:
        return (-1, float(j))
    return (j % 32, 0.5, _cal_tree(depth - 1, 2 * j + 1), _cal_tree(depth - 1, 2 * j + 2))


_CAL_TREE = _cal_tree(3)


def _cal_fill(node, rows, out) -> None:
    if node[0] < 0:
        out[rows] = node[1]
        return
    go = _CAL_X[rows, node[0]] < node[1]
    _cal_fill(node[2], rows[go], out)
    _cal_fill(node[3], rows[~go], out)


def _calibration_unit() -> None:
    out = np.empty(_CAL_X.shape[0])
    rows = np.arange(_CAL_X.shape[0])
    for _ in range(60):
        _cal_fill(_CAL_TREE, rows, out)
    for _ in range(3):
        order = np.argsort(_CAL_X, axis=0, kind="stable")
        np.cumsum(np.take_along_axis(_CAL_X, order, axis=0), axis=0)
    for _ in range(4):
        np.linalg.solve(np.linalg.cholesky(_CAL_S), _CAL_B)


def calibrate() -> float:
    """Median time of three calibration units, in seconds."""
    gc.collect()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def draw_seeds(seed: int) -> list[int]:
    """The run's draw seeds; every fit seed derives from these."""
    children = np.random.SeedSequence(seed).spawn(N_DRAWS)
    return [int(c.generate_state(1)[0]) for c in children]


def _same_data(a, b) -> bool:
    if a.group_ids() != b.group_ids() or a.feature_names != b.feature_names:
        return False
    if a.treatment_index != b.treatment_index:
        return False
    return all(
        np.array_equal(ga.y, gb.y) and np.array_equal(ga.X, gb.X) and np.array_equal(ga.Z, gb.Z)
        for ga, gb in zip(a.groups, b.groups)
    )


def _same_predictions(model, loaded, X, Xt) -> bool:
    return (
        model.history == loaded.history
        and np.array_equal(boosting.eval_mean(model, X), boosting.eval_mean(loaded, X))
        and np.array_equal(boosting.eval_resid_var(model, X), boosting.eval_resid_var(loaded, X))
        and np.array_equal(boosting.eval_gcov_rows(model, Xt), boosting.eval_gcov_rows(loaded, Xt))
    )


def oracle_eval_loglik(model, train) -> tuple[float, int]:
    """Eval-split log-likelihood through the per-group oracle, and its row count."""
    cfg = model.config
    _, eval_ds = split_by_groups(train, 1.0 - cfg.eval_fraction, cfg.seed)
    G = boosting.eval_gcov_rows(model, eval_ds.x_tilde_matrix())
    total = 0.0
    for g, Gg in zip(eval_ds.groups, G):
        mu = boosting.eval_mean(model, g.X)
        Sigma = likelihood.marginal_covariance(g.Z, Gg, boosting.eval_resid_var(model, g.X))
        total += likelihood.group_loglik(g.y, mu, Sigma, g.group_id)
    return total, eval_ds.n_obs


def run_rep(wl, seed: int, workdir: Path, ops: Ops, tracer=None):
    """One repetition; returns (phase times, quality) or None when it failed."""
    gc.collect()   # start every repetition from the same heap, not the last one's garbage
    phase = tracer.active if tracer is not None else (lambda name: nullcontext())
    clock = time.perf_counter
    times = {}
    csv_path = str(workdir / "train.csv")
    model_path = str(workdir / "model.gbmixed")
    step = "setup"
    try:
        ops.attempted += 1
        with phase("phase.setup"):
            t0 = clock()
            prep = wl.prepare(seed)
            data.save_csv(csv_path, prep.train, prep.schema)
            train = summarize_groups(data.load_csv(csv_path, prep.schema))
            times["setup_s"] = clock() - t0
        step = "fit"
        ops.attempted += 1
        with phase("phase.fit"):
            t0 = clock()
            model = boosting.fit(train, prep.config)
            times["fit_s"] = clock() - t0
        step = "persist"
        ops.attempted += 1
        with phase("phase.persist"):
            t0 = clock()
            model_io.save_model(model_path, model, prep.schema)
            loaded, _ = model_io.load_model(model_path)
            times["persist_s"] = clock() - t0
        step = "infer"
        ops.attempted += 1
        with phase("phase.infer"):
            t0 = clock()
            out = wl.infer(loaded, prep, train)
            times["infer_s"] = clock() - t0
    except Exception:
        ops.failed += 1
        print(f"{wl.name} seed {seed}: {step} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None
    times["total_s"] = times["fit_s"] + times["persist_s"] + times["infer_s"]

    try:
        ops.check("load_csv returns the generated training rows", _same_data(train, prep.train))
        test = prep.test.stacked()
        ops.check("loaded model predicts bit-identically",
                  _same_predictions(model, loaded, test.X, prep.test.x_tilde_matrix()))
        oracle, n_eval = oracle_eval_loglik(model, train)
        ops.check("history matches the per-group oracle",
                  math.isclose(model.history[-1], oracle, rel_tol=LOGLIK_RTOL))
        for name, ok in wl.checks(out):
            ops.check(name, ok)
        quality = {"eval_nll": -model.history[-1] / n_eval, **wl.quality(out, prep)}
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops.check("output checks run to completion", False)
        return None
    return times, quality


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def _finite(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if math.isfinite(v["value"])}


def run(wl, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run workload `wl` for `seconds` and return the result object."""
    seeds = draw_seeds(seed)
    ops = Ops()
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        if trace:
            metrics = _traced(wl, seeds, seconds, ops, workdir, out_dir / f"spans-{wl.name}-{seed}.json")
        else:
            metrics = _untraced(wl, seeds, seconds, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": _finite(metrics),
    }


def _untraced(wl, seeds, seconds, ops, workdir) -> dict:
    deadline = time.perf_counter() + seconds
    reps, raw, first = [], [], {}
    i = 0
    cal_before = calibrate()
    while i < len(seeds) or time.perf_counter() < deadline:
        seed = seeds[i % len(seeds)]
        i += 1
        rep = run_rep(wl, seed, workdir, ops)
        cal_after = calibrate()
        scale = CAL_REF_S / (0.5 * (cal_before + cal_after))
        cal_before = cal_after
        if rep is None:
            continue
        times, quality = rep
        raw.append(times)
        reps.append({k: v * scale for k, v in times.items()})
        print(f"{wl.name} rep {i} draw {seed} speed {scale:.3f}: "
              + " ".join(f"{k} {v:.4f}" for k, v in times.items()), file=sys.stderr)
        if seed in first:
            ops.check("quality repeats exactly on a repeated draw", quality == first[seed])
        else:
            first[seed] = quality
    metrics = {}
    if reps:
        for name in TIMES:
            metrics[name] = statistics.median(r[name] for r in reps)
        print(f"{wl.name}: raw wall-time medians "
              + " ".join(f"{k} {statistics.median(r[k] for r in raw):.4f}" for k in TIMES),
              file=sys.stderr)
    if first:
        for name in QUALITY:
            metrics[name] = statistics.fmean(q[name] for q in first.values())
        coverage = statistics.fmean(q["coverage_pct"] for q in first.values())
        print(f"{wl.name}: {len(reps)} repetitions, interval coverage {coverage:.2f}% "
              f"(nominal 90%), failed {ops.failed}/{ops.attempted}", file=sys.stderr)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}


def _traced(wl, seeds, seconds, ops, workdir, spans_path: Path) -> dict:
    """Pairs of untraced and traced repetitions on the same draw.

    Per-layer values are medians over the traced repetitions, in raw wall
    time; the tracing overhead is the median of traced minus untraced raw
    total_s over the pairs, also given as a share of the untraced median.
    """
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    per_rep, overhead, last = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    try:
        while i == 0 or time.perf_counter() < deadline:
            seed = seeds[i % len(seeds)]
            i += 1
            plain = run_rep(wl, seed, workdir, ops)
            traced = run_rep(wl, seed, workdir, ops, tracer)
            spans, counts = tracer.take()
            if plain is None or traced is None:
                continue
            per_rep.append(tracing.layer_metrics(spans, counts, tracer.absent))
            overhead.append((traced[0]["total_s"], plain[0]["total_s"]))
            last = spans
    finally:
        tracer.uninstall()
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": last}))
    if tracer.absent:
        print(f"absent layer targets: {sorted(tracer.absent)}", file=sys.stderr)
    metrics = {}
    if per_rep:
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            if all(name in r for r in per_rep):
                metrics[name] = {"value": statistics.median(r[name] for r in per_rep), "unit": unit}
        extra = statistics.median(t - p for t, p in overhead)
        metrics["trace.overhead_s"] = {"value": extra, "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": extra / statistics.median(p for _, p in overhead), "unit": "ratio",
        }
    return metrics
