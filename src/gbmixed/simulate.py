"""Synthetic matched-pair benchmarks with heterogeneous treatment effects.

Three stock scenarios, all built on pairs that share a group-level random
intercept, with exactly one treated member per pair:

  expA  p=300 mixed covariates, nonlinear mean, constant variances
        (sigma_alpha^2 = 2.25, sigma_eps^2 = 0.47)
  expB  p=30 uniform covariates, linear mean, heteroscedastic residual
        variance r(x) = 0.3 + 0.4 |x2 - 0.5| + 0.4 1(x5 >= 0.5)
  expC  p=30 uniform covariates, heteroscedastic residual variance
        r(x) = 0.4 + 0.4 |x5 - 0.5| and pair-level random-intercept
        variance g(x~) = 0.5 + 1.5 |x~3 - 0.5|

The treatment effect in all three is tau(x) = steep(x_a) * steep(x_b) with a
steep sigmoid centered at 1/3 (expA uses x6, x7; expB and expC use x1, x2).
The treatment indicator is appended as the last feature column and sampled
in every boosting iteration.

Scenario's field defaults are the p=30 family that expB, expC and
two_group_sd share (uniform covariates, mean 2 x1 + 1, the x1, x2 effect),
so those state only their variance functions and settings. The covariate
draw receives p from n_features, the one statement of p.

Both potential outcomes are generated and stored: the pair's intercept is
shared, while the residuals of the two arms are drawn independently with the
same variance r(x), so realized effects Y(1) - Y(0) scatter around tau(x)
with variance r(x,1) + r(x,0). That makes interval coverage of realized
effects a meaningful target rather than a certainty.

Scoring reports CATE mean squared error against tau, interval coverage of
realized effects in percent, and mean squared errors of the fitted variance
functions where the variant models them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from .boosting import (
    VARIANT_COMPONENTS,
    FitConfig,
    FittedModel,
    eval_gcov_rows,
    eval_resid_var,
    fit,
)
from .config import apply_settings
from .data import GroupedDataset, _group_blocks, split_by_groups
from .errors import ConfigError, check_fields, check_seed, check_type
from .prediction import cate, check_alpha, interval_halfwidth, ite_variance

TRAIN_FRACTION = 0.6
SIGMOID_SLOPE = 20.0
SIGMOID_CENTER = 1.0 / 3.0


def steep_sigmoid(x):
    """1 / (1 + exp(-20 (x - 1/3))): near 0 below the center, near 1 above."""
    return 1.0 / (1.0 + np.exp(-SIGMOID_SLOPE * (np.asarray(x, dtype=float) - SIGMOID_CENTER)))


# What every scenario's fit changes from FitConfig(): a fixed iteration count
# without early stopping, and a 5% internal evaluation split so the boost set
# covers nearly the whole training block, mirroring the benchmark protocol
# where the held-out 40% handles validation.
_SHARED_SETTINGS = (("early_stopping", False), ("eval_fraction", 0.05))


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: aligned with the dataset's canonical order."""

    tau: np.ndarray        # (n,) treatment effect at each observation
    y0: np.ndarray         # (n,) potential outcome under control
    y1: np.ndarray         # (n,) potential outcome under treatment
    resid_var: np.ndarray  # (n,) true r(x)
    group_var: np.ndarray  # (C,) true pair intercept variance
    alpha: np.ndarray      # (C,) realized pair intercepts


# scenario ingredients are module-level functions (or partials of them) so
# Scenario objects can cross process boundaries for parallel replications

def _uniform_covariates(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    return rng.random((n, p))


def _expa_covariates(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    X = rng.standard_normal((n, p))
    X[:, 1] = rng.uniform(0.0, 2.0, size=n)
    X[:, 2] = rng.binomial(1, 0.5, size=n).astype(float)
    X[:, 3] = rng.poisson(1.5, size=n).astype(float)
    return X


def _expa_mean(X):
    x1, x2, x3, x4, x5 = X[:, 0], X[:, 1], X[:, 2], X[:, 3], X[:, 4]
    return (
        0.5 * np.sin(x1)
        + 0.1 * x2**2
        + 0.1 * x3 * x4
        + 0.3 * np.log1p(x4) * x5
        + x1 * x5
    )


def _expa_tau(X):
    return steep_sigmoid(X[:, 5]) * steep_sigmoid(X[:, 6])


def _constant_per_row(X, value):
    return np.full(np.asarray(X).shape[0], value)


def _expb_resid_var(X):
    return 0.3 + 0.4 * np.abs(X[:, 1] - 0.5) + 0.4 * (X[:, 4] >= 0.5)


def _expc_resid_var(X):
    return 0.4 + 0.4 * np.abs(X[:, 4] - 0.5)


def _expc_group_var(Xt):
    return 0.5 + 1.5 * np.abs(Xt[:, 2] - 0.5)


def _two_level_group_var(Xt, low_var, high_var):
    return np.where(Xt[:, 2] < 0.5, low_var, high_var)


def _linear_mean(X):
    return 2.0 * X[:, 0] + 1.0


def _pair_tau(X):
    return steep_sigmoid(X[:, 0]) * steep_sigmoid(X[:, 1])


@dataclass(frozen=True)
class Scenario:
    """A matched-pair data generating process and its benchmark fit settings.

    mean_fn and tau_fn map an (n, p) covariate matrix to vectors;
    resid_var_fn does the same for per-observation residual variances, and
    group_var_fn maps pair summaries (C, p) to per-pair intercept variances.
    covariates(rng, n_pairs, p) draws one shared row per pair, with p taken
    from n_features. settings holds (key, value) pairs in the keys of a
    `gbmixed fit` config file and of `simulate --set` (variant,
    learning_rate, iterations, tree_min_child, ...); they apply over the
    settings all scenarios share. The defaults are the p = 30 family: uniform
    covariates on [0, 1), mean 2 x1 + 1 and effect steep(x1) * steep(x2).
    """

    name: str
    resid_var_fn: Callable
    group_var_fn: Callable
    settings: tuple                 # ((key, value), ...) over _SHARED_SETTINGS
    n_features: int = 30
    mean_fn: Callable = _linear_mean
    tau_fn: Callable = _pair_tau
    covariates: Callable = _uniform_covariates
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        check_seed(self.seed)

    def default_config(self, **overrides) -> FitConfig:
        """Fit settings used in the benchmark runs of this scenario.

        FitConfig() with the shared settings and then the scenario's applied
        by config.apply_settings, and the treatment column (index
        n_features) forced into every iteration's feature sample. Keyword
        arguments are FitConfig fields and win over both.
        """
        cfg = apply_settings(FitConfig(), dict(_SHARED_SETTINGS + self.settings))
        return replace(cfg, force_include=(self.n_features,), **overrides)


def expa_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        name="expA",
        resid_var_fn=partial(_constant_per_row, value=0.47),
        group_var_fn=partial(_constant_per_row, value=2.25),
        settings=(("variant", "base"), ("learning_rate", 0.03)),
        n_features=300,
        mean_fn=_expa_mean,
        tau_fn=_expa_tau,
        covariates=_expa_covariates,
        seed=seed,
    )


def expb_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        name="expB",
        resid_var_fn=_expb_resid_var,
        group_var_fn=partial(_constant_per_row, value=0.25),
        settings=(("variant", "rboost"), ("learning_rate", 0.01)),
        seed=seed,
    )


# Joint variance boosting at a 0.03 rate overfits the variance components well
# before the mean converges, which inflates treatment-effect error. The full
# factor scenarios therefore slow the variance channels to 0.01, coarsen the
# leaves, drop feature subsampling (the treatment interaction needs its
# partner covariates available in every tree), and let the evaluation
# likelihood pick the stopping point instead of running a fixed count.
_FULL_FACTOR_SETTINGS = (
    ("variant", "grboost"),
    ("learning_rate", 0.03),
    ("iterations", 800),
    ("lr_gcov", 0.01),
    ("lr_rvar", 0.01),
    ("group_fraction", 0.4),
    ("feature_fraction", 1.0),
    ("early_stopping", True),
    ("lookback", 60),
    ("tolerance", 1e-4),
    ("tree_min_child", 20),
    ("tree_min_parent", 40),
)


# Settings for fits whose purpose is reading component shapes off the model
# rather than benchmark scores. Weak curvature in the residual-variance
# surface (a V needs two splits; the natural first cut at its vertex has
# zero gain) only wins split races reliably when trees see many rows, so
# these fits keep every iteration of a long run at a faster variance rate
# and skip feature subsampling.
_DIAGNOSTIC_SETTINGS = (
    ("iterations", 1000),
    ("lr_gcov", 0.01),
    ("lr_rvar", 0.03),
    ("group_fraction", 0.4),
    ("feature_fraction", 1.0),
    ("tree_min_child", 20),
    ("tree_min_parent", 40),
)


def expb_diagnostic_scenario(seed: int = 0) -> Scenario:
    """Experiment-B generating process with fit settings tuned for shape
    recovery of the residual-variance surface (importance and partial
    dependence), not for benchmark scores. Intended for larger samples
    than the benchmark runs."""
    sc = expb_scenario(seed=seed)
    return replace(sc, name="expB_diagnostic", settings=sc.settings + _DIAGNOSTIC_SETTINGS)


def expc_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        name="expC",
        resid_var_fn=_expc_resid_var,
        group_var_fn=_expc_group_var,
        settings=_FULL_FACTOR_SETTINGS,
        seed=seed,
    )


def two_group_sd_scenario(sd_low: float = 0.5, sd_high: float = 2.0, seed: int = 0) -> Scenario:
    """Pairs whose intercept standard deviation is either sd_low or sd_high.

    The pair summary of x3 decides the level (below 0.5 is the low group),
    giving a group-level learner a clean two-level target for checking how
    well boosted standard deviations track the truth.
    """
    return Scenario(
        name="two_group_sd",
        resid_var_fn=partial(_constant_per_row, value=0.25),
        group_var_fn=partial(_two_level_group_var, low_var=sd_low**2, high_var=sd_high**2),
        settings=_FULL_FACTOR_SETTINGS,
        seed=seed,
    )


SCENARIOS = {
    "expA": expa_scenario,
    "expB": expb_scenario,
    "expB_diagnostic": expb_diagnostic_scenario,
    "expC": expc_scenario,
    "two_group_sd": two_group_sd_scenario,
}


def scenario_by_name(name: str, seed: int = 0) -> Scenario:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    return SCENARIOS[name](seed=seed)


def generate(scenario: Scenario, n_obs: int, seed: int | None = None) -> tuple[GroupedDataset, GroundTruth]:
    """Draw one matched-pair dataset plus its ground truth.

    n_obs must be even. Pairs are matched on covariates: one covariate draw
    per pair is shared by both members, who then differ only in treatment
    (exactly one member treated, which one randomized) and in their
    independent residual draws; the pair also shares a common intercept.
    The treatment indicator is the last feature column.
    """
    check_type("n_obs", n_obs)
    if n_obs % 2 != 0 or n_obs < 4:
        raise ConfigError("n_obs must be an even number of at least 4")
    rng = np.random.default_rng(scenario.seed if seed is None else check_seed(seed))
    n = n_obs
    C = n // 2
    p = scenario.n_features

    Xt = scenario.covariates(rng, C, p)     # pair-level draws, before treatment column
    X = np.repeat(Xt, 2, axis=0)
    pair_of = np.repeat(np.arange(C), 2)

    g_var = np.asarray(scenario.group_var_fn(Xt), dtype=float)
    alpha = rng.normal(0.0, np.sqrt(g_var))
    r_var = np.asarray(scenario.resid_var_fn(X), dtype=float)
    m = np.asarray(scenario.mean_fn(X), dtype=float)
    tau = np.asarray(scenario.tau_fn(X), dtype=float)

    treated_first = rng.integers(0, 2, size=C)
    w = np.zeros(n)
    w[0::2] = treated_first
    w[1::2] = 1 - treated_first

    sd = np.sqrt(r_var)
    eps0 = rng.normal(0.0, sd)
    eps1 = rng.normal(0.0, sd)
    a_obs = alpha[pair_of]
    y0 = a_obs + m + eps0
    y1 = a_obs + m + tau + eps1
    y = np.where(w == 1.0, y1, y0)

    Xw = np.column_stack([X, w])
    names = tuple(f"x{j + 1}" for j in range(p)) + ("w",)
    groups = _group_blocks(range(C), [2] * C, y, Xw, np.ones((n, 1)))
    ds = GroupedDataset(groups=tuple(groups), feature_names=names, treatment_index=p)
    truth = GroundTruth(
        tau=tau, y0=y0, y1=y1, resid_var=r_var, group_var=g_var, alpha=alpha
    )
    return ds, truth


def truth_rows_for(ds: GroupedDataset, truth: GroundTruth) -> GroundTruth:
    """Restrict ground truth to the groups present in a split.

    Group ids index into the generation order, so per-observation arrays can
    be re-gathered for any subset of pairs.
    """
    ids = np.asarray(ds.group_ids(), dtype=int)
    obs = np.concatenate([[2 * i, 2 * i + 1] for i in ids])
    return GroundTruth(
        tau=truth.tau[obs],
        y0=truth.y0[obs],
        y1=truth.y1[obs],
        resid_var=truth.resid_var[obs],
        group_var=truth.group_var[ids],
        alpha=truth.alpha[ids],
    )


@dataclass(frozen=True)
class ScoreRow:
    """Metrics of one fitted model on one test set. Coverage is in percent."""

    cate_mse: float
    coverage: float
    r_mse: float | None = None
    g_mse: float | None = None


def score_predictions(
    tau_hat: np.ndarray,
    var_delta: np.ndarray,
    realized_delta: np.ndarray,
    tau_true: np.ndarray,
    alpha: float = 0.1,
    r_hat: np.ndarray | None = None,
    r_true: np.ndarray | None = None,
    g_hat: np.ndarray | None = None,
    g_true: np.ndarray | None = None,
) -> ScoreRow:
    """Pure metric computation from predictions and truth."""
    half = interval_halfwidth(var_delta, alpha)
    inside = np.abs(realized_delta - tau_hat) <= half
    row = ScoreRow(
        cate_mse=float(np.mean((tau_hat - tau_true) ** 2)),
        coverage=float(100.0 * np.mean(inside)),
        r_mse=None if r_hat is None else float(np.mean((r_hat - r_true) ** 2)),
        g_mse=None if g_hat is None else float(np.mean((g_hat - g_true) ** 2)),
    )
    return row


def score(model: FittedModel, test: GroupedDataset, truth: GroundTruth, alpha: float = 0.1) -> ScoreRow:
    """Evaluate a fitted model on a test split with its ground truth.

    truth must already be restricted to the test split (truth_rows_for).
    Variance-function errors are only reported for components the model's
    variant actually boosts.
    """
    st = test.stacked()
    Xt_groups = test.x_tilde_matrix()
    Xt_rows = np.repeat(Xt_groups, st.sizes, axis=0)
    tau_hat = cate(model, st.X)
    var_delta = ite_variance(model, st.X, st.Z, Xt_rows)
    kwargs = {}
    boosted = VARIANT_COMPONENTS[model.config.variant]
    if "R" in boosted:
        kwargs["r_hat"] = eval_resid_var(model, st.X)
        kwargs["r_true"] = truth.resid_var
    if "G" in boosted:
        kwargs["g_hat"] = eval_gcov_rows(model, Xt_groups)[:, 0, 0]
        kwargs["g_true"] = truth.group_var
    return score_predictions(
        tau_hat=tau_hat,
        var_delta=var_delta,
        realized_delta=truth.y1 - truth.y0,
        tau_true=truth.tau,
        alpha=alpha,
        **kwargs,
    )


def _aggregate(attr: str) -> property:
    """(mean, sd) of ScoreRow field attr over a report's rows: sd with ddof 1,
    0.0 for a single row, and (None, None) when any row lacks the metric."""

    def get(report):
        vals = [getattr(r, attr) for r in report.rows]
        if any(v is None for v in vals):
            return None, None
        arr = np.asarray(vals, dtype=float)
        sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        return float(np.mean(arr)), sd

    return property(get)


@dataclass(frozen=True)
class ReplicationReport:
    """Per-replication scores plus their means and standard deviations."""

    scenario: str
    variant: str
    rows: tuple[ScoreRow, ...]

    cate_mse = _aggregate("cate_mse")
    coverage = _aggregate("coverage")
    r_mse = _aggregate("r_mse")
    g_mse = _aggregate("g_mse")


def replication_data(scenario: Scenario, n_obs: int, rep: int):
    """Replication rep's draw, (dataset, ground truth), from seed scenario.seed + rep."""
    return generate(scenario, n_obs, seed=scenario.seed + rep)


def run_replication(scenario: Scenario, n_obs: int, rep: int, config: FitConfig, alpha: float = 0.1):
    """One replication: generate, split 60/40 by pairs, fit config, score.

    The draw, the split and the fit all take seed scenario.seed + rep (the
    fit through model.config.seed), so a replication is reproducible in
    isolation. Returns (model, score row).
    """
    rep_seed = scenario.seed + rep
    ds, truth = replication_data(scenario, n_obs, rep)
    train, test = split_by_groups(ds, TRAIN_FRACTION, seed=rep_seed)
    model = fit(train, replace(config, seed=rep_seed))
    return model, score(model, test, truth_rows_for(test, truth), alpha=alpha)


def _worker_count(reps: int) -> int:
    env = os.environ.get("GBMIXED_THREADS")
    cpu = os.cpu_count() or 1
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"GBMIXED_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise ConfigError("GBMIXED_THREADS must be at least 1")
        cpu = min(cpu, cap)
    return max(1, min(reps, cpu))


def run_replications(
    scenario: Scenario,
    n_obs: int,
    reps: int,
    config: FitConfig | None = None,
    alpha: float = 0.1,
):
    """Independent replications, optionally on worker processes.

    The worker count is min(reps, cpu count) capped by GBMIXED_THREADS;
    results come back in replication order, so the report never depends on
    scheduling. config defaults to scenario.default_config(). Returns
    (ReplicationReport, per-rep models).
    """
    check_type("reps", reps)
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    check_alpha(alpha)
    config = config or scenario.default_config()
    args = (repeat(scenario), repeat(n_obs), range(reps), repeat(config), repeat(alpha))
    workers = _worker_count(reps)
    results = None
    if workers > 1:
        import concurrent.futures

        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(run_replication, *args))
        except OSError:
            pass  # no worker processes: run serially below
    if results is None:
        results = list(map(run_replication, *args))
    report = ReplicationReport(
        scenario=scenario.name, variant=config.variant, rows=tuple(row for _, row in results)
    )
    return report, [model for model, _ in results]


def report_csv_rows(report: ReplicationReport) -> list[list]:
    """Header and rows of the benchmark-table CSV, as raw cells for data.write_csv.

    One row per replication with blank (None) spread columns, then an aggregate
    row with means and standard deviations. None metrics print as empty cells.
    """
    out = [["row", "method", "cate_mse", "cate_mse_sd", "coverage", "coverage_sd", "r_mse", "g_mse"]]
    for i, r in enumerate(report.rows):
        out.append(
            [f"rep{i}", report.variant, r.cate_mse, None, r.coverage, None, r.r_mse, r.g_mse]
        )
    agg = [*report.cate_mse, *report.coverage, report.r_mse[0], report.g_mse[0]]
    out.append(["aggregate", report.variant, *agg])
    return out
