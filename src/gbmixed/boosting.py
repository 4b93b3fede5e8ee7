"""Joint likelihood boosting of mean, random-effect covariance, and residual variance.

Each iteration samples a fraction of groups and features, computes per-group
log-likelihood gradients at the current iterate, fits one base learner per
model component to the corresponding pseudo-responses, and adds the shrunken
learners to all three ensembles in parallel:

    mean            f(x):      row-level learner on dl/dmu
    covariance      L(x~):     one learner per lower-triangular entry of the
                               Cholesky factor of G, fitted at group level
    residual var    log r(x):  row-level learner on dl/dlog r

A held-out fraction of groups tracks the evaluation log-likelihood per
iteration. With early stopping enabled, fitting stops when the look-back
criterion triggers and the returned ensembles are truncated at the iteration
with the best evaluation log-likelihood (earliest on ties); with it disabled
every iteration is kept, so repeated runs share a consistent ensemble size.

The training loop keeps running caches of the three component values on both
group sets and only evaluates each new learner once per iteration, so the
cost per iteration is one learner fit plus O(n) bookkeeping plus one call of
the stacked likelihood kernel, which handles groups of any sizes at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .data import GroupedDataset, split_by_groups, summarize_groups
from .errors import ConfigError, DataError, NumericalError
from .learners import FittedLearner, LearnerSpec, fit_learner
from . import likelihood as lik

VARIANTS = ("base", "rboost", "gboost", "grboost")
FACTOR_DIAG_FLOOR = 1e-6
INIT_VAR_FLOOR_FRACTION = 0.01


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for one boosting fit."""

    variant: str = "grboost"
    n_iterations: int = 500
    lr_mean: float = 0.03
    lr_gcov: float = 0.03
    lr_rvar: float = 0.03
    group_fraction: float = 0.2
    feature_fraction: float = 0.7
    mean_learner: LearnerSpec = LearnerSpec(kind="tree")
    gcov_learner: LearnerSpec = LearnerSpec(kind="tree")
    rvar_learner: LearnerSpec = LearnerSpec(kind="tree")
    lookback: int = 25
    tolerance: float = 1e-3
    early_stopping: bool = True
    eval_fraction: float = 0.25
    seed: int = 0
    force_include: tuple[int, ...] = ()
    verbose: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.n_iterations < 0:
            raise ConfigError("n_iterations must be nonnegative")
        for name in ("lr_mean", "lr_gcov", "lr_rvar"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not (0.0 < self.group_fraction <= 1.0):
            raise ConfigError("group_fraction must be in (0, 1]")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise ConfigError("feature_fraction must be in (0, 1]")
        if self.lookback < 1:
            raise ConfigError("lookback must be at least 1")
        if not np.isfinite(self.tolerance):
            raise ConfigError("tolerance must be finite")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ConfigError("eval_fraction must be in (0, 1)")
        gcov_varies = self.gcov_learner.kind != "constant"
        rvar_varies = self.rvar_learner.kind != "constant"
        want_g = self.variant in ("gboost", "grboost")
        want_r = self.variant in ("rboost", "grboost")
        if gcov_varies != want_g:
            raise ConfigError(
                f"variant {self.variant!r} requires a "
                f"{'non-constant' if want_g else 'constant'} gcov_learner"
            )
        if rvar_varies != want_r:
            raise ConfigError(
                f"variant {self.variant!r} requires a "
                f"{'non-constant' if want_r else 'constant'} rvar_learner"
            )
        if len(set(self.force_include)) != len(self.force_include):
            raise ConfigError("duplicate force_include indices")
        for f in self.force_include:
            if f < 0:
                raise ConfigError("force_include indices must be nonnegative")


def config_for_variant(variant: str, row_learner: LearnerSpec | None = None, **overrides) -> FitConfig:
    """FitConfig with learner kinds matching the variant.

    The mean learner and any non-constant variance learners take row_learner
    (default: depth-3 tree); components a variant holds constant get constant
    learners. Extra keyword arguments override FitConfig fields.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    base = row_learner if row_learner is not None else LearnerSpec(kind="tree")
    const = replace(base, kind="constant")
    cfg = dict(
        variant=variant,
        mean_learner=base,
        gcov_learner=base if variant in ("gboost", "grboost") else const,
        rvar_learner=base if variant in ("rboost", "grboost") else const,
    )
    cfg.update(overrides)
    return FitConfig(**cfg)


@dataclass
class FittedModel:
    """Boosted ensembles for all three model components.

    gcov_init and gcov_learners hold the lower-triangular entries of the
    factor L in numpy tril_indices order; G(x~) = L L' with the diagonal of
    L floored at FACTOR_DIAG_FLOOR at evaluation time. The residual variance
    ensemble lives on the log scale.
    """

    config: FitConfig
    feature_names: tuple[str, ...]
    q: int
    treatment_index: int | None
    categorical_features: tuple[int, ...]
    mean_init: float
    mean_learners: list
    gcov_init: np.ndarray
    gcov_learners: tuple
    logrvar_init: float
    rvar_learners: list
    history: list
    best_iteration: int
    n_iterations_run: int

    @property
    def n_factor_entries(self) -> int:
        return self.q * (self.q + 1) // 2


def tril_positions(q: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(q)


def _ensemble_sum(learners, X, lr, out, upto=None):
    sel = learners if upto is None else learners[:upto]
    for h in sel:
        out += lr * h.predict(X)
    return out


def eval_mean(model: FittedModel, X: np.ndarray, upto=None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.full(X.shape[0], model.mean_init)
    return _ensemble_sum(model.mean_learners, X, model.config.lr_mean, out, upto)


def eval_factor_entries(model: FittedModel, Xt: np.ndarray, upto=None) -> np.ndarray:
    """Raw factor entries at group covariates, (k, T), no diagonal floor."""
    Xt = np.asarray(Xt, dtype=float)
    k = Xt.shape[0]
    out = np.tile(model.gcov_init, (k, 1))
    for t in range(model.n_factor_entries):
        _ensemble_sum(model.gcov_learners[t], Xt, model.config.lr_gcov, out[:, t], upto)
    return out


def factors_from_entries(entries: np.ndarray, q: int) -> np.ndarray:
    """(k, T) flattened entries to (k, q, q) lower factors with floored diagonal."""
    k = entries.shape[0]
    rows, cols = tril_positions(q)
    L = np.zeros((k, q, q))
    L[:, rows, cols] = entries
    d = np.arange(q)
    L[:, d, d] = np.maximum(L[:, d, d], FACTOR_DIAG_FLOOR)
    return L


def eval_factor_rows(model: FittedModel, Xt: np.ndarray, upto=None) -> np.ndarray:
    return factors_from_entries(eval_factor_entries(model, Xt, upto), model.q)


def eval_gcov_rows(model: FittedModel, Xt: np.ndarray, upto=None) -> np.ndarray:
    L = eval_factor_rows(model, Xt, upto)
    return L @ np.swapaxes(L, 1, 2)


def eval_log_resid_var(model: FittedModel, X: np.ndarray, upto=None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.full(X.shape[0], model.logrvar_init)
    return _ensemble_sum(model.rvar_learners, X, model.config.lr_rvar, out, upto)


def eval_resid_var(model: FittedModel, X: np.ndarray, upto=None) -> np.ndarray:
    return np.exp(eval_log_resid_var(model, X, upto))


def initialize(train: GroupedDataset, q: int) -> tuple[float, float, float]:
    """Starting values: grand mean, factor diagonal, log residual variance.

    The between-group variance of group means seeds the factor diagonal and
    the pooled within-group variance seeds the residual variance; both are
    floored at 1% of the total response variance so neither component starts
    at zero. Raises DataError when the response is constant.
    """
    ys = [g.y for g in train.groups]
    all_y = np.concatenate(ys)
    var_y = float(np.var(all_y, ddof=1)) if all_y.size > 1 else 0.0
    if var_y <= 0.0:
        raise DataError("response is constant; variance components are unidentifiable")
    means = np.array([y.mean() for y in ys])
    C = len(ys)
    n = all_y.size
    v_between = float(np.var(means, ddof=1)) if C > 1 else 0.0
    ss_within = float(sum(np.sum((y - y.mean()) ** 2) for y in ys))
    v_within = ss_within / (n - C) if n > C else 0.0
    floor = INIT_VAR_FLOOR_FRACTION * var_y
    f0 = float(all_y.mean())
    diag0 = float(np.sqrt(max(v_between, floor)))
    logr0 = float(np.log(max(v_within, floor)))
    return f0, diag0, logr0


def sample_iteration(rng: np.random.Generator, n_groups: int, n_features: int, config: FitConfig):
    """Sampled group and feature index sets for one iteration, both ascending.

    Draws floor(group_fraction * n_groups) groups and floor(feature_fraction
    * n_features) features without replacement, then unions force_include
    into the feature set.
    """
    n_g = int(np.floor(config.group_fraction * n_groups))
    n_f = int(np.floor(config.feature_fraction * n_features))
    if n_g < 1:
        raise ConfigError(
            f"group_fraction {config.group_fraction} samples zero of {n_groups} groups"
        )
    if n_f < 1:
        raise ConfigError(
            f"feature_fraction {config.feature_fraction} samples zero of {n_features} features"
        )
    g_idx = np.sort(rng.choice(n_groups, size=n_g, replace=False))
    f_idx = rng.choice(n_features, size=n_f, replace=False)
    feats = np.array(sorted(set(f_idx.tolist()) | set(config.force_include)), dtype=np.int64)
    return g_idx, feats


def check_convergence(history, lookback: int, tolerance: float) -> bool:
    """Look-back stop rule on the evaluation log-likelihood series."""
    if len(history) <= lookback:
        return False
    return abs(history[-1] - history[-1 - lookback]) < tolerance


class _GroupSet:
    """Stacked arrays plus component caches for one set of groups."""

    def __init__(self, ds: GroupedDataset):
        st = ds.stacked()
        self.y = st.y
        self.X = st.X
        self.Z = st.Z
        self.starts = st.starts
        self.sizes = st.sizes
        self.Xt = ds.x_tilde_matrix()
        self.n = self.y.shape[0]
        self.C = ds.n_groups

    def init_caches(self, f0: float, factor0: np.ndarray, logr0: float):
        self.mu = np.full(self.n, f0)
        self.factor_entries = np.tile(factor0, (self.C, 1))
        self.logr = np.full(self.n, logr0)


def _set_loglik(gs: _GroupSet, q: int) -> float:
    """Total log-likelihood of a group set from its caches."""
    ll, _, _, _ = lik.batched_quantities(
        factors_from_entries(gs.factor_entries, q),
        gs.y - gs.mu,
        gs.Z,
        np.exp(gs.logr),
        gs.sizes,
        want_gradients=False,
    )
    return float(np.sum(ll))


def fit(train: GroupedDataset, config: FitConfig) -> FittedModel:
    """Run the boosting loop and return the fitted model.

    The training groups are split once into a boosting part and an
    evaluation part by config.eval_fraction and config.seed; all sampling
    uses a single generator seeded with config.seed, so identical inputs
    give identical models. When early stopping is enabled the returned
    ensembles are truncated at the evaluation optimum; otherwise all
    iterations are kept.
    """
    if train.n_groups < 2:
        raise DataError("need at least two groups to fit")
    for g in train.groups:
        if not np.all(np.isfinite(g.y)):
            raise DataError(f"group {g.group_id!r}: training responses must all be finite")
    if not train.has_summaries():
        train = summarize_groups(train)
    q = train.q
    p = train.n_features
    for f in config.force_include:
        if f >= p:
            raise ConfigError(f"force_include index {f} out of range for {p} features")

    boost_ds, eval_ds = split_by_groups(train, 1.0 - config.eval_fraction, config.seed)
    f0, diag0, logr0 = initialize(boost_ds, q)
    rows_t, cols_t = tril_positions(q)
    T = rows_t.shape[0]
    factor0 = np.zeros(T)
    factor0[rows_t == cols_t] = diag0

    gb = _GroupSet(boost_ds)
    ge = _GroupSet(eval_ds)
    gb.init_caches(f0, factor0, logr0)
    ge.init_caches(f0, factor0, logr0)

    rng = np.random.default_rng(config.seed)
    # verify the sampling fractions are feasible before looping
    sample_iteration(np.random.default_rng(config.seed), gb.C, p, config)

    mean_learners: list[FittedLearner] = []
    gcov_learners: tuple[list, ...] = tuple([] for _ in range(T))
    rvar_learners: list[FittedLearner] = []
    history = [_set_loglik(ge, q)]

    for m in range(1, config.n_iterations + 1):
        g_idx, feats = sample_iteration(rng, gb.C, p, config)

        # gradients at the current iterate for the sampled groups' rows
        sizes = gb.sizes[g_idx]
        offsets = np.cumsum(sizes) - sizes
        row_idx = np.arange(int(sizes.sum())) + np.repeat(gb.starts[g_idx] - offsets, sizes)
        _, pseudo_mu, d_F, pseudo_logr = lik.batched_quantities(
            factors_from_entries(gb.factor_entries[g_idx], q),
            gb.y[row_idx] - gb.mu[row_idx],
            gb.Z[row_idx],
            np.exp(gb.logr[row_idx]),
            sizes,
        )
        if not all(np.all(np.isfinite(a)) for a in (pseudo_mu, d_F, pseudo_logr)):
            raise NumericalError(f"non-finite gradient at iteration {m}")
        grad_factor = d_F[:, rows_t, cols_t]
        X_rows = gb.X[row_idx]
        Xt_rows = gb.Xt[g_idx]

        h_mu = fit_learner(X_rows, pseudo_mu, feats, config.mean_learner)
        h_gcov = [
            fit_learner(Xt_rows, grad_factor[:, t], feats, config.gcov_learner)
            for t in range(T)
        ]
        h_rvar = fit_learner(X_rows, pseudo_logr, feats, config.rvar_learner)

        mean_learners.append(h_mu)
        for t in range(T):
            gcov_learners[t].append(h_gcov[t])
        rvar_learners.append(h_rvar)

        # parallel shrunken updates of all cached component values
        for gs in (gb, ge):
            gs.mu += config.lr_mean * h_mu.predict(gs.X)
            for t in range(T):
                gs.factor_entries[:, t] += config.lr_gcov * h_gcov[t].predict(gs.Xt)
            gs.logr += config.lr_rvar * h_rvar.predict(gs.X)

        ll_eval = _set_loglik(ge, q)
        if not np.isfinite(ll_eval):
            raise NumericalError(f"non-finite evaluation log-likelihood at iteration {m}")
        history.append(ll_eval)
        if config.verbose:
            print(
                f"iter={m} eval_loglik={ll_eval:.6f} "
                f"mean_step={config.lr_mean * float(np.linalg.norm(h_mu.predict(X_rows))):.4g} "
                f"gcov_step={config.lr_gcov * float(np.linalg.norm(grad_factor)):.4g} "
                f"rvar_step={config.lr_rvar * float(np.linalg.norm(h_rvar.predict(X_rows))):.4g}",
                file=sys.stderr,
            )
        if config.early_stopping and check_convergence(history, config.lookback, config.tolerance):
            break

    # With early stopping the deployed model is cut back to the evaluation
    # optimum. Without it the run keeps every iteration so replications share
    # a consistent ensemble size; history still records the full curve.
    if config.early_stopping:
        best = int(np.argmax(history))
    else:
        best = len(history) - 1
    return FittedModel(
        config=config,
        feature_names=train.feature_names,
        q=q,
        treatment_index=train.treatment_index,
        categorical_features=train.categorical_features,
        mean_init=f0,
        mean_learners=mean_learners[:best],
        gcov_learners=tuple(ls[:best] for ls in gcov_learners),
        gcov_init=factor0,
        logrvar_init=logr0,
        rvar_learners=rvar_learners[:best],
        history=history,
        best_iteration=best,
        n_iterations_run=len(history) - 1,
    )
