"""Joint likelihood boosting of mean, random-effect covariance, and residual variance.

Each iteration samples a fraction of groups and features, computes per-group
log-likelihood gradients at the current iterate, fits one base learner per
model component to the corresponding pseudo-responses, and adds the shrunken
learners to all three ensembles in parallel:

    mean            f(x):      row-level learner on dl/dmu
    covariance      L(x~):     one learner per lower-triangular entry of the
                               Cholesky factor of G, fitted at group level
    residual var    log r(x):  row-level learner on dl/dlog r

Each component is one Ensemble, and the fit loop, the config checks, the
evaluator and model_io loop over one table of them, COMPONENTS. One
evaluator, _sums, adds up a component's outputs over one feature-major copy
of its rows; eval_mean, eval_resid_var and eval_gcov_rows apply the links
(identity, exp, and L L' from the floored factors). Trees route NaN and ±inf;
one rule, _refuse_non_finite_reads, refuses one that a linear learner would
read, for fit, for _sums and for prediction's datasets, which name the group.
Whether the evaluation split and the sampling can work is decided once, by
fit, before any work; sample_iteration only draws.

A held-out fraction of groups tracks the evaluation log-likelihood per
iteration. With early stopping enabled, fitting stops once the best of the
last `lookback` iterations beats the best before them by less than
`tolerance`, and the returned ensembles are truncated at the iteration with
the best evaluation log-likelihood (earliest on ties); with it disabled
every iteration is kept, so repeated runs share a consistent ensemble size.

The training loop stacks the training groups once, boosting groups first, so
the evaluation groups are the tail of one stack. It keeps one running cache
per component over that stack (the mean and log residual variance per row,
the factor entries per group) and evaluates each new learner once per
iteration, on all training rows or group summaries. The sampled gradients
read the head of the stack and the evaluation log-likelihood its tail, so
the cost per iteration is the learner fits, one evaluation of each new
learner, O(n) bookkeeping and two calls of the stacked likelihood kernel,
which handles groups of any sizes at once.

Every learner's one training input is a learners.BinnedColumns: each
iteration restricts the fit's two instances, the rows and the group
summaries of the head, to its sampled rows (or groups) and features, once
per set, and passes the restriction to the learners of that set as it is.
A constant reads only its pseudo-responses, so a set that only constants
read (G under base and rboost) is not restricted. Trees bin nothing per
iteration: each set is binned once per fit, from its boosting head, when
the first tree that can split asks for it, and every later restriction
gathers its codes, so every tree of a fit splits at the cuts of the whole
head. A tree whose sampled rows are too few to split is the mean leaf
without touching the codes, so a group set that is always sampled below
tree_min_parent is never binned. Tree leaves and constant learners take
the one mean rule of learners.py.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .data import GroupedDataset, StackedData, split_by_groups
from .errors import ConfigError, DataError, NumericalError
from .errors import check_fields, check_index, check_rows, check_seed
from .learners import (
    BinnedColumns,
    LearnerSpec,
    LinearLearner,
    TreeLearner,
    _leaf_values,
    _split_thresholds,
    fit_learner,
)
from . import likelihood as lik

# the three boosted functions, in the order fit, evaluation and model files take them:
# the FitConfig fields of each one's learner spec and rate, and whether it is fitted
# on group summaries x~ (else on rows x)
Component = namedtuple("Component", "learner rate on_groups")
COMPONENTS = {
    "mean": Component("mean_learner", "lr_mean", False),
    "G": Component("gcov_learner", "lr_gcov", True),
    "R": Component("rvar_learner", "lr_rvar", False),
}
# the variance components each variant boosts; the others keep their constant start
VARIANT_COMPONENTS = {"base": (), "rboost": ("R",), "gboost": ("G",), "grboost": ("G", "R")}
FACTOR_DIAG_FLOOR = 1e-6
INIT_VAR_FLOOR_FRACTION = 0.01


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for one boosting fit."""

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

    def __post_init__(self):
        check_fields(self)
        if self.n_iterations < 0:
            raise ConfigError("n_iterations must be nonnegative")
        for c in COMPONENTS.values():
            if getattr(self, c.rate) < 0:
                raise ConfigError(f"{c.rate} must be nonnegative")
        if not (0.0 < self.group_fraction <= 1.0):
            raise ConfigError("group_fraction must be in (0, 1]")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise ConfigError("feature_fraction must be in (0, 1]")
        if self.lookback < 1:
            raise ConfigError("lookback must be at least 1")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ConfigError("eval_fraction must be in (0, 1)")
        if len(set(self.force_include)) != len(self.force_include):
            raise ConfigError("duplicate force_include indices")
        for f in self.force_include:
            if f < 0:
                raise ConfigError("force_include indices must be nonnegative")
        check_seed(self.seed)

    @property
    def variant(self) -> str:
        """The VARIANT_COMPONENTS name of the components whose learners are not constant."""
        boosted = tuple(name for name, c in COMPONENTS.items()
                        if name != "mean" and getattr(self, c.learner).kind != "constant")
        return next(name for name, comps in VARIANT_COMPONENTS.items() if comps == boosted)


def config_for_variant(variant: str, row_learner: LearnerSpec | None = None, **overrides) -> FitConfig:
    """FitConfig with learner kinds matching the variant.

    The mean learner and any non-constant variance learners take row_learner
    (default: depth-3 tree; constant only for base); components a variant
    holds constant get constant learners. Extra keyword arguments override
    FitConfig fields.
    """
    if variant not in VARIANT_COMPONENTS:
        raise ConfigError(f"unknown variant {variant!r}")
    base = row_learner if row_learner is not None else LearnerSpec(kind="tree")
    const = replace(base, kind="constant")
    boosted = VARIANT_COMPONENTS[variant]
    if boosted and base.kind == "constant":
        raise ConfigError(f"variant {variant!r} needs a non-constant row learner")
    cfg = {c.learner: base if name in ("mean", *boosted) else const for name, c in COMPONENTS.items()}
    cfg.update(overrides)
    return FitConfig(**cfg)


@dataclass(frozen=True)
class Ensemble:
    """One component: per output, init plus lr times the sum of its list of learners."""

    init: np.ndarray
    learners: tuple[list, ...]


@dataclass
class FittedModel:
    """Boosted ensembles for all three model components.

    ensembles maps each COMPONENTS name to its Ensemble. The mean and the log
    residual variance have one output. G has T = q(q+1)/2, the lower-triangular
    entries of its factor L in numpy tril_indices order; G(x~) = L L' with the
    diagonal of L floored at FACTOR_DIAG_FLOOR at evaluation time.
    """

    config: FitConfig
    feature_names: tuple[str, ...]
    q: int
    treatment_index: int | None
    categorical_features: tuple[int, ...]
    ensembles: dict[str, Ensemble]
    history: list

    @property
    def best_iteration(self) -> int:
        """The iteration fit cut every ensemble at, so the mean's learner count."""
        return len(self.ensembles["mean"].learners[0])

    @property
    def n_iterations_run(self) -> int:
        """history holds the eval log-likelihood before the first iteration and after each."""
        return len(self.history) - 1


def _ensemble_grid_sum(learners, cols, grid, lr, out):
    """out[k] += lr * h(rows with column f set to values[k]) for each learner in turn;
    cols is the rows' feature-major copy, which _sums shares across outputs.

    Each learner is evaluated once per run of values that cannot change its
    output, at the run's first value: a tree once per interval between its
    sorted thresholds on f that the values hit, searchsorted side="right"; a
    linear learner that reads f (f is in its features, whatever the
    coefficient: inf * 0 is NaN) once per value; a constant, or a linear
    learner that never reads f, once. A tree is walked by _leaf_values with
    fixed = (f, value): each split on f is settled by the scalar test value <
    threshold and only its side is walked, so no tree reads row f of cols; a
    linear learner sets row f before it reads it. Every value of an interval
    sends each row down the same path (x < t holds for all of them or for
    none; NaN and +inf go right at every split), so for trees and constants
    row k of out takes the very terms and order of the sum at the rows with
    column f set to values[k], bit for bit. A learner with one run adds its
    one row to every row of out by broadcast.
    """
    f, values = grid
    each = np.arange(len(values))
    for h in learners:
        tree = isinstance(h, TreeLearner)
        if tree:
            run = np.searchsorted(_split_thresholds(h.root, f), values, side="right")
        else:
            run = each if f in h.features else np.zeros_like(each)
        _, first, interval = np.unique(run, return_index=True, return_inverse=True)
        per = np.empty((first.size, cols.shape[1]))
        for i, k in enumerate(first):
            if tree:
                per[i] = _leaf_values(h.root, cols, (f, values[k]))
            else:
                cols[f] = values[k]
                per[i] = h.predict(cols.T, cols)
        out += lr * per[0] if first.size == 1 else (lr * per)[interval]
    return out


def _linear_reads(ensemble: Ensemble, upto=None) -> list[int]:
    """The features, ascending, that the first upto linear learners per output read."""
    return sorted({f for ls in ensemble.learners for h in ls[:upto]
                   if isinstance(h, LinearLearner) for f in h.features})


def _refuse_non_finite_reads(reads, X, Xt, feature_names, group_ids=None, sizes=None) -> None:
    """Trees route NaN and ±inf, but a linear learner would return NaN. reads maps
    components to the features their linear learners read, in the rows X (mean, R)
    or the group summaries Xt (G). The first non-finite one in row order is a
    DataError naming the feature, the component, and the group when group_ids is
    given (group i holds row i of Xt and the next sizes[i] rows of X), else the row.
    """
    for name, feats in reads.items():
        on_groups = COMPONENTS[name].on_groups
        M = (Xt if on_groups else X)[:, feats]
        if np.count_nonzero(np.isfinite(M)) == M.size:
            continue
        row, j = np.argwhere(~np.isfinite(M))[0]
        if group_ids is None:
            where = f"row {row}"
        else:
            i = row if on_groups else np.searchsorted(np.cumsum(sizes), row, side="right")
            where = f"group {group_ids[i]!r}"
        raise DataError(f"{where}: feature {feature_names[feats[j]]!r} is non-finite, "
                        f"which a linear {name} learner cannot read")


def _sums(model: FittedModel, component: str, X, upto, grid) -> np.ndarray:
    """One component's (n, outputs) sums at the rows of X, before its link, over the
    first upto learners per output; grid puts a leading axis over its values.

    upto must pass errors.check_index and lie in 0..the learner count, else a
    ConfigError. A non-finite entry of X that a summed linear learner reads is a
    DataError naming its row; the column a grid overwrites is not read. One
    feature-major copy of X serves every output and grid value.
    """
    c, ens = COMPONENTS[component], model.ensembles[component]
    X = check_rows(X, len(model.feature_names), "Xt" if c.on_groups else "X")
    if upto is not None:
        n = len(ens.learners[0])
        if not 0 <= check_index("upto", upto) <= n:
            raise ConfigError(f"upto {upto} outside 0..{n}")
    read = [f for f in _linear_reads(ens, upto) if grid is None or f != grid[0]]
    _refuse_non_finite_reads({component: read}, X, X, model.feature_names)
    lr = getattr(model.config, c.rate)
    # a grid always copies, even where X.T is contiguous: a linear learner writes row f
    cols = np.ascontiguousarray(X.T) if grid is None else np.array(X.T, order="C")
    out = np.tile(ens.init, (X.shape[0], 1) if grid is None else (len(grid[1]), X.shape[0], 1))
    for t, ls in enumerate(ens.learners):
        if grid is not None:
            _ensemble_grid_sum(ls[:upto], cols, grid, lr, out[..., t])
            continue
        for h in ls[:upto]:
            out[:, t] += lr * h.predict(X, cols)
    return out


def eval_mean(model: FittedModel, X: np.ndarray, upto=None, *, grid=None) -> np.ndarray:
    """Mean f(x) at the rows of X; with grid = (feature, values), an array of
    (len(values), n) whose row k holds it with column feature set to values[k]."""
    return _sums(model, "mean", X, upto, grid)[..., 0]


@cache
def _tril_indices(q: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(q), made once per q; the arrays are read-only."""
    rows, cols = np.tril_indices(q)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def factors_from_entries(entries: np.ndarray, q: int) -> np.ndarray:
    """(k, T) flattened entries to (k, q, q) lower factors with floored diagonal."""
    k = entries.shape[0]
    rows, cols = _tril_indices(q)
    L = np.zeros((k, q, q))
    L[:, rows, cols] = entries
    d = np.arange(q)
    L[:, d, d] = np.maximum(L[:, d, d], FACTOR_DIAG_FLOOR)
    return L


def eval_gcov_rows(model: FittedModel, Xt: np.ndarray, upto=None, *, grid=None) -> np.ndarray:
    """(k, q, q) covariances G = L L' at group covariates, from the floored factors;
    grid puts a leading axis over its values, as in eval_mean."""
    entries = _sums(model, "G", Xt, upto, grid)
    L = factors_from_entries(entries.reshape(-1, entries.shape[-1]), model.q)
    return (L @ np.swapaxes(L, 1, 2)).reshape(*entries.shape[:-1], model.q, model.q)


def eval_resid_var(model: FittedModel, X: np.ndarray, upto=None, *, grid=None) -> np.ndarray:
    """Residual variances r(x), the exponential of the log-scale ensemble; grid puts
    a leading axis over its values, as in eval_mean."""
    return np.exp(_sums(model, "R", X, upto, grid)[..., 0])


def initialize(train: GroupedDataset, q: int) -> tuple[float, float, float]:
    """Starting values: grand mean, factor diagonal, log residual variance.

    The between-group variance of group means seeds the factor diagonal and
    the pooled within-group variance seeds the residual variance; both are
    floored at 1% of the total response variance so neither component starts
    at zero. Raises DataError when the response values are all equal, and
    when they are not but their variance underflows to zero or overflows.
    """
    ys = [g.y for g in train.groups]
    all_y = np.concatenate(ys)
    if np.all(all_y == all_y[0]):
        raise DataError("response is constant; variance components are unidentifiable")
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite variance is checked below
        var_y = float(np.var(all_y, ddof=1))
    if not np.isfinite(var_y):
        raise DataError("response variance overflows; rescale the response")
    if var_y == 0.0:
        raise DataError(
            "response is not constant, but its variance underflows to zero; rescale the response"
        )
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
    into the feature set. It only draws: fit checks once, before its first
    iteration, that both counts are at least one.
    """
    n_g = int(np.floor(config.group_fraction * n_groups))
    n_f = int(np.floor(config.feature_fraction * n_features))
    g_idx = np.sort(rng.choice(n_groups, size=n_g, replace=False))
    f_idx = rng.choice(n_features, size=n_f, replace=False)
    feats = np.array(sorted(set(f_idx.tolist()) | set(config.force_include)), dtype=np.int64)
    return g_idx, feats


def check_convergence(history, lookback: int, tolerance: float) -> bool:
    """Look-back stop rule on the evaluation log-likelihood series: true when the best of
    the last lookback values beats the best before them by less than tolerance, so a fit
    stops lookback iterations after its optimum."""
    if len(history) <= lookback:
        return False
    return max(history[-lookback:]) < max(history[:-lookback]) + tolerance


def _set_loglik(F, y, mu, Z, logr, sizes, q: int, m: int) -> float:
    """Total log-likelihood of stacked groups after iteration m, from their factor
    entries F and their rows' responses, means, designs and log variances.

    A non-finite total is a NumericalError; numpy's overflow and invalid-value
    warnings on the way to it are silenced, since the total is checked here.
    """
    with np.errstate(all="ignore"):
        ll, _, _, _ = lik.batched_quantities(
            factors_from_entries(F, q), y - mu, Z, np.exp(logr), sizes, want_gradients=False
        )
    total = float(np.sum(ll))
    if not np.isfinite(total):
        raise NumericalError(f"non-finite evaluation log-likelihood at iteration {m}")
    return total


def fit(train: GroupedDataset, config: FitConfig) -> FittedModel:
    """Run the boosting loop and return the fitted model.

    The training groups are split once into a boosting part and an
    evaluation part by config.eval_fraction and config.seed; all sampling
    uses a single generator seeded with config.seed, so identical inputs
    give identical models. When early stopping is enabled the returned
    ensembles are truncated at the evaluation optimum; otherwise all
    iterations are kept. An evaluation split with an empty side, or a group or
    feature sample of none, is a ConfigError naming its setting before any work.
    A non-finite feature that a linear learner would read is a DataError naming
    the first such group of the training stack (boosting groups, then evaluation).
    """
    if train.n_groups < 2:
        raise DataError("need at least two groups to fit")
    for g in train.groups:
        if not np.all(np.isfinite(g.y)):
            raise DataError(f"group {g.group_id!r}: training responses must all be finite")
    q = train.q
    p = train.n_features
    for f in config.force_include:
        if f >= p:
            raise ConfigError(f"force_include index {f} out of range for {p} features")
    # feasibility, once: split_by_groups keeps floor((1 - eval_fraction) * C) groups
    # for boosting, and each iteration samples from those alone
    C, ef = train.n_groups, config.eval_fraction
    Cb = int(np.floor((1.0 - ef) * C))
    if Cb == 0:
        raise ConfigError(f"eval_fraction {ef} leaves none of the {C} groups for boosting")
    if Cb == C:
        raise ConfigError(f"eval_fraction {ef} holds out none of the {C} groups for evaluation")
    if np.floor(config.group_fraction * Cb) < 1:
        raise ConfigError(f"group_fraction {config.group_fraction} samples zero of {Cb} groups: "
                          f"eval_fraction {ef} held out {C - Cb} of the {C} groups for evaluation")
    if np.floor(config.feature_fraction * p) < 1:
        raise ConfigError(f"feature_fraction {config.feature_fraction} samples zero of {p} features")

    boost_ds, eval_ds = split_by_groups(train, 1.0 - ef, config.seed)
    f0, diag0, logr0 = initialize(boost_ds, q)
    rows_t, cols_t = _tril_indices(q)
    T = rows_t.shape[0]
    factor0 = np.zeros(T)
    factor0[rows_t == cols_t] = diag0

    # one stack of all training groups, the evaluation groups as its tail from
    # group Cb and row nb, with one running cache per component over it: (rows, 1)
    # for the mean and log r, (groups, T) for G's factor entries
    groups = boost_ds.groups + eval_ds.groups
    st = StackedData.from_groups(groups)
    Xt = np.stack([g.x_tilde for g in groups])
    reads = {n: range(p) for n, c in COMPONENTS.items() if getattr(config, c.learner).kind == "linear"}
    _refuse_non_finite_reads(reads, st.X, Xt, train.feature_names, [g.group_id for g in groups], st.sizes)
    nb = boost_ds.n_obs
    # per group set (on_groups): its matrix, feature-major copy, and the bins of its
    # head, which every iteration restricts, so each set is binned at most once
    sets = {
        False: (st.X, np.ascontiguousarray(st.X.T), BinnedColumns(st.X[:nb], range(p))),
        True: (Xt, np.ascontiguousarray(Xt.T), BinnedColumns(Xt[:Cb], range(p))),
    }
    inits = {"mean": np.array([f0]), "G": factor0, "R": np.array([logr0])}
    caches = {name: np.tile(inits[name], (len(sets[c.on_groups][0]), 1))
              for name, c in COMPONENTS.items()}
    mu, F, logr = caches["mean"][:, 0], caches["G"], caches["R"][:, 0]
    # views of the evaluation tail, which the in-place cache updates keep current
    tail = (F[Cb:], st.y[nb:], mu[nb:], st.Z[nb:], logr[nb:], st.sizes[Cb:])

    rng = np.random.default_rng(config.seed)
    learners = {name: tuple([] for _ in init) for name, init in inits.items()}
    history = [_set_loglik(*tail, q, 0)]

    for m in range(1, config.n_iterations + 1):
        g_idx, feats = sample_iteration(rng, Cb, p, config)

        # gradients at the current iterate for the sampled groups' rows
        sizes = st.sizes[g_idx]
        offsets = np.cumsum(sizes) - sizes
        row_idx = np.arange(int(sizes.sum())) + np.repeat(st.starts[g_idx] - offsets, sizes)
        with np.errstate(all="ignore"):  # non-finite gradients are checked below
            _, pseudo_mu, d_F, pseudo_logr = lik.batched_quantities(
                factors_from_entries(F[g_idx], q),
                st.y[row_idx] - mu[row_idx],
                st.Z[row_idx],
                np.exp(logr[row_idx]),
                sizes,
            )
        if not all(np.all(np.isfinite(a)) for a in (pseudo_mu, d_F, pseudo_logr)):
            raise NumericalError(f"non-finite gradient at iteration {m}")
        grads = {"mean": pseudo_mu[:, None], "G": d_F[:, rows_t, cols_t], "R": pseudo_logr[:, None]}
        picked = {False: row_idx, True: g_idx}
        # one restriction per group set and iteration, shared by its components; a
        # constant reads only its pseudo-responses, so a set only constants read has none
        restricted = {}
        for name, c in COMPONENTS.items():
            spec = getattr(config, c.learner)
            if spec.kind != "constant" and c.on_groups not in restricted:
                restricted[c.on_groups] = sets[c.on_groups][2].restrict(picked[c.on_groups], feats)
            for ls, g in zip(learners[name], grads[name].T):
                ls.append(fit_learner(restricted.get(c.on_groups), g, spec))

        # parallel shrunken updates of all cached component values, in place
        for name, c in COMPONENTS.items():
            M, M_cols, _ = sets[c.on_groups]
            for t, ls in enumerate(learners[name]):
                caches[name][:, t] += getattr(config, c.rate) * ls[-1].predict(M, M_cols)

        history.append(_set_loglik(*tail, q, m))
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
        ensembles={name: Ensemble(init, tuple(ls[:best] for ls in learners[name]))
                   for name, init in inits.items()},
        history=history,
    )
