"""Prediction, random-effect recovery, and treatment-effect inference.

The fitted model gives marginal means f(x), group covariances G(x~), and
residual variances r(x). For a group with observed responses, the best
linear unbiased predictor of its random effects is

    u_hat = G Z' Sigma^{-1} (y - f(X)),   Sigma = Z G Z' + diag(r(X)),

and conditional means add z' u_hat on top of the marginal mean. Prediction
intervals use the marginal response variance z' G z + r(x); for groups the
model never saw, u_hat is zero and the interval centers on the marginal
mean. A reduced-variance switch drops the z' G z term for unknown groups,
matching interval definitions that only count residual noise for new
clusters.

Treatment effects compare the mean ensemble at the arms w = 1 and w = 0,
stacked into one matrix. The individual effect Y(1) - Y(0) shares its
group's random effects between the arms, so its variance is the contrast's,

    Var = r(x, 1) + r(x, 0) + (z1 - z0)' G (z1 - z0),

with z1 and z0 equal to z with any treatment random-slope entry set to 1 and
0. The G term is zero without a treatment slope and G_kk(x~) with one at
column k of Z; both are written directly, so nothing cancels by rounding.

blup is the one BLUP function: it takes a GroupedDataset and returns one row
per group. predict_dataset calls it once, on the served dataset when that is
its own history and otherwise on the histories of the served groups that
have one, and not at all when no served group has a history.

Every ensemble runs once per call over stacked rows, never once per group:
predict_dataset evaluates f and r on all served rows and G on all served
summaries, blup evaluates them once over the finite-response rows of all its
groups (or reuses the served evaluation when the dataset is its own
history), and the two treatment arms of cate and ite_variance share one
call. Each ensemble call makes one feature-major copy of its rows that all
of its trees read (see learners). Tree predictions and ensemble sums are row
by row, so tree ensembles give the same values however rows are batched (a
linear learner's matrix product may round differently). The BLUP solve
alone stays per group: it factors each group's dense Sigma_i
(marginal_covariance, chol_with_jitter), which costs milliseconds for
clusters of a few hundred rows, against the ensemble evaluations that
dominate prediction.

G reads the summaries x~ that every GroupedDataset carries under its own
categorical features, so predict_dataset and blup raise DataError for a
dataset whose categorical features, like its feature names or q, differ from
the model's.

Feature rows are checked once, by one rule (errors.check_rows): a 2-D matrix
of numbers with one column per model feature, else a DataError. The
evaluators of boosting apply it to every matrix they are served, _arms to X
before it stacks the two arms (so cate, ate and ite_variance check X first),
and ite_variance to x_tilde_rows. The learners check nothing and rely on it.
A non-finite feature that a linear learner reads is refused by one rule
(boosting._refuse_non_finite_reads): predict_dataset and blup apply it to
the rows and summaries of their datasets first, so the error names the
group; the evaluators name the row of the matrix they were served.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from .boosting import (
    FittedModel,
    _linear_reads,
    _refuse_non_finite_reads,
    eval_gcov_rows,
    eval_mean,
    eval_resid_var,
)
from .data import GroupedDataset
from .errors import ConfigError, DataError, check_index, check_rows, check_type, numeric_array
from .likelihood import chol_with_jitter, marginal_covariance
from scipy.linalg import cho_solve


def blup(model: FittedModel, ds: GroupedDataset, components=None) -> np.ndarray:
    """(n_groups, q) random-effect predictors of a dataset's groups; zero rows where no response is finite.

    A group's BLUP uses only its finite-response rows and its own summary.
    components, when given, are f and r on all rows of ds stacked and G at
    each group's summary, already evaluated by the caller; otherwise the
    ensembles run once over the finite rows of all groups and once over
    their summaries. The solve against the dense Sigma_i stays per group.
    ds must match the model as predict_dataset's datasets do (_check_datasets).
    A non-finite feature of a finite-response row or a summary that a linear
    learner reads is a DataError naming the group.
    """
    _check_datasets(model, ds)
    groups = ds.groups
    u = np.zeros((len(groups), model.q))
    keep = [np.isfinite(g.y) for g in groups]
    live = [i for i, k in enumerate(keep) if k.any()]
    if not live:
        return u
    if components is None:
        X = np.vstack([groups[i].X[keep[i]] for i in live])
        Xt = np.stack([groups[i].x_tilde for i in live])
        _refuse_non_finite(model, [groups[i] for i in live], X, Xt, [keep[i].sum() for i in live])
        mu = eval_mean(model, X)
        r = eval_resid_var(model, X)
        G = eval_gcov_rows(model, Xt)
    else:
        finite = np.concatenate(keep)
        mu, r, G = components[0][finite], components[1][finite], components[2][live]
    stop = 0
    for i, Gi in zip(live, G):
        g, k = groups[i], keep[i]
        rows = slice(stop, stop + int(k.sum()))
        stop = rows.stop
        Z = g.Z[k]
        factor = chol_with_jitter(marginal_covariance(Z, Gi, r[rows]), g.group_id)
        alpha = cho_solve(factor, g.y[k] - mu[rows], check_finite=False)
        u[i] = Gi @ (Z.T @ alpha)
    return u


@dataclass(frozen=True)
class PredictionTable:
    """Per-row predictions in input order, ready for CSV output."""

    group_ids: list
    mu_marginal: np.ndarray
    mu_conditional: np.ndarray
    var_total: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    known_group: np.ndarray   # bool per row


def _check_datasets(model: FittedModel, *datasets: GroupedDataset) -> None:
    """DataError unless each dataset has the model's feature names, q and categorical features."""
    for d in datasets:
        if tuple(d.feature_names) != tuple(model.feature_names):
            raise DataError("dataset feature names do not match the model")
        if d.q != model.q:
            raise DataError(f"dataset has {d.q} random-effect columns, the model {model.q}")
        if d.categorical_features != tuple(model.categorical_features):
            raise DataError("dataset categorical features do not match the model")


def _refuse_non_finite(model: FittedModel, groups, X, Xt, sizes) -> None:
    """boosting's one rule for non-finite features that a linear learner reads, over the
    rows X and summaries Xt of groups, where group i holds sizes[i] rows; it names the group."""
    reads = {name: _linear_reads(e) for name, e in model.ensembles.items()}
    _refuse_non_finite_reads(reads, X, Xt, model.feature_names, [g.group_id for g in groups], sizes)


def check_alpha(alpha: float) -> None:
    """Reject an interval miss probability that is not a number in (0, 1)."""
    if not (0.0 < check_type("alpha", alpha, float) < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def interval_halfwidth(var_total: np.ndarray, alpha: float) -> np.ndarray:
    """Half-width of the normal interval of miss probability alpha (check_alpha) at each
    variance. The variances must be numbers, none of them negative, else a DataError;
    NaN passes through."""
    check_alpha(alpha)
    var_total = numeric_array("var_total", var_total)
    if np.any(var_total < 0):
        raise DataError("var_total must hold no negative variance")
    z = norm.ppf(1.0 - alpha / 2.0)
    return z * np.sqrt(var_total)


def predict_dataset(
    model: FittedModel,
    ds: GroupedDataset,
    training_groups: GroupedDataset | None = None,
    alpha: float = 0.1,
    reduced_new_group_variance: bool = False,
) -> PredictionTable:
    """Predict every row of a dataset, using BLUPs where groups are known.

    training_groups supplies the observed responses that drive the BLUPs;
    when omitted, the prediction dataset itself plays that role (the usual
    longitudinal setting: predict for clusters whose history is in hand).
    A group is known when its source rows hold a finite response; unknown
    groups get a zero BLUP, and reduced_new_group_variance drops the z' G z
    term from their variance only. Intervals use G at the served group's
    summary, the BLUP the source group's. alpha must be a number in (0, 1)
    and reduced_new_group_variance a bool, else a ConfigError. A non-finite
    feature that a linear learner reads is a DataError naming the group.
    """
    check_type("reduced_new_group_variance", reduced_new_group_variance, bool)
    source = training_groups if training_groups is not None else ds
    _check_datasets(model, ds, source)
    st, Xt = ds.stacked(), ds.x_tilde_matrix()
    _refuse_non_finite(model, ds.groups, st.X, Xt, st.sizes)
    seg = np.repeat(np.arange(ds.n_groups), st.sizes)
    mu = eval_mean(model, st.X)
    r = eval_resid_var(model, st.X)
    G_groups = eval_gcov_rows(model, Xt)
    G = G_groups[seg]

    history = {g.group_id: g for g in source.groups if np.any(np.isfinite(g.y))}
    known = np.array([g.group_id in history for g in ds.groups])
    known_rows = known[seg]
    if training_groups is None:
        # the served groups are their own history: the BLUPs reuse f, r and G
        u = blup(model, ds, (mu, r, G_groups))
    else:
        u = np.zeros((ds.n_groups, model.q))
        if known.any():
            # the served groups' histories, in served order (both sort by group id)
            served = tuple(history[g.group_id] for g, k in zip(ds.groups, known) if k)
            u[known] = blup(model, replace(source, groups=served))
    mu_cond = np.where(known_rows, mu + np.einsum("nq,nq->n", st.Z, u[seg]), mu)
    var = np.einsum("nq,nqr,nr->n", st.Z, G, st.Z) + r
    if reduced_new_group_variance:
        var = np.where(known_rows, var, r)
    half = interval_halfwidth(var, alpha)
    return PredictionTable(
        group_ids=[g.group_id for g in ds.groups for _ in range(g.n)],
        mu_marginal=mu,
        mu_conditional=mu_cond,
        var_total=var,
        lo=mu_cond - half,
        hi=mu_cond + half,
        known_group=known_rows,
    )


def _arms(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """The rows of X stacked twice, with the model's treatment column set to 1 above and 0 below."""
    t = model.treatment_index
    if t is None:
        raise ConfigError("model has no treatment column")
    X = check_rows(X, len(model.feature_names))
    n = X.shape[0]
    both = np.vstack([X, X])
    both[:n, t] = 1.0
    both[n:, t] = 0.0
    return both


def cate(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """Conditional average treatment effect: the mean at w = 1 minus the mean at w = 0."""
    m = eval_mean(model, _arms(model, X))
    n = m.shape[0] // 2
    return m[:n] - m[n:]


def ite_variance(
    model: FittedModel,
    X: np.ndarray,
    Z: np.ndarray,
    x_tilde_rows: np.ndarray,
    z_treatment_index: int | None = None,
) -> np.ndarray:
    """Variance of the individual effect Y(1) - Y(0) per row.

    The result is r(x, 1) + r(x, 0), plus the slope variance G_kk at each
    row's group summary x_tilde_rows when z_treatment_index = k points at a
    treatment random slope in Z; G is not evaluated otherwise. k must be an
    int or a NumPy integer (not a bool) in range, else a ConfigError. Z
    enters no arithmetic: it and x_tilde_rows are only checked to align with X.
    """
    both = _arms(model, X)
    n = both.shape[0] // 2
    if np.shape(Z) != (n, model.q):
        raise DataError(f"Z must be {n}x{model.q}")
    x_tilde_rows = check_rows(x_tilde_rows, len(model.feature_names), "x_tilde_rows")
    if x_tilde_rows.shape[0] != n:
        raise DataError("x_tilde_rows must align with X")
    k = None if z_treatment_index is None else check_index("z_treatment_index", z_treatment_index)
    if k is not None and not (0 <= k < model.q):
        raise ConfigError(f"z_treatment_index {k} out of range")
    r = eval_resid_var(model, both)
    var = r[:n] + r[n:]
    if k is not None:
        var += eval_gcov_rows(model, x_tilde_rows)[:, k, k]
    return var


def ate(model: FittedModel, X: np.ndarray) -> float:
    """Average treatment effect: mean of the CATE over the given rows, of which there
    must be at least one (a DataError otherwise)."""
    effects = cate(model, X)
    if effects.size == 0:
        raise DataError("ate needs at least one row")
    return float(np.mean(effects))
