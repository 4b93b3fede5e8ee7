"""Shared helpers for the test suite."""

import numpy as np

from gbmixed.boosting import eval_gcov_rows, eval_mean, eval_resid_var, factors_from_entries
from gbmixed.data import GroupBlock, GroupedDataset
from gbmixed.likelihood import group_loglik, marginal_covariance


def model_total_loglik(model, ds, upto=None) -> float:
    """Total marginal log-likelihood of a dataset under a truncated model."""
    G_all = eval_gcov_rows(model, ds.x_tilde_matrix(), upto=upto)
    total = 0.0
    for gi, g in enumerate(ds.groups):
        mu = eval_mean(model, g.X, upto=upto)
        r = eval_resid_var(model, g.X, upto=upto)
        Sigma = marginal_covariance(g.Z, G_all[gi], r)
        total += group_loglik(g.y, mu, Sigma, g.group_id)
    return total


def staged_prefixes(model, X, Xt):
    """Yield (m, eval_resid_var(X, upto=m), eval_gcov_rows(Xt, upto=m)) for
    m = 0 .. best_iteration from running sums.

    Each tree is evaluated once, adding lr * h.predict in the order
    boosting._ensemble_sum uses, so every prefix is bit-equal to its upto=m
    call at the cost of one full-ensemble evaluation.
    """
    X = np.asarray(X, dtype=float)
    Xt = np.asarray(Xt, dtype=float)
    cols, cols_t = np.ascontiguousarray(X.T), np.ascontiguousarray(Xt.T)
    cfg = model.config
    log_r = np.full(X.shape[0], model.logrvar_init)
    entries = np.tile(model.gcov_init, (Xt.shape[0], 1))
    for m in range(model.best_iteration + 1):
        if m > 0:
            log_r += cfg.lr_rvar * model.rvar_learners[m - 1].predict(X, cols)
            for t, ensemble in enumerate(model.gcov_learners):
                entries[:, t] += cfg.lr_gcov * ensemble[m - 1].predict(Xt, cols_t)
        L = factors_from_entries(entries, model.q)
        yield m, np.exp(log_r), L @ np.swapaxes(L, 1, 2)


def clustered_dataset(
    rng,
    n_groups=40,
    n_per=2,
    p=3,
    group_sd=0.6,
    resid_sd=0.5,
    mean_fn=None,
):
    """Random-intercept Gaussian data with an optional mean signal."""
    groups = []
    for i in range(n_groups):
        X = rng.standard_normal((n_per, p))
        alpha = group_sd * rng.standard_normal()
        m = mean_fn(X) if mean_fn is not None else np.zeros(n_per)
        y = m + alpha + resid_sd * rng.standard_normal(n_per)
        groups.append(GroupBlock(group_id=i, y=y, X=X, Z=np.ones((n_per, 1))))
    names = tuple(f"x{j + 1}" for j in range(p))
    return GroupedDataset(groups=tuple(groups), feature_names=names)


def deep_tree_text(depth: int) -> str:
    """A tree payload's JSON text, splits nested depth deep down the left branch.

    Written as text because json.dumps cannot nest much past the recursion limit.
    """
    return '{"f":0,"l":' * depth + '{"v":0.0}' + ',"r":{"v":0.0},"t":0.5}' * depth
