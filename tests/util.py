"""Shared helpers for the test suite."""

import numpy as np

from gbmixed.boosting import eval_gcov_rows, eval_mean, eval_resid_var, factors_from_entries
from gbmixed.data import GroupBlock, GroupedDataset
from gbmixed.learners import TreeLeaf, TreeLearner, TreeSplit
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
    boosting._sums uses, so every prefix is bit-equal to its upto=m
    call at the cost of one full-ensemble evaluation.
    """
    X = np.asarray(X, dtype=float)
    Xt = np.asarray(Xt, dtype=float)
    cols, cols_t = np.ascontiguousarray(X.T), np.ascontiguousarray(Xt.T)
    cfg = model.config
    R, G = model.ensembles["R"], model.ensembles["G"]
    log_r = np.full(X.shape[0], R.init[0])
    entries = np.tile(G.init, (Xt.shape[0], 1))
    for m in range(model.best_iteration + 1):
        if m > 0:
            log_r += cfg.lr_rvar * R.learners[0][m - 1].predict(X, cols)
            for t, ensemble in enumerate(G.learners):
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


def reference_tree(X, y, features, spec):
    """The exact greedy search that sorts again at every node.

    fit_tree sorts once per tree and partitions; this per-node argsort
    version is its oracle: both must build equal trees, bit for bit.
    """
    feats = np.asarray(sorted(features), dtype=np.int64)
    root = _reference_grow(X[:, feats], y, feats, 0, spec)
    return TreeLearner(root=root, n_features=X.shape[1])


def _reference_grow(Xn, y, feats, depth, spec):
    n = y.shape[0]
    value = float(np.mean(y))
    if depth >= spec.tree_max_depth or n < spec.tree_min_parent or n < 2 * spec.tree_min_child:
        return TreeLeaf(value)
    found = _reference_best_split(Xn, y, spec.tree_min_child)
    if found is None:
        return TreeLeaf(value)
    j, thr = found
    go_left = Xn[:, j] < thr
    left = _reference_grow(Xn[go_left], y[go_left], feats, depth + 1, spec)
    right = _reference_grow(Xn[~go_left], y[~go_left], feats, depth + 1, spec)
    return TreeSplit(feature=int(feats[j]), threshold=thr, left=left, right=right)


def _reference_best_split(Xn, y, min_child):
    n, F = Xn.shape
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1]
    m = np.arange(1, n, dtype=float)[:, None]
    cl = csum[:-1]
    gains = cl**2 / m + (total - cl) ** 2 / (n - m) - total**2 / n
    valid = xs[:-1] < xs[1:]
    if min_child > 1:
        valid[: min_child - 1] = False
        valid[n - min_child :] = False
    gains = np.where(valid, gains, -np.inf)
    best_j, best_i = divmod(int(np.argmax(gains.ravel(order="F"))), n - 1)
    best_gain = gains[best_i, best_j]
    floor = 1e-12 * (float(np.sum(y * y)) + 1e-300)
    if not np.isfinite(best_gain) or best_gain <= floor:
        return None
    below, above = float(xs[best_i, best_j]), float(xs[best_i + 1, best_j])
    thr = 0.5 * (below + above)
    return best_j, thr if below < thr <= above else above
