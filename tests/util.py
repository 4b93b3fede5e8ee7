"""Shared helpers for the test suite."""

import math

import numpy as np

from gbmixed.boosting import eval_gcov_rows, eval_mean, eval_resid_var, factors_from_entries
from gbmixed.data import GroupBlock, GroupedDataset
from gbmixed.learners import BINS, TreeLeaf, TreeLearner, TreeSplit
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


def tree_depth(node) -> int:
    """The number of splits on the longest path from node to a leaf."""
    if isinstance(node, TreeLeaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def reference_cuts(x):
    """learners._bin's cuts of one column, gap by gap in Python floats.

    The gaps between consecutive distinct non-NaN values are all cut when
    there are at most BINS - 1 of them; otherwise, for k = 1 .. BINS - 1, the
    first gap with at least k / BINS of the non-NaN entries below it (the last
    gap when none has). A cut is the midpoint, or the upper value where the
    midpoint does not separate the two values.
    """
    v = [float(a) for a in x if a == a]
    distinct = sorted(set(v))
    gaps = range(len(distinct) - 1)
    if len(gaps) > BINS - 1:
        below = [sum(a <= distinct[i] for a in v) for i in gaps]
        gaps = sorted({next((i for i in gaps if below[i] * BINS >= k * len(v)), gaps[-1])
                       for k in range(1, BINS)})
    cuts = []
    for i in gaps:
        lo, hi = distinct[i], distinct[i + 1]
        mid = 0.5 * (lo + hi)
        cuts.append(mid if lo < mid <= hi else hi)
    return cuts


def reference_tree(X, y, features, spec, cuts=None):
    """The binned greedy search, scanned by brute force at every node.

    cuts holds one row of BINS - 1 cut values per feature, by default
    reference_cuts of each column after -inf padding. A value's bin is the
    number of its feature's cuts that it is not below, so NaN's is BINS - 1,
    and a cut splits off the bins up to its own position. The
    pseudo-responses are scaled by the power of two that brings the largest
    |y| into [0.5, 1). At every node, each bin's sum adds the node's scaled
    pseudo-responses one by one in row order, and a cut's left sum is the
    running sum of the bins up to it, as np.bincount and cumsum add. Like
    fit_tree, the oracle histograms the smaller child of a split (the left
    on equal sizes) and takes the other's histogram as its parent's minus
    it. Rows go left when x < threshold. fit_tree and this oracle must build
    equal trees, bit for bit.
    """
    feats = sorted(features)
    if cuts is None:
        cuts = [reference_cuts(X[:, f]) for f in feats]
        cuts = [[-math.inf] * (BINS - 1 - len(cs)) + cs for cs in cuts]
    cuts = [[float(c) for c in row] for row in cuts]
    Xn = X[:, feats]
    bins = [[sum(not a < c for c in cs) for a in Xn[:, j]] for j, cs in enumerate(cuts)]
    scaled = np.ldexp(y, -math.frexp(float(np.abs(y).max()))[1])
    rows = list(range(len(y)))
    hist = _reference_histogram(bins, scaled, rows)
    root = _reference_grow(Xn, y, scaled, bins, cuts, feats, rows, hist, 0, spec)
    return TreeLearner(root=root)


def _reference_histogram(bins, scaled, rows):
    sums = [[0.0] * BINS for _ in bins]
    counts = [[0] * BINS for _ in bins]
    for i in rows:
        for j, b in enumerate(bins):
            sums[j][b[i]] += float(scaled[i])
            counts[j][b[i]] += 1
    return sums, counts


def _searched(n, depth, spec):
    return depth < spec.tree_max_depth and n >= spec.tree_min_parent and n >= 2 * spec.tree_min_child


def _reference_grow(Xn, y, scaled, bins, cuts, feats, rows, hist, depth, spec):
    value = float(np.mean(y[rows]))
    if not _searched(len(rows), depth, spec):
        return TreeLeaf(value)
    found = _reference_best_split(hist, cuts, scaled[rows], spec.tree_min_child)
    if found is None:
        return TreeLeaf(value)
    j, k = found
    thr = cuts[j][k]
    parts = [i for i in rows if Xn[i, j] < thr], [i for i in rows if not Xn[i, j] < thr]
    small = int(len(parts[1]) < len(parts[0]))
    sums, counts = _reference_histogram(bins, scaled, parts[small])
    rest = ([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(hist[0], sums)],
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(hist[1], counts)])
    hists = [None, None]
    hists[small], hists[1 - small] = (sums, counts), rest
    left, right = (_reference_grow(Xn, y, scaled, bins, cuts, feats, part, h, depth + 1, spec)
                   for part, h in zip(parts, hists))
    return TreeSplit(feature=int(feats[j]), threshold=thr, left=left, right=right)


def _reference_best_split(hist, cuts, ys, min_child):
    n = len(ys)
    best = None
    for j, (sums, counts) in enumerate(zip(*hist)):
        csum, m, total = [], [], 0.0
        for s, c in zip(sums, counts):
            total += s
            csum.append(total)
            m.append(c + (m[-1] if m else 0))
        for k in range(len(cuts[j])):
            if counts[k] == 0 or m[k] < min_child or n - m[k] < min_child:
                continue
            cl = csum[k]
            gain = cl * cl / m[k] + (total - cl) * (total - cl) / (n - m[k]) - total * total / n
            if best is None or gain > best[0]:
                best = gain, j, k
    floor = 1e-12 * (float((ys * ys).sum()) + 1e-300)
    if best is None or not math.isfinite(best[0]) or best[0] <= floor:
        return None
    return best[1:]
