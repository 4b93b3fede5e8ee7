"""Base learners fitted to pseudo-responses inside the boosting loop.

Three kinds: a constant (mean of the pseudo-response), a ridge-stabilized
linear model, and a greedy regression tree grown on squared error over
binned features. Learners are fitted on a feature subsample but store
global column indices, so prediction always takes full-width feature
matrices. A learner's predict checks no matrix: it relies on its caller,
either boosting's one evaluator (_sums, behind eval_mean, eval_gcov_rows
and eval_resid_var), which checks every matrix a fitted model is served
with errors.check_rows, or boosting.fit's own stack. Both refuse a
non-finite entry that a linear learner reads by boosting's one rule,
_refuse_non_finite_reads.

Every kind fits from one training input, a BinnedColumns: the feature
matrix X, the sorted list of columns the learner may use, and the cuts and
codes of those columns, which it computes only when a tree whose root can
split asks for them. Fitting checks nothing either: boosting.fit is the one
caller of every fit, and what it passes is valid by construction (see the
boosting module docstring): X is a float matrix of its stack, the features
are distinct, ascending, in range and among the ones the instance was
restricted from, the rows are indices of X, and the pseudo-response is a
finite float vector with one entry per row. One mean rule (_mean) gives
every tree leaf and every constant learner.

Trees search splits over histograms (Ke et al. 2017, LightGBM; Chen &
Guestrin 2016, XGBoost's tree_method="hist"). Each feature of a group set is
cut once (_bin), at the gaps between consecutive distinct non-NaN values:
every gap when there are at most BINS - 1 = 31, else BINS - 1 gaps at
quantiles of the entries (fewer when one value holds many of them). A cut
is the midpoint of the two values, or the upper value where the midpoint
would not separate them (next to -inf, when the sum overflows, between
adjacent floats). A value's uint8 code is the number of its feature's cuts
at or below it, after -inf padding to BINS - 1 cuts, so NaN takes the last
code, BINS - 1, with the values above every cut.

Tree details that the rest of the package depends on:
  - split thresholds are cut values, so rows with x[feature] < threshold,
    the rows a tree sends left, are exactly the rows whose code is at most
    the cut's index; NaN never goes left,
  - candidate splits must leave tree_min_child rows on each side and nodes
    with fewer than tree_min_parent rows are never split,
  - a cut that follows a bin empty at the node is not a candidate, so of the
    cuts that split a node alike only the lowest competes,
  - ties in gain break toward the lower feature index, then lower threshold,
  - zero-gain splits are not made, so a constant pseudo-response yields a
    single leaf.

A fit bins each group set once, from its boosting head, and each iteration
restricts it (BinnedColumns.restrict): the restriction gathers the set's
uint8 codes at the iteration's rows and features and keeps the set's cuts,
so every tree of a fit splits at the same cuts. A tree adds f * BINS to
feature f's codes once per restriction and then makes two np.bincount calls
per histogrammed node over those keys, one weighted by the pseudo-responses
and one for the counts. Of two children of a split, only the smaller is
histogrammed; the larger one's histogram is its parent's minus it (measured
12% faster on pairs than histogramming both). A node's gains are scored
over its (F, BINS - 1) cuts at once, from the cumulative sums and counts of
its bins. Before that, every pseudo-response of the tree is scaled by the
one power of two that brings the largest |pseudo| into [0.5, 1): the
squared sums cannot overflow, and since scaling by a power of two is exact,
short of underflow a tree splits where it would without it; leaves are
means of the unscaled values. A node that cannot be searched (at the depth
limit, or too small for tree_min_parent or for two tree_min_child sides) is
a leaf that gets no histogram, and a root that cannot be searched never
asks its BinnedColumns for codes, so a group set that no tree can split is
never binned.

BINS = 32 was chosen by measurement among 32, 64 and 128 (in-process fits
of the benchmark's draws of seeds 1-3 on a shared 2-core Xeon VM, numpy
2.4.6, best of 3): pairs fits took 0.25-0.29 s at 32, 0.28-0.33 s at 64
and 0.33-0.36 s at 128 (exact search 0.52-0.57 s), clusters fits
0.19-0.21, 0.20-0.22 and 0.21-0.24 s (exact 0.24 s); quality moved within
noise at every size. The (F, BINS - 1) scan is a fixed cost per node, so
more bins cost most where nodes are small.

The tie rule is exact only for gains that are equal in floating point. Two
features that induce the same partition of a node have equal gains in exact
arithmetic, but their bins add the pseudo-responses in different orders,
so rounding, not the feature index, decides between them; a change in the
last bits of the pseudo-responses can flip such a split.

Prediction gathers no rows. An ensemble call makes one feature-major copy
cols = np.ascontiguousarray(X.T) and hands it to every tree (a tree called
on its own makes its own copy). A tree is walked once: every split compares
its whole contiguous column, go_left = cols[feature] < threshold (NaN
compares false and goes right), and combines its children's leaf numbers
with the exact integer select right + go_left * (left - right); one take
from the leaf values returns the prediction, so the values are the leaf
values bit for bit. A leaf's number is the narrowest of an int8, int16 or
int64 scalar that holds it, so on trees of up to 128 leaves every select
runs on 1-byte arrays; NumPy's promotion widens a select only where one
side's numbers need it, and a number is an exact index in any of them.
Partial dependence reads every learner from one feature-major copy per call
(see boosting._ensemble_grid_sum): _split_thresholds lists a tree's thresholds
on the plotted feature from _splits, the one walker of a tree's splits
(split_counts reads it too), and _leaf_values walks the columns once per
threshold interval with fixed = (feature, value). That walk settles each
split on the plotted feature by the scalar test value < threshold (NaN
goes right, as in the column test) and walks only the side it picks, so a
tree split only on that feature reaches one leaf, whose value fills the
row. Linear and constant learners read the copy through predict(cols.T,
cols).

That costs a few passes over all n rows per split node, where gathering
each node's own rows cost about one pass per level, so the select's lead
narrows as trees deepen. Measured against the gather (20 trees fitted on
4000 rows with min_parent 10 and p = 8, best of repeats, 2-core shared Xeon
VM, numpy 2.4.6), time ratios with narrow leaf numbers were
  depth 1-4:  0.08-0.13 on 30 000 rows, 0.24-0.40 on 2000, 0.70-0.84 on 200
  depth 5-6:  0.15-0.20 on 30 000 rows, 0.46-0.52 on 2000, 0.83-0.84 on 200
  depth 7-8:  0.25-0.26 on 30 000 rows, 0.58-0.68 on 2000, 0.87 on 200;
with int64 numbers the same sweep read 0.74-1.04 at depth 7-8 on 30 000
rows. Every scenario, README example and CLI default, and both benchmark
workloads, use depth 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import ConfigError, check_fields

LEARNER_KINDS = ("constant", "linear", "tree")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str = "tree"
    tree_max_depth: int = 3
    tree_min_parent: int = 10
    tree_min_child: int = 5

    def __post_init__(self):
        check_fields(self)
        if self.kind not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner kind {self.kind!r}")
        if self.tree_max_depth < 1:
            raise ConfigError("tree_max_depth must be at least 1")
        if self.tree_min_parent < 2:
            raise ConfigError("tree_min_parent must be at least 2")
        if self.tree_min_child < 1:
            raise ConfigError("tree_min_child must be at least 1")


@dataclass(frozen=True)
class ConstantLearner:
    value: float
    features: ClassVar[tuple[int, ...]] = ()   # reads no column

    def predict(self, X: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        return np.full(len(X), self.value)

    def split_counts(self, p: int) -> np.ndarray:
        return np.zeros(p)


@dataclass(frozen=True)
class LinearLearner:
    features: tuple[int, ...]   # global column indices
    coef: np.ndarray            # aligned with features
    intercept: float

    def predict(self, X: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """The row-major product; cols (see TreeLearner.predict) is ignored."""
        return X[:, list(self.features)] @ self.coef + self.intercept

    def split_counts(self, p: int) -> np.ndarray:
        counts = np.zeros(p)
        for f, c in zip(self.features, self.coef):
            if c != 0.0:
                counts[f] += 1.0
        return counts


@dataclass(frozen=True)
class TreeSplit:
    feature: int                # global column index
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


@dataclass(frozen=True)
class TreeLeaf:
    value: float


TreeNode = Union[TreeSplit, TreeLeaf]


@dataclass(frozen=True)
class TreeLearner:
    root: TreeNode

    def predict(self, X: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Leaf values of the rows of X, read from cols = np.ascontiguousarray(X.T) if given."""
        if cols is None:
            cols = np.ascontiguousarray(X.T, dtype=float)
        return _leaf_values(self.root, cols)

    def split_counts(self, p: int) -> np.ndarray:
        counts = np.zeros(p)
        for s in _splits(self.root):
            counts[s.feature] += 1.0
        return counts


def _leaf_values(root: TreeNode, cols, fixed=None) -> np.ndarray:
    """Leaf value of each column of the feature-major cols, from one walk of the tree.

    fixed = (feature, value) walks the tree as if row feature of cols held value
    throughout (see _leaf_numbers); that row is then never read.
    """
    values: list[float] = []
    leaf = _leaf_numbers(root, cols, values, fixed)
    if np.ndim(leaf) == 0:      # a leaf root, or every split on the path settled
        return np.full(cols.shape[1], values[leaf])
    return np.array(values).take(leaf)


def _splits(node: TreeNode):
    """Every split at or below node, depth first: the node, then its left and right subtrees."""
    if isinstance(node, TreeSplit):
        yield node
        yield from _splits(node.left)
        yield from _splits(node.right)


def _split_thresholds(node: TreeNode, feature: int) -> np.ndarray:
    """The distinct thresholds of the splits on feature below node, ascending."""
    found = [s.threshold for s in _splits(node) if s.feature == feature]
    return np.unique(np.array(found, dtype=float))


def _leaf_numbers(node: TreeNode, cols, values: list, fixed=None):
    """Number of the leaf each row of cols reaches below node.

    Leaves are numbered in depth-first order as their values are appended to
    values; a leaf returns its number as the narrowest of int8, int16 and
    int64 scalars that holds it, so a select of two leaves' numbers runs on
    1-byte arrays and widens only where one side needs it. With fixed =
    (feature, value), a split on feature is settled by the scalar test
    value < threshold (NaN goes right) and only the side it picks is walked.
    """
    if isinstance(node, TreeLeaf):
        values.append(node.value)
        k = len(values) - 1
        return np.int8(k) if k < 128 else np.int16(k) if k < 32768 else np.int64(k)
    if fixed is not None and node.feature == fixed[0]:
        return _leaf_numbers(node.left if fixed[1] < node.threshold else node.right, cols, values, fixed)
    left = _leaf_numbers(node.left, cols, values, fixed)
    right = _leaf_numbers(node.right, cols, values, fixed)
    return right + (cols[node.feature] < node.threshold) * (left - right)


FittedLearner = Union[ConstantLearner, LinearLearner, TreeLearner]


def _mean(y) -> float:
    """The one mean rule of leaves and constants: np.mean's add.reduce and one true
    divide, without its wrapper."""
    return float(y.sum()) / y.shape[0]


def fit_constant(pseudo: np.ndarray) -> ConstantLearner:
    return ConstantLearner(value=_mean(np.asarray(pseudo, dtype=float)))


RIDGE_EPSILON = 1e-8    # added to the Gram diagonal of every linear fit; no model file records it


def fit_linear(columns: BinnedColumns, pseudo) -> LinearLearner:
    """Least squares of pseudo on columns.X[:, columns.features] plus an intercept.

    The normal equations get RIDGE_EPSILON added to the Gram diagonal; a
    system np.linalg.solve still finds singular (at numpy 2.4.6, D = [x, x,
    1] for x = 1e5 * U(0, 1) over 50 rows, at 4 of default_rng seeds 0-4;
    never at scales 1 and 1e3) takes lstsq's minimum norm solution.
    """
    X, feats = columns.X, list(columns.features)
    pseudo = np.asarray(pseudo, dtype=float)
    D = np.column_stack([X[:, feats], np.ones(X.shape[0])])
    A = D.T @ D + RIDGE_EPSILON * np.eye(D.shape[1])
    b = D.T @ pseudo
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(A, b, rcond=None)[0]
    return LinearLearner(
        features=columns.features,
        coef=beta[:-1],
        intercept=float(beta[-1]),
    )


BINS = 32   # codes per feature, the last of which NaN takes: at most BINS - 1 cuts


def _bin(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cuts and codes of (F, n) feature-major columns.

    A feature's cuts lie between consecutive distinct values of its non-NaN
    entries: every such gap when there are at most BINS - 1 of them, else the
    gaps where the share of entries below first reaches k / BINS, k = 1 ..
    BINS - 1 (fewer when one value holds many entries). A cut is the midpoint
    of the two values, or the upper value where the midpoint would not
    separate them (next to -inf, when the sum overflows, between adjacent
    floats). Returns the (F, BINS - 1) cuts, each feature's ascending and
    right-aligned after -inf padding, and the (F, n) uint8 codes: the number
    of the feature's cuts, padding included, at or below the entry. So NaN's
    code is BINS - 1, the code of the entries above every cut, and no row is
    below a padding cut.
    """
    cuts = np.full((cols.shape[0], BINS - 1), -np.inf)
    codes = np.empty(cols.shape, dtype=np.uint8)
    for f, x in enumerate(cols):
        values, counts = np.unique(x[~np.isnan(x)], return_counts=True)
        at = np.arange(values.size - 1)
        if at.size > BINS - 1:
            below = np.cumsum(counts[:-1]) * BINS      # BINS x the entries below each gap
            at = np.unique(np.minimum(below.searchsorted(np.arange(1, BINS) * counts.sum()), at.size - 1))
        lo, hi = values[at], values[at + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            mid = 0.5 * (lo + hi)
        cuts[f, BINS - 1 - at.size :] = np.where((lo < mid) & (mid <= hi), mid, hi)
        codes[f] = cuts[f].searchsorted(x, side="right")
    return cuts, codes


class BinnedColumns:
    """The one training input of every learner: a feature matrix X, the sorted
    feature list a learner may use, and, once a tree asks, the cuts and codes
    of those columns (_bin).

    It checks nothing, as a learner's predict checks nothing: its one caller,
    boosting.fit, builds every instance from a checked dataset, X as a float
    matrix and the features as a nonempty set of column indices of X, and
    restricts it to row indices of X and to a subset of its features. The
    constructor only turns any integer sequence (a range, a tuple or a NumPy
    array) into the ascending tuple of its Python ints.

    Nothing is binned until a tree whose root can split asks for arrays(), so
    constant and linear learners, and trees whose root cannot split, never pay
    for it. Trees fitted to the same instance share its bins. An instance
    made by restrict() never bins: it gathers the codes of the instance it
    came from at its rows and features and keeps that instance's cuts, so a
    fit bins each group set at most once, and every iteration's trees split
    at the cuts of the set's whole boosting head.
    """

    def __init__(self, X, features: Sequence[int]):
        self.X = np.asarray(X, dtype=float)
        self.features = tuple(np.sort(features).tolist())   # Python ints, ascending
        self._source = None     # (parent, rows, positions of features in the parent's)
        self._codes = None
        self._arrays = None

    def restrict(self, rows, features: Sequence[int]) -> "BinnedColumns":
        """The columns features of the rows X[rows], in any order, at this instance's cuts."""
        sub = BinnedColumns(self.X[rows], features)
        sub._source = self, rows, np.searchsorted(self.features, sub.features)
        return sub

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (F, BINS - 1) cuts and the (F, n) keys code + f * BINS of the columns."""
        if self._arrays is None:
            cuts, codes = self.binned()
            self._arrays = cuts, codes + np.arange(0, cuts.shape[0] * BINS, BINS)[:, None]
        return self._arrays

    def binned(self) -> tuple[np.ndarray, np.ndarray]:
        """The cuts and uint8 codes of the columns: _bin of its own X, or for a
        restriction its parent's, gathered at the kept rows and features."""
        if self._codes is None:
            if self._source is None:
                self._codes = _bin(self.X.T[list(self.features)])
            else:
                parent, rows, at = self._source
                cuts, codes = parent.binned()
                codes = codes.take(rows, axis=1)
                if at.size != cuts.shape[0]:
                    cuts, codes = cuts[at], codes[at]
                self._codes = cuts, codes
        return self._codes


def fit_tree(columns: BinnedColumns, pseudo, spec: LearnerSpec) -> TreeLearner:
    """Greedy histogram tree on the binned columns.features of columns.X.

    columns bins only when a tree asks for its arrays, and trees fitted to
    the same columns share its bins. A root too small to split never asks:
    it is the mean leaf (_mean, the rule of every leaf and constant).
    """
    n = columns.X.shape[0]
    pseudo = np.asarray(pseudo, dtype=float)
    if not _searched(n, 0, spec):
        return TreeLearner(root=TreeLeaf(_mean(pseudo)))
    cuts, keys = columns.arrays()
    # one power of two brings the largest |pseudo| into [0.5, 1), so no sum or gain
    # overflows and, short of underflow, every gain keeps its bits up to that scale
    scaled = np.ldexp(pseudo, -math.frexp(float(np.abs(pseudo).max()))[1])
    tree = keys, cuts, scaled, pseudo, columns.features, spec
    rows = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):   # at cuts that _best_split masks
        root = _grow(tree, rows, _histogram(keys, scaled, rows), 0)
    return TreeLearner(root=root)


def _searched(n: int, depth: int, spec: LearnerSpec) -> bool:
    """Whether a node of n rows at depth looks for a split."""
    return depth < spec.tree_max_depth and n >= max(spec.tree_min_parent, 2 * spec.tree_min_child)


def _histogram(keys, scaled, rows) -> np.ndarray:
    """The (2, F, BINS) sums of scaled and counts of the rows, by key = code + f * BINS."""
    F = keys.shape[0]
    at = keys.take(rows, axis=1).ravel()
    weights = np.empty((F, rows.shape[0]))
    weights[:] = scaled.take(rows)
    hist = np.empty((2, F * BINS))
    hist[0] = np.bincount(at, weights.ravel(), F * BINS)
    hist[1] = np.bincount(at, None, F * BINS)
    return hist.reshape(2, F, BINS)


def _grow(tree, rows, hist, depth) -> TreeNode:
    """Grow the node holding rows, whose histogram is hist, or None for a node
    that is not searched (_searched is false), which is a leaf.

    Of two children of which at least one is searched, the smaller one (the
    left on equal sizes) is histogrammed and the other's histogram is its
    parent's minus it. tree holds the tree's constants: keys, cuts, the
    scaled and raw pseudo-responses, the features and the spec. They are
    passed down, not kept in module state, so fits may run in threads; and
    _grow is a module-level function rather than a closure, because a
    recursive closure is a reference cycle that would hold each tree's
    arrays until the cycle collector runs.
    """
    keys, cuts, scaled, pseudo, feats, spec = tree
    found = None if hist is None else _best_split(hist, scaled.take(rows), spec.tree_min_child)
    if found is None:
        return TreeLeaf(_mean(pseudo.take(rows)))
    j, k = found
    go_left = keys[j].take(rows) <= j * BINS + k
    parts = rows.compress(go_left), rows.compress(~go_left)
    searched = [_searched(part.shape[0], depth + 1, spec) for part in parts]
    hists = [None, None]
    if any(searched):
        small = int(parts[1].shape[0] < parts[0].shape[0])
        hists[small] = _histogram(keys, scaled, parts[small])
        hists[1 - small] = hist - hists[small]
    children = [_grow(tree, part, h if s else None, depth + 1)
                for part, h, s in zip(parts, hists, searched)]
    return TreeSplit(feature=feats[j], threshold=float(cuts[j, k]), left=children[0], right=children[1])


def _best_split(hist, y, min_child):
    """The best cut of one node over all features at once, from its histogram.

    hist holds the node's (F, BINS) sums of the scaled pseudo-responses over
    its (F, BINS) counts, and y its scaled pseudo-responses. Cut k of feature
    f sends the codes up to k left. Its gain cl²/m + (T - cl)²/(n - m) - T²/n
    is computed over the cumulative sums and counts of the bins, in that
    operation order, with T each feature's own total. A cut gets -inf that
    leaves fewer than min_child rows on a side (padding cuts leave none on
    the left) or that follows an empty bin, so that of the cuts giving one
    partition only the lowest competes. The row-major argmax of the (F, BINS
    - 1) gains resolves equal gains to the lower feature index first and the
    lower threshold second. Returns (local feature index, cut index), or None
    when no cut has a gain above 1e-12 times the node's sum of y².
    """
    n = y.shape[0]
    csum = hist.cumsum(axis=2)
    cl, m = csum[0, :, :-1], csum[1, :, :-1]
    total = csum[0, :, -1:]
    gains = cl * cl
    gains /= m
    right = total - cl
    right *= right
    right /= n - m
    gains += right
    gains -= total * total / n
    ok = (m >= min_child) & (m <= n - min_child) & (hist[1, :, :-1] > 0)
    np.putmask(gains, ~ok, -np.inf)
    best = int(gains.argmax())
    gain = float(gains.flat[best])
    if not math.isfinite(gain) or gain <= 1e-12 * (float((y * y).sum()) + 1e-300):
        return None
    return divmod(best, BINS - 1)


def fit_learner(columns: BinnedColumns, pseudo, spec: LearnerSpec) -> FittedLearner:
    """Fit the learner kind of spec to pseudo on columns; a constant reads only pseudo."""
    if spec.kind == "constant":
        return fit_constant(pseudo)
    if spec.kind == "linear":
        return fit_linear(columns, pseudo)
    return fit_tree(columns, pseudo, spec)
