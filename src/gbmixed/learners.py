"""Base learners fitted to pseudo-responses inside the boosting loop.

Three kinds: a constant (mean of the pseudo-response), a ridge-stabilized
linear model, and an exact greedy regression tree grown on squared error.
Learners are fitted on a feature subsample but store global column indices,
so prediction always takes full-width feature matrices. A learner's predict
checks no matrix: it relies on its caller, either boosting's one evaluator
(_sums, behind eval_mean, eval_gcov_rows and eval_resid_var), which checks
every matrix a fitted model is served with errors.check_rows, or
boosting.fit's own stack. Both refuse a non-finite entry that a linear
learner reads by boosting's one rule, _refuse_non_finite_reads.

Every kind fits from one training input, a SortedColumns: the feature
matrix X, the sorted list of columns the learner may use, and the stable
argsort of those columns, which it sorts only when a tree whose root can
split asks for it. Its constructor is the one place where X and the feature
list are checked. One mean rule (_mean) gives every tree leaf and every
constant learner.

Tree details that the rest of the package depends on:
  - split thresholds are midpoints between consecutive distinct sorted values,
    or the upper value where the midpoint would not separate the two (next
    to -inf, when the sum overflows, between adjacent floats),
  - rows with x[feature] < threshold go left,
  - candidate splits must leave tree_min_child rows on each side and nodes
    with fewer than tree_min_parent rows are never split,
  - ties in gain break toward the lower feature index, then lower threshold,
  - zero-gain splits are not made, so a constant pseudo-response yields a
    single leaf.

A fit sorts each group set once, and each iteration restricts that order
(SortedColumns): the fit-level stable argsort of every feature column orders
the rows by value and then by row index. An iteration's rows are an
ascending subset, so filtering that order to them keeps them ordered by
value and then by position in the subset, which is the stable argsort of the
subset itself, ties and -0.0 == 0.0 included. The filter is one byte per
entry of the parent's order (a gather of a picked-row mask); only the kept
entries are mapped to their local row positions. Within a tree every child
takes the stable partition of its parent's sorted index arrays, one
np.compress of them by the flattened mask of the split side, which keeps the
same order again. Cumulative sums, gains and thresholds are therefore the
same bits whichever way the node's order was reached.

A tree does only the work that a split uses. A node's cumulative sums run
over all its rows, because the last one is its total, but gains are scored
in place and only on the window of cuts that leave tree_min_child rows on
each side. What does not depend on the node (the flat view of the columns,
each feature's offset in it and the sizes 0..n as floats) is built once per
tree, and a cut between tied values gets its -inf gain from np.putmask. On
matched pairs every other cut is tied, and over such a 31 x 872 window
putmask took 15 us against 95 us for a masked np.copyto (on a random mask of
the same density, 166 against 237 us; numpy 2.4.6 on one Xeon core, best of
repeats). Per node, the gathers, sums, argmax and compress are ndarray
methods: the np.* functions that wrap them add about 1 us a call, a few
percent of a clusters fit, for the same result. A child that cannot be
searched (at the depth limit, or too small for tree_min_parent or for two
tree_min_child sides) is a leaf that gets no index arrays; when neither
child is searched the side mask is not built either. A root that cannot be
searched is the mean leaf and never asks its SortedColumns for arrays, so a
group set that no tree can split is never sorted.

The tie rule is exact only for gains that are equal in floating point. Two
features that induce the same partition of a node have equal gains in exact
arithmetic, but their cumulative sums add the pseudo-responses in different
orders, so rounding, not the feature index, decides between them; a change
in the last bits of the pseudo-responses can flip such a split.

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

from .errors import ConfigError, DataError, check_fields, check_index

LEARNER_KINDS = ("constant", "linear", "tree")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str = "tree"
    tree_max_depth: int = 3
    tree_min_parent: int = 10
    tree_min_child: int = 5
    ridge_epsilon: float = 1e-8

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
        if self.ridge_epsilon < 0:
            raise ConfigError("ridge_epsilon must be nonnegative")


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
    n_features: int             # width of the full feature matrix at fit time

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
    n_features: int

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

    def depth(self) -> int:
        return _node_depth(self.root)


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


def _node_depth(node: TreeNode) -> int:
    if isinstance(node, TreeLeaf):
        return 0
    return 1 + max(_node_depth(node.left), _node_depth(node.right))


FittedLearner = Union[ConstantLearner, LinearLearner, TreeLearner]


def _check_pseudo(pseudo, n: int | None = None) -> np.ndarray:
    """pseudo as a float vector: nonempty, and of length n when n is given."""
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.ndim != 1 or pseudo.shape[0] == 0:
        raise DataError("pseudo-response must be a nonempty vector")
    if n is not None and pseudo.shape[0] != n:
        raise DataError("feature matrix must have one row per pseudo-response")
    return pseudo


def _mean(y) -> float:
    """The one mean rule of leaves and constants: np.mean's add.reduce and one true
    divide, without its wrapper."""
    return float(y.sum()) / y.shape[0]


def fit_constant(pseudo: np.ndarray) -> ConstantLearner:
    return ConstantLearner(value=_mean(_check_pseudo(pseudo)))


def fit_linear(columns: SortedColumns, pseudo, spec: LearnerSpec) -> LinearLearner:
    """Least squares of pseudo on columns.X[:, columns.features] plus an intercept.

    The normal equations get spec.ridge_epsilon added to the Gram diagonal;
    with a zero epsilon a rank-deficient system falls back to the minimum
    norm solution.
    """
    X, feats = columns.X, list(columns.features)
    pseudo = _check_pseudo(pseudo, X.shape[0])
    D = np.column_stack([X[:, feats], np.ones(X.shape[0])])
    A = D.T @ D + spec.ridge_epsilon * np.eye(D.shape[1])
    b = D.T @ pseudo
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(A, b, rcond=None)[0]
    return LinearLearner(
        features=columns.features,
        coef=beta[:-1],
        intercept=float(beta[-1]),
        n_features=X.shape[1],
    )


def _stable_argsort(cols: np.ndarray) -> np.ndarray:
    """The stable argsort of each row of (F, n) feature-major columns."""
    return np.argsort(cols, axis=1, kind="stable")


class SortedColumns:
    """The one training input of every learner: a feature matrix X, the sorted
    feature list a learner may use, and, once a tree asks, the stable argsort
    of each of those columns.

    The constructor is the one place where X and the feature list are
    checked: X must be 2-dimensional (a DataError otherwise), and the features
    a nonempty list of distinct integer column indices of X (NumPy integers
    count; floats, bools and strings do not), a ConfigError otherwise. A 1-D
    integer array, as boosting's feature sample is, is sorted into Python ints
    in one call and skips the per-element index check; any other list is
    checked element by element (so a True in a tuple is refused). The
    messages are the same either way.

    Nothing is sorted until a tree whose root can split asks for arrays(), so
    constant and linear learners, and trees whose root cannot split, never pay
    for a sort. Trees fitted to the same instance share that one order, and
    every tree node takes stable partitions of its index arrays. An instance
    made by restrict() never sorts: it filters the order of the instance it
    came from by a one-byte mask of the kept rows, so a fit sorts each group
    set at most once and restricts that order to each iteration's rows and
    features.
    """

    def __init__(self, X, features: Sequence[int]):
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2:
            raise DataError("feature matrix must be 2-dimensional")
        if isinstance(features, np.ndarray) and features.ndim == 1 and features.dtype.kind in "iu":
            feats = np.sort(features).tolist()      # Python ints, so none to check one by one
        else:
            feats = sorted(check_index("feature index", f) for f in features)
        p = self.X.shape[1]
        if len(feats) == 0:
            raise ConfigError("need at least one feature")
        if len(set(feats)) != len(feats):
            raise ConfigError("duplicate feature indices")
        if feats[0] < 0 or feats[-1] >= p:
            raise ConfigError(f"feature index out of range for {p} columns")
        self.features = tuple(feats)
        self._source = None     # (parent, rows, positions of features in the parent's)
        self._order = None
        self._sorted = None

    def restrict(self, rows, features: Sequence[int]) -> "SortedColumns":
        """The columns features of the rows X[rows]; rows must be strictly ascending.

        Only for ascending rows is the filtered order the stable argsort of
        X[rows] (see the module docstring), so any other row set is a DataError.
        """
        rows = np.asarray(rows)
        if (
            rows.ndim != 1
            or rows.dtype.kind not in "iu"
            or np.any(rows[1:] <= rows[:-1])
            or rows.size and (rows[0] < 0 or rows[-1] >= self.X.shape[0])
        ):
            raise DataError(f"restricted rows must be ascending indices of {self.X.shape[0]} rows")
        sub = SortedColumns(self.X[rows], features)
        known = np.asarray(self.features)
        at = np.searchsorted(known, sub.features)
        if not (np.all(at < known.size) and np.array_equal(known[at], sub.features)):
            raise DataError("restricted features must be among the presorted ones")
        sub._source = self, rows, at
        return sub

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, n) feature-major columns and the stable argsort of each of them."""
        if self._sorted is None:
            self._sorted = self.X.T[list(self.features)], self._stable_order()
        return self._sorted

    def _stable_order(self) -> np.ndarray:
        """The order of arrays(), cached apart from the columns, which a set
        that is only restricted never copies. A restriction gathers its
        parent's order at the kept features (not at all when it keeps every
        one), gathers a one-byte picked-row mask over it, compresses the
        order by that mask and maps only the kept (F, n) entries to local
        row positions; no map is gathered over the parent's whole order."""
        if self._order is None:
            if self._source is None:
                self._order = _stable_argsort(self.X.T[list(self.features)])
            else:
                parent, rows, at = self._source
                order = parent._stable_order()
                if at.size != order.shape[0]:
                    order = order[at]
                picked = np.zeros(parent.X.shape[0], dtype=bool)
                picked[rows] = True
                kept = order.compress(picked[order].ravel())
                local = np.empty(parent.X.shape[0], dtype=np.int64)   # read only at picked rows
                local[rows] = np.arange(rows.shape[0])
                self._order = local[kept].reshape(at.size, rows.shape[0])
        return self._order


def fit_tree(columns: SortedColumns, pseudo, spec: LearnerSpec) -> TreeLearner:
    """Exact greedy tree on columns.X[:, columns.features], its one training input.

    columns sorts only when a tree asks for its arrays, and trees fitted to
    the same columns share that one order. A root too small to split never
    asks: _grow gets it without arrays, as any unsearched node, and makes it
    the mean leaf (_mean, the rule of every leaf and constant).
    """
    n, p = columns.X.shape
    pseudo = _check_pseudo(pseudo, n)
    cols, order = columns.arrays() if _searched(n, 0, spec) else (None, None)
    # _best_split's per-tree constants: the flat view of cols, each feature's
    # offset in it, and the sizes 0..n as exact floats
    consts = None if cols is None else (
        cols.ravel(), np.arange(0, cols.size, n)[:, None], np.arange(n + 1, dtype=float))
    side = np.empty(n, dtype=bool)   # scratch: split side of each row
    root = _grow(cols, pseudo, columns.features, spec, consts, side, np.arange(n), order, 0)
    return TreeLearner(root=root, n_features=p)


def _searched(n: int, depth: int, spec: LearnerSpec) -> bool:
    """Whether a node of n rows at depth looks for a split."""
    return depth < spec.tree_max_depth and n >= max(spec.tree_min_parent, 2 * spec.tree_min_child)


def _grow(cols, pseudo, feats, spec: LearnerSpec, consts, side, rows, idx, depth) -> TreeNode:
    """Grow the node holding rows, in ascending order.

    idx is the node's (F, n) rows sorted per feature, or None for a node that
    is not searched (_searched is false), which is a leaf. A searched child's
    idx is one np.compress of its parent's idx by the flattened side mask,
    the stable partition; a child that will be a leaf gets none, and when
    neither child is searched the side mask is not built either. consts are
    the tree's constants for _best_split (None when the root is not
    searched), and side is scratch space for the split side of each row.
    Both are passed down, not kept in module state, so fits may run in
    threads. A module-level function rather than a closure: a recursive
    closure is a reference cycle that would hold each tree's arrays until
    the cycle collector runs.
    """
    y = pseudo[rows]
    found = None if idx is None else _best_split(consts, pseudo, y, idx, spec.tree_min_child)
    if found is None:
        return TreeLeaf(_mean(y))
    j, thr = found
    go_left = cols[j].take(rows) < thr
    on_left = None      # side[idx] flattened, built for the first child searched
    children = []
    for part, to_left in ((rows[go_left], True), (rows[~go_left], False)):
        sub = None
        if _searched(part.shape[0], depth + 1, spec):
            if on_left is None:
                side[rows] = go_left
                on_left = side[idx].ravel()
            keep = on_left if to_left else ~on_left
            sub = idx.compress(keep).reshape(len(feats), part.shape[0])
        children.append(_grow(cols, pseudo, feats, spec, consts, side, part, sub, depth + 1))
    return TreeSplit(feature=feats[j], threshold=thr, left=children[0], right=children[1])


def _best_split(consts, pseudo, y, idx, min_child):
    """Exact greedy scan over all features and midpoints of one node at once.

    consts are fit_tree's per-tree constants: flat = cols.ravel(), a view of
    the tree's C-contiguous (F, N) feature-major matrix, offsets = each
    feature's f * N as an (F, 1) column, and sizes = np.arange(N + 1) as
    floats. idx is the node's (F, n) rows sorted per feature and y the
    node's pseudo-responses in row order. The cumulative sums run over all n
    sorted rows, since the last one is the node total, but gains are scored
    only on the window of cuts that leave min_child rows on each side: after
    sorted position i for i in [min_child - 1, n - min_child). Only that
    window's sorted values are gathered, as one take from flat at idx plus
    offsets: the same gather as take_along_axis at less than half its cost.
    The gain cl²/m + (T - cl)²/(n - m) - T²/n is computed in place in that
    operation order, with m and n - m read off sizes, a slice and a reversed
    slice of exact integers, so the divisions keep their bits; T²/n stays,
    because the per-feature totals differ in the last bits. A cut between
    equal values, or next to a NaN, gets gain -inf from one np.putmask. The
    row-major argmax of the (F, window) gains resolves equal gains to the
    lower feature index first and the lower threshold second. Returns (local
    feature index, threshold) or None when no split has positive gain.
    """
    flat, offsets, sizes = consts
    n = idx.shape[1]
    lo, hi = min_child - 1, n - min_child
    csum = pseudo.take(idx).cumsum(axis=1)
    total = csum[:, -1:]
    xs = flat.take(idx[:, lo : hi + 1] + offsets)
    cl = csum[:, lo:hi]
    gains = cl * cl
    gains /= sizes[lo + 1 : hi + 1]                 # the left sizes m
    right = total - cl
    right *= right
    right /= sizes[n - lo - 1 : n - hi - 1 : -1]    # n - m
    gains += right
    gains -= total * total / n
    np.putmask(gains, ~(xs[:, :-1] < xs[:, 1:]), -np.inf)
    best_j, best_i = divmod(int(gains.argmax()), hi - lo)
    best_gain = float(gains[best_j, best_i])
    floor = 1e-12 * (float((y * y).sum()) + 1e-300)
    if not math.isfinite(best_gain) or best_gain <= floor:
        return None
    below, above = float(xs[best_j, best_i]), float(xs[best_j, best_i + 1])
    thr = 0.5 * (below + above)
    if not below < thr <= above:    # next to -inf, on overflow or between adjacent floats
        thr = above
    return best_j, thr


def fit_learner(columns: SortedColumns, pseudo, spec: LearnerSpec) -> FittedLearner:
    """Fit the learner kind of spec to pseudo on columns; a constant reads only pseudo."""
    if spec.kind == "constant":
        return fit_constant(pseudo)
    if spec.kind == "linear":
        return fit_linear(columns, pseudo, spec)
    return fit_tree(columns, pseudo, spec)
