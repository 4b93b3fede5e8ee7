"""Base learners fitted to pseudo-responses inside the boosting loop.

Three kinds: a constant (mean of the pseudo-response), a ridge-stabilized
linear model, and an exact greedy regression tree grown on squared error.
Learners are fitted on a feature subsample but store global column indices,
so prediction always takes full-width feature matrices.

Tree details that the rest of the package depends on:
  - split thresholds are midpoints between consecutive distinct sorted values,
  - rows with x[feature] < threshold go left,
  - candidate splits must leave tree_min_child rows on each side and nodes
    with fewer than tree_min_parent rows are never split,
  - ties in gain break toward the lower feature index, then lower threshold,
  - zero-gain splits are not made, so a constant pseudo-response yields a
    single leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DataError

LEARNER_KINDS = ("constant", "linear", "tree")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str = "tree"
    tree_max_depth: int = 3
    tree_min_parent: int = 10
    tree_min_child: int = 5
    ridge_epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner kind {self.kind!r}")
        if self.tree_max_depth < 1:
            raise ConfigError("tree_max_depth must be at least 1")
        if self.tree_min_parent < 2:
            raise ConfigError("tree_min_parent must be at least 2")
        if self.tree_min_child < 1:
            raise ConfigError("tree_min_child must be at least 1")
        if not np.isfinite(self.ridge_epsilon):
            raise ConfigError("ridge_epsilon must be finite")
        if self.ridge_epsilon < 0:
            raise ConfigError("ridge_epsilon must be nonnegative")


@dataclass(frozen=True)
class ConstantLearner:
    value: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataError("feature matrix must be 2-dimensional")
        return np.full(X.shape[0], self.value)

    def split_counts(self, p: int) -> np.ndarray:
        return np.zeros(p)


@dataclass(frozen=True)
class LinearLearner:
    features: tuple[int, ...]   # global column indices
    coef: np.ndarray            # aligned with features
    intercept: float
    n_features: int             # width of the full feature matrix at fit time

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} feature columns, got matrix of shape {X.shape}"
            )
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} feature columns, got matrix of shape {X.shape}"
            )
        out = np.empty(X.shape[0])
        _tree_fill(self.root, X, np.arange(X.shape[0]), out)
        return out

    def split_counts(self, p: int) -> np.ndarray:
        counts = np.zeros(p)
        _count_splits(self.root, counts)
        return counts

    def depth(self) -> int:
        return _node_depth(self.root)


def _tree_fill(node: TreeNode, X, rows, out) -> None:
    if isinstance(node, TreeLeaf):
        out[rows] = node.value
        return
    go_left = X[rows, node.feature] < node.threshold
    _tree_fill(node.left, X, rows[go_left], out)
    _tree_fill(node.right, X, rows[~go_left], out)


def _count_splits(node: TreeNode, counts) -> None:
    if isinstance(node, TreeSplit):
        counts[node.feature] += 1.0
        _count_splits(node.left, counts)
        _count_splits(node.right, counts)


def _node_depth(node: TreeNode) -> int:
    if isinstance(node, TreeLeaf):
        return 0
    return 1 + max(_node_depth(node.left), _node_depth(node.right))


FittedLearner = Union[ConstantLearner, LinearLearner, TreeLearner]


def _check_training_inputs(X, pseudo):
    X = np.asarray(X, dtype=float)
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.ndim != 1 or pseudo.shape[0] == 0:
        raise DataError("pseudo-response must be a nonempty vector")
    if X.ndim != 2 or X.shape[0] != pseudo.shape[0]:
        raise DataError("feature matrix must have one row per pseudo-response")
    return X, pseudo


def fit_constant(pseudo: np.ndarray) -> ConstantLearner:
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.ndim != 1 or pseudo.shape[0] == 0:
        raise DataError("pseudo-response must be a nonempty vector")
    return ConstantLearner(value=float(np.mean(pseudo)))


def fit_linear(X, pseudo, features: Sequence[int], spec: LearnerSpec) -> LinearLearner:
    """Least squares of pseudo on X[:, features] plus an intercept.

    The normal equations get spec.ridge_epsilon added to the Gram diagonal;
    with a zero epsilon a rank-deficient system falls back to the minimum
    norm solution.
    """
    X, pseudo = _check_training_inputs(X, pseudo)
    feats = sorted(int(f) for f in features)
    _check_feature_range(feats, X.shape[1])
    D = np.column_stack([X[:, feats], np.ones(X.shape[0])])
    A = D.T @ D + spec.ridge_epsilon * np.eye(D.shape[1])
    b = D.T @ pseudo
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(A, b, rcond=None)[0]
    return LinearLearner(
        features=tuple(feats),
        coef=beta[:-1],
        intercept=float(beta[-1]),
        n_features=X.shape[1],
    )


def _check_feature_range(feats, p):
    if len(feats) == 0:
        raise ConfigError("need at least one feature")
    if len(set(feats)) != len(feats):
        raise ConfigError("duplicate feature indices")
    if feats[0] < 0 or feats[-1] >= p:
        raise ConfigError(f"feature index out of range for {p} columns")


def fit_tree(X, pseudo, features: Sequence[int], spec: LearnerSpec) -> TreeLearner:
    X, pseudo = _check_training_inputs(X, pseudo)
    feats = sorted(int(f) for f in features)
    _check_feature_range(feats, X.shape[1])
    Xn = X[:, feats]
    root = _grow(Xn, pseudo, np.asarray(feats, dtype=np.int64), 0, spec)
    return TreeLearner(root=root, n_features=X.shape[1])


def _grow(Xn, y, feats, depth, spec: LearnerSpec) -> TreeNode:
    n = y.shape[0]
    value = float(np.mean(y))
    if depth >= spec.tree_max_depth or n < spec.tree_min_parent or n < 2 * spec.tree_min_child:
        return TreeLeaf(value)
    found = _best_split(Xn, y, spec.tree_min_child)
    if found is None:
        return TreeLeaf(value)
    j, thr = found
    go_left = Xn[:, j] < thr
    left = _grow(Xn[go_left], y[go_left], feats, depth + 1, spec)
    right = _grow(Xn[~go_left], y[~go_left], feats, depth + 1, spec)
    return TreeSplit(feature=int(feats[j]), threshold=thr, left=left, right=right)


def _best_split(Xn, y, min_child):
    """Exact greedy scan over all features and midpoints at once.

    Gains live in an (n-1, F) matrix; the argmax is taken in column-major
    order so equal gains resolve to the lower feature index first and the
    lower threshold second. Returns (local feature index, threshold) or None
    when no split has positive gain.
    """
    n, F = Xn.shape
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1]
    m = np.arange(1, n, dtype=float)[:, None]     # left-child sizes
    cl = csum[:-1]
    gains = cl**2 / m + (total - cl) ** 2 / (n - m) - total**2 / n
    valid = xs[:-1] < xs[1:]
    if min_child > 1:
        lo = min_child - 1
        hi = n - min_child
        valid[:lo] = False
        valid[hi:] = False
    gains = np.where(valid, gains, -np.inf)
    flat = np.argmax(gains.ravel(order="F"))
    best_j, best_i = divmod(int(flat), n - 1)
    best_gain = gains[best_i, best_j]
    floor = 1e-12 * (float(np.sum(y * y)) + 1e-300)
    if not np.isfinite(best_gain) or best_gain <= floor:
        return None
    thr = 0.5 * (xs[best_i, best_j] + xs[best_i + 1, best_j])
    return best_j, float(thr)


def fit_learner(X, pseudo, features: Sequence[int], spec: LearnerSpec) -> FittedLearner:
    if spec.kind == "constant":
        return fit_constant(pseudo)
    if spec.kind == "linear":
        return fit_linear(X, pseudo, features, spec)
    return fit_tree(X, pseudo, features, spec)
