"""Base learners: exact fits on crafted data plus behavioral invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed import learners
from gbmixed.errors import ConfigError
from gbmixed.learners import (
    BinnedColumns,
    ConstantLearner,
    LearnerSpec,
    TreeLeaf,
    TreeLearner,
    TreeSplit,
    fit_constant,
    fit_learner,
    fit_linear,
    fit_tree,
)
from util import reference_cuts, reference_tree, tree_depth


def tree_spec(**kw):
    defaults = dict(kind="tree", tree_max_depth=3, tree_min_parent=2, tree_min_child=1)
    defaults.update(kw)
    return LearnerSpec(**defaults)


def collect_splits(node, out):
    if isinstance(node, TreeSplit):
        out.append((node.feature, node.threshold))
        collect_splits(node.left, out)
        collect_splits(node.right, out)
    return out


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LearnerSpec(kind="forest")
        with pytest.raises(ConfigError):
            LearnerSpec(tree_max_depth=0)
        with pytest.raises(ConfigError):
            LearnerSpec(tree_min_parent=1)
        with pytest.raises(ConfigError):
            LearnerSpec(tree_min_child=0)
        for field in ("tree_max_depth", "tree_min_parent", "tree_min_child"):
            for value in (2.5, True):
                with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                    LearnerSpec(**{field: value})


class TestConstant:
    def test_fits_mean(self):
        learner = fit_constant(np.array([1.0, 2.0, 6.0]))
        assert learner.value == pytest.approx(3.0)
        np.testing.assert_allclose(learner.predict(np.zeros((4, 2))), np.full(4, 3.0))

    def test_no_splits(self):
        np.testing.assert_array_equal(ConstantLearner(1.0).split_counts(3), np.zeros(3))


def ridge_closed_form(X, y):
    """solve(D'D + RIDGE_EPSILON I, D'y) for D = [X, 1]: (coefficients, intercept)."""
    D = np.column_stack([X, np.ones(len(X))])
    beta = np.linalg.solve(D.T @ D + learners.RIDGE_EPSILON * np.eye(D.shape[1]), D.T @ y)
    return beta[:-1], beta[-1]


class TestLinear:
    def test_two_point_exact(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 3.0])
        learner = fit_linear(BinnedColumns(X, (0,)), y)
        coef, intercept = ridge_closed_form(X, y)
        assert np.array_equal(learner.coef, coef) and learner.intercept == intercept

    def test_global_indices_survive_subsampling(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 4))
        y = 3.0 * X[:, 2] - 1.0
        learner = fit_linear(BinnedColumns(X, (2, 0)), y)
        assert learner.features == (0, 2)
        coef, intercept = ridge_closed_form(X[:, [0, 2]], y)
        assert np.array_equal(learner.coef, coef) and learner.intercept == intercept
        counts = learner.split_counts(4)
        assert counts[2] > 0 and counts[1] == 0 and counts[3] == 0

    def test_collinear_falls_back(self):
        """A duplicated column at scale 1e5 leaves the ridged Gram matrix singular to
        np.linalg.solve, so the fit is lstsq's minimum norm solution."""
        x = 1e5 * np.random.default_rng(0).uniform(0.0, 1.0, 50)
        X = np.column_stack([x, x])
        y = 0.5 * x + 2.0
        D = np.column_stack([X, np.ones(50)])
        A, b = D.T @ D + learners.RIDGE_EPSILON * np.eye(3), D.T @ y
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(A, b)
        learner = fit_linear(BinnedColumns(X, (0, 1)), y)
        beta = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.array_equal(learner.coef, beta[:-1]) and learner.intercept == beta[-1]
        np.testing.assert_allclose(learner.predict(X), y, atol=1e-8)


class TestTree:
    def test_single_split_recovery(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
        learner = fit_tree(BinnedColumns(X, (0,)), y, tree_spec())
        splits = collect_splits(learner.root, [])
        assert splits == [(0, 0.5)]
        np.testing.assert_allclose(learner.predict(X), y)

    def test_constant_pseudo_single_leaf(self):
        X = np.arange(10.0)[:, None]
        learner = fit_tree(BinnedColumns(X, (0,)), np.full(10, 2.5), tree_spec())
        assert isinstance(learner.root, TreeLeaf)
        assert learner.root.value == pytest.approx(2.5)

    def test_tie_breaks_lower_feature(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])     # identical gains in both columns
        y = np.array([0.0, 0.0, 1.0, 1.0])
        learner = fit_tree(BinnedColumns(X, (0, 1)), y, tree_spec(tree_max_depth=1))
        splits = collect_splits(learner.root, [])
        assert splits == [(0, 2.5)]

    def test_tie_breaks_lower_threshold(self):
        # gains at the first and last cut are equal by symmetry
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        learner = fit_tree(BinnedColumns(X, (0,)), y, tree_spec(tree_max_depth=1))
        splits = collect_splits(learner.root, [])
        assert splits == [(0, 1.5)]

    def test_global_feature_indices(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 5))
        y = np.where(X[:, 3] < 0.0, -2.0, 2.0)
        learner = fit_tree(BinnedColumns(X, (3, 4)), y, tree_spec(tree_max_depth=1))
        splits = collect_splits(learner.root, [])
        assert splits[0][0] == 3
        counts = learner.split_counts(5)
        assert counts[3] == 1.0 and counts.sum() == 1.0

    def test_min_parent_blocks_split(self):
        X = np.arange(6.0)[:, None]
        y = np.array([0.0, 0.0, 0.0, 9.0, 9.0, 9.0])
        learner = fit_tree(BinnedColumns(X, (0,)), y, tree_spec(tree_min_parent=7))
        assert isinstance(learner.root, TreeLeaf)

    def test_min_child_restricts_cuts(self):
        X = np.arange(10.0)[:, None]
        y = np.array([0.0] * 2 + [5.0] * 8)    # best unrestricted cut is at 2 rows
        learner = fit_tree(
            BinnedColumns(X, (0,)), y, tree_spec(tree_min_child=5, tree_max_depth=1)
        )
        splits = collect_splits(learner.root, [])
        assert splits == [(0, 4.5)]    # forced to the 5/5 cut

    def test_max_depth_bound(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 3))
        y = rng.standard_normal(200)
        for depth in (1, 2, 3):
            learner = fit_tree(BinnedColumns(X, (0, 1, 2)), y, tree_spec(tree_max_depth=depth))
            assert tree_depth(learner.root) <= depth

    def test_duplicate_values_never_split_between(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([0.0, 5.0, 0.0, 5.0])
        learner = fit_tree(BinnedColumns(X, (0,)), y, tree_spec())
        for f, thr in collect_splits(learner.root, []):
            assert thr == pytest.approx(1.5)

    def test_thresholds_are_midpoints(self):
        # every threshold is one of its column's cuts: the midpoint of two adjacent
        # distinct values of the whole column, with rows of the node on both sides
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 2))
        y = rng.standard_normal(100)
        learner = fit_tree(BinnedColumns(X, (0, 1)), y, tree_spec())
        vals = [np.unique(X[:, f]) for f in range(2)]

        def walk(node, rows):
            if isinstance(node, TreeLeaf):
                return
            assert node.threshold in reference_cuts(X[:, node.feature])
            assert node.threshold in 0.5 * (vals[node.feature][:-1] + vals[node.feature][1:])
            go_left = X[rows, node.feature] < node.threshold
            assert 0 < go_left.sum() < rows.size
            walk(node.left, rows[go_left])
            walk(node.right, rows[~go_left])

        walk(learner.root, np.arange(100))

    @pytest.mark.parametrize("below,above", [
        (-np.inf, 1.0),                      # midpoint -inf: x < -inf holds for no row
        (-np.inf, np.inf),                   # midpoint nan
        (1e308, 1.7e308),                    # the sum overflows to inf
        (1.0, np.nextafter(1.0, 2.0)),       # the midpoint rounds down to 1.0
    ])
    def test_threshold_separates_the_two_values(self, below, above):
        X = np.array([[below], [below], [above], [above]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(BinnedColumns(X, (0,)), y, tree_spec(tree_max_depth=1)).root
        assert below < root.threshold <= above
        assert (root.left.value, root.right.value) == (0.0, 1.0)

    def test_a_power_of_two_scales_the_leaves_and_keeps_the_splits(self):
        # the squared sums of y * 2**600 overflow unless the search scales y back by a
        # power of two; the leaves are means of the unscaled values
        rng = np.random.default_rng(4)
        X = rng.standard_normal((300, 3))
        y = np.sin(3.0 * X[:, 0]) + rng.standard_normal(300)
        spec = tree_spec(tree_min_child=5, tree_min_parent=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = fit_tree(BinnedColumns(X, (0, 1, 2)), y, spec)
            for factor in (2.0**600, 2.0**-600):
                got = fit_tree(BinnedColumns(X, (0, 1, 2)), y * factor, spec)
                assert collect_splits(got.root, []) == collect_splits(base.root, [])
                assert np.array_equal(got.predict(X), base.predict(X) * factor)
        assert len(collect_splits(base.root, [])) == 7

    def test_a_cut_after_an_empty_bin_never_wins(self):
        # a parent-minus-sibling histogram can leave a rounding residue in a bin that
        # holds no row; the cut after that bin splits the node as the cut before it
        # does, and must not win on the residue
        hist = np.zeros((2, 1, learners.BINS))
        hist[0, 0, :3] = 3.0, 2.0**-50, -3.0    # sums of the scaled pseudo-responses
        hist[1, 0, :3] = 5, 0, 5                # counts
        y = np.repeat([0.6, -0.6], 5)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert learners._best_split(hist, y, 1) == (0, 0)


class TestDispatcher:
    def test_kinds(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        columns = BinnedColumns(X, (0, 1))
        assert isinstance(fit_learner(columns, y, LearnerSpec(kind="constant")), ConstantLearner)
        assert fit_learner(columns, y, LearnerSpec(kind="linear")).features == (0, 1)
        assert isinstance(fit_learner(columns, y, tree_spec()), TreeLearner)

    def test_feature_validation(self):
        feats = BinnedColumns(np.zeros((5, 2)), np.array([1, 0])).features
        assert feats == (0, 1) and all(type(f) is int for f in feats)


def oracle_case(rng, kind, n, p):
    """A feature matrix of one kind and a pseudo-response with heavy ties."""
    if kind == "ties":
        X = rng.integers(0, 4, size=(n, p)) * 0.25 + rng.standard_normal(p)
    elif kind == "integers":
        X = rng.integers(-50, 50, size=(n, p)).astype(float)
    elif kind == "duplicates":
        base = rng.standard_normal((n, 2))
        X = base[:, rng.integers(0, 2, size=p)]     # every column a copy of one of two
    elif kind == "pairs":
        # matched pairs: consecutive rows share every feature but one binary
        # column, so about half the neighbours in each sorted column are tied
        X = np.repeat(rng.standard_normal(((n + 1) // 2, p)), 2, axis=0)[:n]
        first = rng.integers(0, 2, size=(n + 1) // 2)
        X[:, rng.integers(0, p)] = np.column_stack([first, 1 - first]).ravel()[:n]
    elif kind == "same_partition":
        # columns that split the rows alike at 0 but order each side differently
        x = rng.standard_normal(n)
        u = rng.random((n, p))
        X = np.where(x[:, None] > 0, 1.0 + u, -1.0 - u)
        X[:, 0] = x
    elif kind == "coarsened":
        # tied levels and coarser copies of them: the same partitions reached
        # through different orders within each side
        level = rng.integers(0, 6, size=n).astype(float)
        cuts = rng.integers(1, 6, size=p)
        X = (level[:, None] >= cuts).astype(float) + (level[:, None] // 3)
        X[:, 0] = level
        return X, rng.standard_normal(n) + level
    else:
        X = rng.standard_normal((n, p))
    y = np.round(rng.standard_normal(n), 1) + 0.3 * (X[:, 0] > np.median(X[:, 0]))
    return X, y


class TestTreeOracle:
    """fit_tree against the brute-force scan of every node over the same cuts, compared with ==."""

    @pytest.mark.parametrize(
        "kind", ["ties", "integers", "duplicates", "pairs", "same_partition", "coarsened",
                 "continuous"]
    )
    @pytest.mark.parametrize("min_child", [1, 5, 20])
    def test_equal_to_per_node_sort(self, kind, min_child):
        rng = np.random.default_rng(min_child * 7 + len(kind))
        for _ in range(6):
            n = int(rng.integers(2, 300))
            p = int(rng.integers(2, 7))
            X, y = oracle_case(rng, kind, n, p)
            k = int(rng.integers(1, p + 1))
            feats = tuple(int(f) for f in rng.choice(p, size=k, replace=False))
            for depth in (1, 2, 3, 4):
                spec = tree_spec(
                    tree_max_depth=depth,
                    tree_min_child=min_child,
                    tree_min_parent=max(2, 2 * min_child),
                )
                got = fit_tree(BinnedColumns(X, feats), y, spec)
                assert got == reference_tree(X, y, feats, spec)

    def test_subsets_not_starting_at_zero(self):
        rng = np.random.default_rng(11)
        X, y = oracle_case(rng, "ties", 200, 6)
        spec = tree_spec(tree_max_depth=4)
        for feats in [(1, 2), (3, 5), (5,), (2, 4, 5)]:
            got = fit_tree(BinnedColumns(X, feats), y, spec)
            assert got == reference_tree(X, y, feats, spec)
            assert got.split_counts(6)[: min(feats)].sum() == 0.0

    def test_constant_response(self):
        rng = np.random.default_rng(12)
        X, _ = oracle_case(rng, "ties", 50, 3)
        y = np.full(50, -1.25)
        got = fit_tree(BinnedColumns(X, (0, 1, 2)), y, tree_spec())
        assert got == reference_tree(X, y, (0, 1, 2), tree_spec())
        assert isinstance(got.root, TreeLeaf)

    def test_shared_presort_equals_own_sort(self):
        rng = np.random.default_rng(13)
        X, y = oracle_case(rng, "duplicates", 150, 5)
        feats = (1, 3, 4)
        shared = BinnedColumns(X, feats)
        spec = tree_spec(tree_max_depth=3, tree_min_child=5, tree_min_parent=10)
        for target in (y, -2.0 * y, np.sin(X[:, 2])):
            assert fit_tree(shared, target, spec) == fit_tree(BinnedColumns(X, feats), target, spec)

    def test_sort_is_lazy(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        shared = BinnedColumns(X, (0, 1))
        fit_learner(shared, y, LearnerSpec(kind="constant"))
        fit_learner(shared, y, LearnerSpec(kind="linear"))
        assert shared._codes is None
        fit_learner(shared, y, tree_spec())
        assert shared._codes is not None


class TestUnsplittableRoot:
    """A root too small to split is the mean leaf and bins nothing."""

    @pytest.mark.parametrize("spec", [
        tree_spec(tree_min_parent=9, tree_min_child=1),    # n < min_parent
        tree_spec(tree_min_parent=2, tree_min_child=5),    # n < 2 * min_child
    ])
    def test_mean_leaf_without_a_sort(self, monkeypatch, spec):
        binned = []
        monkeypatch.setattr(learners, "_bin", lambda cols: binned.append(cols))
        rng = np.random.default_rng(41)
        X, y = rng.standard_normal((8, 3)), rng.standard_normal(8)
        restricted = BinnedColumns(rng.standard_normal((20, 3)), (0, 1, 2)).restrict(
            np.arange(0, 16, 2), (0, 2))
        for got in (fit_tree(BinnedColumns(X, (0, 2)), y, spec),
                    fit_tree(restricted, y, spec)):
            assert got == TreeLearner(root=TreeLeaf(float(np.mean(y))))
            assert got == reference_tree(X, y, (0, 2), spec)
        assert binned == [] and restricted._codes is None


SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 0.5])


@settings(max_examples=250)
@given(
    min_child=st.integers(min_value=1, max_value=12),
    size=st.sampled_from(["below", "at", "above", "random"]),
    max_depth=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_min_child_window_edges_and_special_values(min_child, size, max_depth, seed):
    """fit_tree equals the per-node oracle at root sizes 2*min_child - 1, 2*min_child
    and 2*min_child + 1 and at random sizes, on features holding NaN, +-inf,
    -0.0 next to 0.0 and ties, so that cuts at both ends of the window and
    roots that cannot split are all reached."""
    rng = np.random.default_rng(seed)
    edge = {"below": -1, "at": 0, "above": 1}
    n = 2 * min_child + edge[size] if size in edge else int(rng.integers(2 * min_child, 120))
    p = int(rng.integers(1, 5))
    X = rng.standard_normal((n, p))
    special = rng.random((n, p)) < rng.random()
    X[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    tied = rng.random(p) < 0.5
    X[:, tied] = np.round(X[:, tied])
    y = np.round(rng.standard_normal(n), 1) + (X[:, 0] > 0)
    feats = tuple(int(f) for f in rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
    spec = tree_spec(
        tree_max_depth=max_depth,
        tree_min_child=min_child,
        tree_min_parent=int(rng.integers(2, 2 * min_child + 3)),
    )
    assert fit_tree(BinnedColumns(X, feats), y, spec) == reference_tree(X, y, feats, spec)


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["ties", "duplicates", "pairs", "same_partition", "coarsened"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_restricted_order_is_the_stable_argsort(kind, seed):
    """A restriction keeps its parent's cuts and gathers the parent's codes at its
    rows and features, in any row order, repeats, ties and signed zeros included,
    and grows the tree that the brute-force oracle grows over those cuts."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 200))
    p = int(rng.integers(1, 6))
    X, y = oracle_case(rng, kind, N, p)
    zeros = rng.random(X.shape) < 0.3
    X[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    rows = np.sort(rng.choice(N, size=int(rng.integers(1, N + 1)), replace=False))
    feats = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
    held = np.union1d(feats, rng.choice(p, size=int(rng.integers(0, p + 1)), replace=False))

    cuts, codes = BinnedColumns(X, held).binned()
    for row, f in zip(cuts, held):
        assert np.array_equal(row[row > -np.inf], reference_cuts(X[:, f]))
    at = np.searchsorted(held, np.sort(feats))
    spec = tree_spec(tree_max_depth=3, tree_min_child=2, tree_min_parent=4)
    for picked in (rows, rows[::-1], np.append(rows, rows[-1])):
        sub = BinnedColumns(X, held).restrict(picked, feats)
        assert np.array_equal(sub.X, X[picked])
        got_cuts, got_codes = sub.binned()
        assert np.array_equal(got_cuts, cuts[at])
        assert np.array_equal(got_codes, codes[at][:, picked])
        assert fit_tree(sub, y[picked], spec) == reference_tree(X[picked], y[picked], feats, spec,
                                                                 got_cuts)


def awkward_column(rng, distinct, n):
    """n >= distinct entries over exactly distinct non-NaN values, led by 0.0, -inf,
    +inf and a run of adjacent floats, with -0.0 for some zeros and some NaN."""
    lead = [0.0, -np.inf, np.inf, 1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0),
            5e-324]
    pool = np.concatenate([lead, np.setdiff1d(rng.standard_normal(distinct), lead)])
    x = pool[:distinct][np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])]
    x[distinct:][rng.random(n - distinct) < 0.1] = np.nan     # every value keeps one entry
    x[(x == 0.0) & (rng.random(n) < 0.5)] = -0.0
    return rng.permutation(x)


@settings(max_examples=80)
@given(
    distinct=st.sampled_from([2, 5, learners.BINS - 1, learners.BINS, 300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_rows_code_side_is_its_threshold_side(distinct, seed):
    """Every row is below a cut exactly when its code is at most the cut's index, and
    a fitted tree's rows reach, by x < threshold, the leaves the code partition gave
    them. boosting.fit's cache update walks raw X, so it must land every training row
    in the leaf that was fitted on it: NaN, +-inf, -0.0 next to 0.0, adjacent floats
    and features with BINS - 1 and BINS distinct values included."""
    rng = np.random.default_rng(seed)
    n = distinct + int(rng.integers(0, 200))
    X = np.column_stack([awkward_column(rng, distinct, n) for _ in range(3)])
    y = rng.standard_normal(n) + np.nan_to_num(X[:, 0], posinf=3.0, neginf=-3.0) % 1.0
    columns = BinnedColumns(X, (0, 1, 2))
    cuts, codes = columns.binned()
    for f in range(3):
        assert (cuts[f] > -np.inf).sum() == min(distinct, learners.BINS) - 1
        assert np.all(codes[f, np.isnan(X[:, f])] == learners.BINS - 1)
        for k, c in enumerate(cuts[f]):
            assert np.array_equal(X[:, f] < c, codes[f] <= k)
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    sub = columns.restrict(rows, (0, 1, 2))
    spec = tree_spec(tree_max_depth=4, tree_min_child=int(rng.integers(1, 4)))
    tree = fit_tree(sub, y[rows], spec)
    sub_codes = sub.binned()[1]
    fitted = tree.predict(X[rows])

    def walk(node, at):
        if isinstance(node, TreeLeaf):
            assert np.array_equal(fitted[at], np.full(at.size, node.value))
            assert node.value == np.mean(y[rows][at])
            return
        k = int(np.flatnonzero(cuts[node.feature] == node.threshold)[0])
        by_code = sub_codes[node.feature, at] <= k
        assert np.array_equal(X[rows[at], node.feature] < node.threshold, by_code)
        walk(node.left, at[by_code])
        walk(node.right, at[~by_code])

    walk(tree.root, np.arange(rows.size))

def columns_of(how, features):
    """BinnedColumns of features over a 6 x 3 matrix, built directly or by restrict."""
    X = np.arange(18.0).reshape(6, 3)
    if how == "construct":
        return BinnedColumns(X, features)
    return BinnedColumns(X, range(3)).restrict(np.arange(1, 5), features)


@pytest.mark.parametrize("how", ["construct", "restrict"])
@pytest.mark.parametrize("features", [np.array([2, 0]), np.array([2, 0], dtype=np.uint8),
                                      np.array([1], dtype=np.int32)], ids=repr)
def test_an_integer_array_gives_the_features_of_its_tuple(how, features):
    want = columns_of(how, tuple(features.tolist())).features
    got = columns_of(how, features).features
    assert got == want == tuple(sorted(features.tolist()))
    assert all(type(f) is int for f in got)


def reference_predict(tree, X):
    """The recursive row gather that TreeLearner.predict replaced.

    Every split gathers its rows' feature values and compresses the row
    index array into its two children; leaves scatter their value. It is the
    oracle for the branch-free evaluation: both must agree bit for bit.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    _reference_fill(tree.root, X, np.arange(X.shape[0]), out)
    return out


def _reference_fill(node, X, rows, out):
    if isinstance(node, TreeLeaf):
        out[rows] = node.value
        return
    go_left = X[rows, node.feature] < node.threshold
    _reference_fill(node.left, X, rows[go_left], out)
    _reference_fill(node.right, X, rows[~go_left], out)


THRESHOLDS = (-1.5, -0.25, 0.0, 0.5, 2.0)


def random_tree(rng, depth, p):
    """A tree of exactly this depth: the first child on a random side of every
    split is grown to full depth, the other stops early at random."""
    if depth == 0:
        return TreeLeaf(float(rng.standard_normal()))
    deep = random_tree(rng, depth - 1, p)
    other = random_tree(rng, int(rng.integers(0, depth)), p)
    left, right = (deep, other) if rng.random() < 0.5 else (other, deep)
    return TreeSplit(
        feature=int(rng.integers(0, p)),
        threshold=float(rng.choice(THRESHOLDS)),
        left=left,
        right=right,
    )


def awkward_rows(rng, n, p):
    """Normal draws mixed with NaN, +-inf, -0.0 and values exactly at thresholds."""
    X = rng.standard_normal((n, p))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, *THRESHOLDS])
    mask = rng.random((n, p)) < 0.3
    X[mask] = rng.choice(special, size=int(mask.sum()))
    return X


class TestTreePrediction:
    """TreeLearner.predict against the recursive row gather, compared with ==."""

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_random_trees_equal_reference(self, depth):
        rng = np.random.default_rng(depth)
        p = 4
        for _ in range(3):
            tree = TreeLearner(root=random_tree(rng, depth, p))
            assert tree_depth(tree.root) == depth
            for n in (0, 1, 2000):
                X = awkward_rows(rng, n, p)
                got = tree.predict(X)
                assert got.shape == (n,)
                assert np.array_equal(got, reference_predict(tree, X))
                assert np.array_equal(tree.predict(X, np.ascontiguousarray(X.T)), got)

    @pytest.mark.parametrize("depth", [1, 2, 5, 8])
    def test_fitted_trees_equal_reference(self, depth):
        rng = np.random.default_rng(20 + depth)
        X, y = oracle_case(rng, "ties", 600, 5)
        tree = fit_tree(BinnedColumns(X, range(5)), y, tree_spec(tree_max_depth=depth))
        Xnew = np.vstack([X, awkward_rows(rng, 300, 5)])
        assert np.array_equal(tree.predict(Xnew), reference_predict(tree, Xnew))

    def test_root_leaf(self):
        tree = TreeLearner(root=TreeLeaf(-0.75))
        for n in (0, 1, 7):
            X = awkward_rows(np.random.default_rng(n), n, 2)
            assert np.array_equal(tree.predict(X), np.full(n, -0.75))
            assert np.array_equal(tree.predict(X), reference_predict(tree, X))

    def test_nan_goes_right_and_threshold_is_strict(self):
        stump = TreeLearner(
            root=TreeSplit(feature=1, threshold=0.5, left=TreeLeaf(1.0), right=TreeLeaf(2.0)),
        )
        X = np.array([[0.0, np.nan], [0.0, 0.5], [0.0, np.nextafter(0.5, 0.0)],
                      [0.0, -np.inf], [0.0, np.inf], [0.0, -0.0]])
        assert np.array_equal(stump.predict(X), [2.0, 2.0, 1.0, 1.0, 2.0, 1.0])

    def test_memory_layouts_and_integer_input(self):
        rng = np.random.default_rng(30)
        tree = TreeLearner(root=random_tree(rng, 5, 3))
        X = awkward_rows(rng, 500, 6)
        ints = rng.integers(-3, 4, size=(400, 3))
        for Xv in (np.asfortranarray(X[:, :3]), X[::3, ::2], X[::-2, 1:4], ints):
            assert np.array_equal(tree.predict(Xv), reference_predict(tree, Xv))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_tree_invariants_property(seed):
    """A fitted tree never does worse than the constant learner in squared
    error, predicts inside the pseudo-response range, and refits identically."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    p = int(rng.integers(1, 4))
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    spec = tree_spec()
    learner = fit_tree(BinnedColumns(X, tuple(range(p))), y, spec)
    pred = learner.predict(X)
    const_se = float(np.sum((y - np.mean(y)) ** 2))
    tree_se = float(np.sum((y - pred) ** 2))
    assert tree_se <= const_se + 1e-9
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12
    again = fit_tree(BinnedColumns(X, tuple(range(p))), y, spec)
    np.testing.assert_array_equal(pred, again.predict(X))


def balanced_tree(depth, feature):
    """A full tree of this depth whose every split is on feature. Leaf k, the k-th in
    depth-first order, holds the rows with k <= x < k + 1 (leaf 0 everything below,
    the last leaf everything above and NaN) and the value k + 0.25."""
    def grow(lo, size):
        if size == 1:
            return TreeLeaf(lo + 0.25)
        half = size // 2
        return TreeSplit(feature, float(lo + half), grow(lo, half), grow(lo + half, half))
    return TreeLearner(root=grow(0, 2**depth))


def traverse(node, x):
    """The per-row reference: follow one row of X from node to its leaf's value."""
    while isinstance(node, TreeSplit):
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.value


class TestWalk:
    """_leaf_numbers and _leaf_values, with and without fixed, against traverse."""

    @pytest.mark.parametrize("depth, dtype", [(8, np.int16), (16, np.int64)])
    def test_leaf_numbers_across_the_int8_and_int16_bounds(self, depth, dtype):
        """Rows reach leaves on both sides of 127/128 and of 32 767/32 768: the
        numbers widen where the right subtree needs it, and the values stay exact."""
        tree = balanced_tree(depth, feature=1)
        last = 2**depth - 1
        ks = [k for k in (0, 1, 126, 127, 128, 129, 255, 256, 32766, 32767, 32768, 32769)
              if k <= last] + [last - 1, last]
        xs = [k + 0.5 for k in ks] + [127.0, 128.0, 32768.0, -0.0, -np.inf, np.inf, np.nan]
        X = np.column_stack([np.random.default_rng(depth).standard_normal(len(xs)), xs])
        cols = np.ascontiguousarray(X.T)
        want = np.array([traverse(tree.root, x) for x in X])

        values = []
        numbers = learners._leaf_numbers(tree.root, cols, values)
        assert numbers.dtype == dtype
        assert np.array_equal(numbers, np.floor(want))
        assert np.array_equal(learners._leaf_values(tree.root, cols), want)
        assert np.array_equal(tree.predict(X), want)
        # fixed on a feature the tree never splits on: the same walk
        assert np.array_equal(learners._leaf_values(tree.root, cols, (0, 0.3)), want)
        # fixed on the split feature at each row's own value: that row's leaf, for every row
        for x, w in zip(X, want):
            assert np.array_equal(learners._leaf_values(tree.root, cols, (1, x[1])), np.full(len(X), w))

    def test_a_tree_split_only_on_the_fixed_feature_resolves_to_one_leaf(self):
        tree = balanced_tree(3, feature=1)
        X = np.random.default_rng(5).standard_normal((6, 2))
        cols = np.ascontiguousarray(X.T)
        for v, k in [(-np.inf, 0), (-0.0, 0), (0.5, 0), (1.0, 1), (3.5, 3), (6.99, 6), (7.0, 7),
                     (np.inf, 7), (np.nan, 7)]:
            values = []
            number = learners._leaf_numbers(tree.root, cols, values, (1, v))
            assert np.ndim(number) == 0 and values == [k + 0.25]   # one leaf reached
            got = learners._leaf_values(tree.root, cols, (1, v))
            assert got.shape == (6,) and np.array_equal(got, np.full(6, k + 0.25))
