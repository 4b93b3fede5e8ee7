"""Importance and partial dependence on models with known structure, and
partial dependence against the tiled estimator as its oracle."""

from collections import Counter
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed import boosting, diagnostics, learners
from gbmixed.boosting import (
    Ensemble,
    FitConfig,
    FittedModel,
    config_for_variant,
    eval_mean,
    fit,
)
from gbmixed.data import GroupBlock, GroupedDataset
from gbmixed.diagnostics import (
    DEFAULT_GRID_SIZE,
    _default_grid,
    partial_dependence,
    variable_importance,
)
from gbmixed.errors import ConfigError, DataError
from gbmixed.learners import LearnerSpec, LinearLearner, TreeLeaf, TreeLearner, TreeSplit


def build_model(mean=(), G=([],), R=(), p=3, lr=0.5):
    """A q = 1 model with start values 0, G = 1 and r = 1, and the learners given:
    lists of them for the mean and R, a tuple of one list for G."""
    config = FitConfig(
        lr_mean=lr,
        lr_gcov=lr,
        lr_rvar=lr,
        gcov_learner=LearnerSpec(kind="constant"),
        rvar_learner=LearnerSpec(kind="constant"),
    )
    return FittedModel(
        config=config,
        feature_names=tuple(f"x{j + 1}" for j in range(p)),
        q=1,
        treatment_index=None,
        categorical_features=(),
        ensembles={
            "mean": Ensemble(np.array([0.0]), (list(mean),)),
            "G": Ensemble(np.array([1.0]), G),
            "R": Ensemble(np.array([0.0]), (list(R),)),
        },
        history=[0.0],
    )


def stump(feature, threshold=0.0, left=-1.0, right=1.0):
    return TreeLearner(
        root=TreeSplit(
            feature=feature, threshold=threshold, left=TreeLeaf(left), right=TreeLeaf(right)
        ),
    )


class TestImportance:
    def test_single_split_concentrates(self):
        model = build_model(mean=[stump(1)])
        scores = variable_importance(model, "mean")
        assert scores == {"x1": 0.0, "x2": 1.0, "x3": 0.0}

    def test_counts_across_ensemble(self):
        model = build_model(mean=[stump(0), stump(0), stump(2), stump(1)])
        scores = variable_importance(model, "mean")
        assert scores["x1"] == pytest.approx(0.5)
        assert scores["x2"] == pytest.approx(0.25)
        assert scores["x3"] == pytest.approx(0.25)
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_all_constant_gives_empty(self):
        model = build_model()
        assert variable_importance(model, "mean") == {}
        assert variable_importance(model, "G") == {}
        assert variable_importance(model, "R") == {}

    def test_components_separate(self):
        model = build_model(
            mean=[stump(0)],
            G=([stump(2)],),
            R=[stump(1)],
        )
        assert variable_importance(model, "mean")["x1"] == 1.0
        assert variable_importance(model, "G")["x3"] == 1.0
        assert variable_importance(model, "R")["x2"] == 1.0

    def test_linear_counts_nonzero_coefficients(self):
        h = LinearLearner(features=(0, 2), coef=np.array([0.5, 0.0]), intercept=1.0)
        model = build_model(mean=[h])
        assert variable_importance(model, "mean") == {"x1": 1.0, "x2": 0.0, "x3": 0.0}

    def test_unknown_component(self):
        with pytest.raises(ConfigError):
            variable_importance(build_model(), "variance")


class TestGrid:
    def test_percentile_span(self):
        col = np.linspace(0.0, 1.0, 101)
        bg = np.column_stack([col, col, col])
        grid = _default_grid(bg, 0)
        assert grid.shape == (DEFAULT_GRID_SIZE,)
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(0.98)

    def test_degenerate_column(self):
        bg = np.full((10, 3), 2.0)
        grid = _default_grid(bg, 1)
        np.testing.assert_array_equal(grid, [2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_left_out(self, bad):
        with_bad = np.array([[0.0], [1.0], [bad], [2.0]])
        without = np.array([[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(_default_grid(with_bad, 0), _default_grid(without, 0))

    def test_column_without_finite_values(self):
        bg = np.random.default_rng(1).standard_normal((6, 3))
        bg[:, 2] = [np.nan, np.inf, -np.inf, np.nan, np.nan, np.nan]
        with pytest.raises(ConfigError, match="feature 2"):
            _default_grid(bg, 2)
        bg[:, 2] = np.nan
        with pytest.raises(ConfigError, match="feature 2"):
            partial_dependence(build_model(), "mean", "x3", bg)


class TestPartialDependence:
    def test_flat_for_constant_model(self):
        model = build_model()
        bg = np.random.default_rng(0).standard_normal((20, 3))
        grid, vals = partial_dependence(model, "mean", "x1", bg)
        np.testing.assert_allclose(vals, np.zeros(len(grid)))
        _, rvals = partial_dependence(model, "R", 0, bg)
        np.testing.assert_allclose(rvals, np.ones(len(grid)))

    def test_flat_for_unselected_feature(self):
        model = build_model(mean=[stump(0)])
        rng = np.random.default_rng(1)
        bg = rng.standard_normal((30, 3))
        _, vals = partial_dependence(model, "mean", "x3", bg)
        assert np.ptp(vals) == 0.0

    def test_step_recovered(self):
        # one stump at 0 with lr 0.5: curve steps from -0.5 to +0.5
        model = build_model(mean=[stump(0, threshold=0.0)])
        bg = np.zeros((10, 3))
        grid = np.array([-1.0, -0.1, 0.1, 1.0])
        g, vals = partial_dependence(model, "mean", "x1", bg, grid=grid)
        np.testing.assert_array_equal(g, grid)
        np.testing.assert_allclose(vals, [-0.5, -0.5, 0.5, 0.5])

    def test_g_component_traces_entry(self):
        # G = (1 + lr * step)^2 once the factor ensemble holds one stump
        model = build_model(G=([stump(1, threshold=0.5)],))
        bg = np.zeros((8, 3))
        grid = np.array([0.0, 1.0])
        _, vals = partial_dependence(model, "G", "x2", bg, grid=grid)
        np.testing.assert_allclose(vals, [(1 - 0.5) ** 2, (1 + 0.5) ** 2])

    def test_r_component_on_variance_scale(self):
        model = build_model(R=[stump(2, threshold=0.0)])
        bg = np.zeros((5, 3))
        grid = np.array([-2.0, 2.0])
        _, vals = partial_dependence(model, "R", "x3", bg, grid=grid)
        np.testing.assert_allclose(vals, [np.exp(-0.5), np.exp(0.5)])

    def test_averages_over_background(self):
        # half the background sits left of the stump in the non-plotted feature
        model = build_model(mean=[stump(1, threshold=0.0)])
        bg = np.zeros((4, 3))
        bg[:2, 1] = -1.0
        bg[2:, 1] = 1.0
        grid = np.array([0.0])
        _, vals = partial_dependence(model, "mean", "x1", bg, grid=grid)
        assert vals[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("component", ["mean", "R", "G"])
    def test_chunks_match_one_call(self, component, monkeypatch):
        model = build_model(
            mean=[stump(0, 0.3), stump(1, -0.2), stump(2, 0.1)],
            G=([stump(0, -0.4), stump(2, 0.2)],),
            R=[stump(0, 0.1), stump(1, 0.5)],
        )
        bg = np.random.default_rng(8).standard_normal((13, 3))
        whole = partial_dependence(model, component, "x1", bg)[1]
        # 4 grid points of 13 rows' accumulator cells per chunk: 25 points in 6 chunks
        # of 4 and one of 1
        monkeypatch.setattr(diagnostics, "_CHUNK_CELLS", 4 * bg.shape[0] + 2)
        grid, chunked = partial_dependence(model, component, "x1", bg)
        assert grid.shape == (25,)
        assert np.ptp(whole) > 0.0
        assert np.array_equal(chunked, whole)

    def test_validation(self):
        model = build_model()
        bg = np.zeros((5, 3))
        with pytest.raises(ConfigError):
            partial_dependence(model, "mean", "nope", bg)
        with pytest.raises(ConfigError):
            partial_dependence(model, "mean", 9, bg)
        with pytest.raises(ConfigError):
            partial_dependence(model, "huh", "x1", bg)
        with pytest.raises(ConfigError):
            partial_dependence(model, "G", "x1", bg, g_entry=(0, 3))
        # a background is a served matrix: its width is checked by errors.check_rows
        with pytest.raises(DataError, match=r"background: expected 3 feature columns, got matrix of shape \(5, 9\)"):
            partial_dependence(model, "mean", "x1", np.zeros((5, 9)))

    @pytest.mark.parametrize("feature", [1.5, True])
    def test_feature_index_not_an_integer(self, feature):
        with pytest.raises(ConfigError, match="feature must be an integer"):
            partial_dependence(build_model(), "mean", feature, np.zeros((5, 3)))

    @pytest.mark.parametrize("g_entry", [
        (0.5, 0), (0, 0.5), (True, 0), (0, np.bool_(True)), ("0", 0), (0, 0, 0), (0,), 0, None,
    ])
    def test_g_entry_must_be_a_pair_of_indices(self, g_entry):
        # (0.5, 0) was a raw IndexError, (0, 0, 0) a raw ValueError, True index 1
        model = build_model()
        model = replace(model, q=2, ensembles={
            **model.ensembles, "G": Ensemble(np.array([1.0, 0.0, 1.0]), ([], [], []))})
        bg = np.zeros((5, 3))
        with pytest.raises(ConfigError, match="g_entry"):
            partial_dependence(model, "G", "x1", bg, g_entry=g_entry)
        # NumPy integers are indices, of the entry and of the feature
        got = partial_dependence(model, "G", np.int64(0), bg, g_entry=np.array([1, 1]))
        want = partial_dependence(model, "G", 0, bg, g_entry=(1, 1))
        np.testing.assert_array_equal(got[1], want[1])

    def test_grid_not_one_dimensional(self):
        with pytest.raises(ConfigError, match=r"grid must be 1-dimensional, got shape \(2, 2\)"):
            partial_dependence(build_model(), "mean", "x1", np.zeros((5, 3)), grid=np.zeros((2, 2)))

    def test_background_without_rows(self):
        with pytest.raises(ConfigError, match="background has no rows"):
            partial_dependence(build_model(), "mean", "x1", np.zeros((0, 3)))


def reference_partial_dependence(model, component, f, background, grid, g_entry=(0, 0)):
    """The tiled estimator: one copy of the background per grid value, every learner
    of the component evaluated over all of them at once and summed as the evaluators
    sum, from the start values in learner order, before the component's link.

    partial_dependence shares each tree's walks among the grid values of a
    threshold interval; this version walks every tree over every copy and is
    its oracle. It sums the learners itself, since the evaluators refuse a
    non-finite entry that a linear learner reads, and the grid's may be one.
    """
    n = background.shape[0]
    work = np.tile(background, (grid.shape[0], 1))
    work[:, f] = np.repeat(grid, n)
    ensemble = model.ensembles[component]
    lr = getattr(model.config, boosting.COMPONENTS[component].rate)
    out = np.tile(ensemble.init, (work.shape[0], 1))
    for t, ls in enumerate(ensemble.learners):
        for h in ls:
            out[:, t] += lr * h.predict(work)
    if component == "mean":
        out = out[:, 0]
    elif component == "R":
        out = np.exp(out[:, 0])
    else:
        L = boosting.factors_from_entries(out, model.q)
        out = (L @ np.swapaxes(L, 1, 2))[:, g_entry[0], g_entry[1]]
    return out.reshape(grid.shape[0], n).mean(axis=1)


def split_thresholds(model, component, f):
    found = set()
    for h in (h for ls in model.ensembles[component].learners for h in ls):
        if isinstance(h, TreeLearner):
            found.update(learners._split_thresholds(h.root, f).tolist())
    return sorted(found)


@cache
def small_fit(kind):
    """A q = 2 fit (random intercept and slope on x1) with learners of kind:
    every component boosted, or all constant for kind "constant"."""
    rng = np.random.default_rng(17)
    groups = []
    for i in range(24):
        X = rng.standard_normal((5, 3))
        Z = np.column_stack([np.ones(5), X[:, 0]])
        y = X[:, 0] - X[:, 1] ** 2 + rng.standard_normal() + (0.5 + X[:, 2] ** 2) * rng.standard_normal(5)
        groups.append(GroupBlock(group_id=i, y=y, X=X, Z=Z))
    ds = GroupedDataset(groups=tuple(groups), feature_names=("x1", "x2", "x3"))
    spec = LearnerSpec(kind=kind, tree_min_parent=4, tree_min_child=2)
    cfg = config_for_variant("base" if kind == "constant" else "grboost", spec, n_iterations=8,
                             group_fraction=0.5, early_stopping=False)
    return fit(ds, cfg), ds


POOL_THRESHOLDS = (-1.0, -0.0, 0.0, 0.25, 1.0)


@st.composite
def hand_built_tree(draw):
    """A stump or a full depth-2 tree on POOL_THRESHOLDS, or a lone leaf."""
    def split(left, right):
        return TreeSplit(feature=draw(st.integers(0, 2)),
                         threshold=draw(st.sampled_from(POOL_THRESHOLDS)), left=left, right=right)

    def leaf():
        return TreeLeaf(draw(st.floats(-1.0, 1.0)))

    shape = draw(st.sampled_from(["leaf", "stump", "depth2"]))
    if shape == "leaf":
        root = leaf()
    elif shape == "stump":
        root = split(leaf(), leaf())
    else:
        root = split(split(leaf(), leaf()), split(leaf(), leaf()))
    return TreeLearner(root=root)


@settings(max_examples=150)
@given(data=st.data())
def test_matches_the_tiled_estimator(data):
    """Bit for bit on trees and constants, to 1e-12 on linear learners, for all
    three components, grids with thresholds, their neighbours, NaN, +-inf and
    signed zeros in any order and repeated, and backgrounds in one chunk or many."""
    source = data.draw(st.sampled_from(["tree", "linear", "constant", "hand-built"]), label="source")
    if source == "hand-built":
        trees = st.lists(hand_built_tree(), min_size=1, max_size=4)
        model = build_model(mean=data.draw(trees), G=(data.draw(trees),), R=data.draw(trees))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rows seed"))
        rows = rng.choice(np.array([*POOL_THRESHOLDS, 0.1, -0.5, 2.0]), size=(30, 3))
        pools = {"rows": rows, "groups": rows}
    else:
        model, ds = small_fit(source)
        pools = {"rows": ds.stacked().X, "groups": ds.x_tilde_matrix()}
    component = data.draw(st.sampled_from(diagnostics.COMPONENTS), label="component")
    f = data.draw(st.integers(0, 2), label="feature")
    pool = pools["groups" if component == "G" else "rows"]
    n = data.draw(st.integers(1, pool.shape[0]), label="rows")
    background = pool[data.draw(st.integers(0, pool.shape[0] - n)):][:n]

    # the grid joins pieces: single values, and thresholds t on f next to both
    # neighbouring floats in any order, where the first value of an interval decides
    thresholds = split_thresholds(model, component, f)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    pieces = [st.one_of(st.sampled_from(thresholds + special), st.floats(-3.0, 3.0)).map(lambda v: [v])]
    if thresholds:
        pieces.append(st.sampled_from(thresholds).flatmap(
            lambda t: st.permutations([np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)])))
    grid = np.array(sum(data.draw(st.lists(st.one_of(*pieces), min_size=1, max_size=5), label="grid"), []))
    g_entry = tuple(data.draw(st.lists(st.integers(0, model.q - 1), min_size=2, max_size=2)))
    cells = data.draw(st.integers(1, 3 * n), label="chunk cells")

    before = background.copy()
    with np.errstate(all="ignore"):
        want = reference_partial_dependence(model, component, f, background, grid, g_entry)
        with mock.patch.object(diagnostics, "_CHUNK_CELLS", cells):
            got_grid, got = partial_dependence(model, component, f, background, grid, g_entry)
    assert np.array_equal(got_grid, grid, equal_nan=True)
    assert np.array_equal(background, before)
    if source == "linear":
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)
    else:
        assert np.array_equal(got, want, equal_nan=True)


def depth2(feature, thresholds):
    """A full depth-2 tree splitting on feature at the root and both children."""
    t0, t1, t2 = thresholds
    return TreeLearner(
        root=TreeSplit(feature, t0, left=stump(feature, t1).root, right=stump(feature, t2).root),
    )


@pytest.mark.parametrize("component", diagnostics.COMPONENTS)
def test_each_tree_is_walked_once_per_occupied_interval(component, monkeypatch):
    trees = [
        stump(0, 0.3),
        stump(1, -0.2),
        depth2(0, (0.0, -0.5, 0.5)),
        depth2(0, (0.1, 0.1, 0.1)),        # one distinct threshold, repeated
        depth2(2, (0.0, -1.0, 1.0)),
        stump(0, 9.0),                     # above the whole grid
        TreeLearner(root=TreeLeaf(0.7)),
    ]
    model = build_model(**{component: (trees,) if component == "G" else trees})
    walks = Counter()
    real = boosting._leaf_values

    def counted(root, cols, *fixed):
        walks[id(root)] += 1
        return real(root, cols, *fixed)

    monkeypatch.setattr(boosting, "_leaf_values", counted)
    bg = np.random.default_rng(3).standard_normal((13, 3))
    monkeypatch.setattr(diagnostics, "_CHUNK_CELLS", 4 * bg.shape[0])   # chunks of 4 grid values
    grid, _ = partial_dependence(model, component, "x1", bg)
    chunks = [grid[lo : lo + 4] for lo in range(0, grid.shape[0], 4)]
    assert len(chunks) == 7
    for h in trees:
        thr = learners._split_thresholds(h.root, 0)
        bound = sum(min(len(c), 1 + thr.size) for c in chunks)
        occupied = sum(np.unique(np.searchsorted(thr, c, side="right")).size for c in chunks)
        assert walks[id(h.root)] == occupied <= bound
        if thr.size == 0:
            assert walks[id(h.root)] == len(chunks)
    assert walks[id(trees[2].root)] > len(chunks)


def test_a_linear_learner_is_called_per_grid_value_only_when_it_reads_the_feature(monkeypatch):
    """In one chunk, a linear learner whose features hold the plotted one is called once per
    grid value, even at a zero coefficient (inf * 0 is NaN); any other is called once and
    gives per-value evaluation bit for bit."""
    reads = LinearLearner(features=(0, 2), coef=np.array([0.0, -1.0]), intercept=0.2)
    blind = LinearLearner(features=(1, 2), coef=np.array([0.3, 0.7]), intercept=-0.1)
    calls = Counter()
    real = LinearLearner.predict

    def counted(self, X, cols=None):
        calls[id(self)] += 1
        return real(self, X, cols)

    monkeypatch.setattr(LinearLearner, "predict", counted)
    bg = np.random.default_rng(4).standard_normal((13, 3))
    grid = np.array([-1.0, 0.0, 0.5, 2.0, np.inf, 0.5])
    with np.errstate(invalid="ignore"):   # inf * 0
        _, both = partial_dependence(build_model(mean=[reads, blind]), "mean", 0, bg, grid)
    assert calls == {id(reads): grid.size, id(blind): 1}
    assert np.isnan(both[4]) and np.all(np.isfinite(np.delete(both, 4)))

    model = build_model(mean=[blind])
    at = eval_mean(model, bg, grid=(0, grid))
    for k, v in enumerate(grid):
        X = bg.copy()
        X[:, 0] = v
        assert np.array_equal(at[k], eval_mean(model, X))
    assert np.array_equal(partial_dependence(model, "mean", "x1", bg, grid)[1], at.mean(axis=1))
