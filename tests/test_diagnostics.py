"""Importance and partial dependence on models with known structure."""

import numpy as np
import pytest

from gbmixed import diagnostics
from gbmixed.boosting import FitConfig, FittedModel
from gbmixed.diagnostics import default_grid, partial_dependence, variable_importance
from gbmixed.errors import ConfigError
from gbmixed.learners import LearnerSpec, LinearLearner, TreeLeaf, TreeLearner, TreeSplit


def build_model(mean_learners=(), gcov_learners=None, rvar_learners=(), p=3, lr=0.5):
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
        mean_init=0.0,
        mean_learners=list(mean_learners),
        gcov_init=np.array([1.0]),
        gcov_learners=gcov_learners if gcov_learners is not None else ([],),
        logrvar_init=0.0,
        rvar_learners=list(rvar_learners),
        history=[0.0],
        best_iteration=len(mean_learners),
        n_iterations_run=len(mean_learners),
    )


def stump(feature, threshold=0.0, left=-1.0, right=1.0, p=3):
    return TreeLearner(
        root=TreeSplit(
            feature=feature, threshold=threshold, left=TreeLeaf(left), right=TreeLeaf(right)
        ),
        n_features=p,
    )


class TestImportance:
    def test_single_split_concentrates(self):
        model = build_model(mean_learners=[stump(1)])
        scores = variable_importance(model, "mean")
        assert scores == {"x1": 0.0, "x2": 1.0, "x3": 0.0}

    def test_counts_across_ensemble(self):
        model = build_model(mean_learners=[stump(0), stump(0), stump(2), stump(1)])
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
            mean_learners=[stump(0)],
            gcov_learners=([stump(2)],),
            rvar_learners=[stump(1)],
        )
        assert variable_importance(model, "mean")["x1"] == 1.0
        assert variable_importance(model, "G")["x3"] == 1.0
        assert variable_importance(model, "R")["x2"] == 1.0

    def test_linear_counts_nonzero_coefficients(self):
        h = LinearLearner(
            features=(0, 2), coef=np.array([0.5, 0.0]), intercept=1.0, n_features=3
        )
        model = build_model(mean_learners=[h])
        assert variable_importance(model, "mean") == {"x1": 1.0, "x2": 0.0, "x3": 0.0}

    def test_unknown_component(self):
        with pytest.raises(ConfigError):
            variable_importance(build_model(), "variance")


class TestGrid:
    def test_percentile_span(self):
        col = np.linspace(0.0, 1.0, 101)
        bg = np.column_stack([col, col, col])
        grid = default_grid(bg, 0, size=5)
        assert grid.shape == (5,)
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(0.98)

    def test_degenerate_column(self):
        bg = np.full((10, 3), 2.0)
        grid = default_grid(bg, 1)
        np.testing.assert_array_equal(grid, [2.0])


class TestPartialDependence:
    def test_flat_for_constant_model(self):
        model = build_model()
        bg = np.random.default_rng(0).standard_normal((20, 3))
        grid, vals = partial_dependence(model, "mean", "x1", bg)
        np.testing.assert_allclose(vals, np.zeros(len(grid)))
        _, rvals = partial_dependence(model, "R", 0, bg)
        np.testing.assert_allclose(rvals, np.ones(len(grid)))

    def test_flat_for_unselected_feature(self):
        model = build_model(mean_learners=[stump(0)])
        rng = np.random.default_rng(1)
        bg = rng.standard_normal((30, 3))
        _, vals = partial_dependence(model, "mean", "x3", bg)
        assert np.ptp(vals) == 0.0

    def test_step_recovered(self):
        # one stump at 0 with lr 0.5: curve steps from -0.5 to +0.5
        model = build_model(mean_learners=[stump(0, threshold=0.0)])
        bg = np.zeros((10, 3))
        grid = np.array([-1.0, -0.1, 0.1, 1.0])
        g, vals = partial_dependence(model, "mean", "x1", bg, grid=grid)
        np.testing.assert_array_equal(g, grid)
        np.testing.assert_allclose(vals, [-0.5, -0.5, 0.5, 0.5])

    def test_g_component_traces_entry(self):
        # G = (1 + lr * step)^2 once the factor ensemble holds one stump
        model = build_model(gcov_learners=([stump(1, threshold=0.5)],))
        bg = np.zeros((8, 3))
        grid = np.array([0.0, 1.0])
        _, vals = partial_dependence(model, "G", "x2", bg, grid=grid)
        np.testing.assert_allclose(vals, [(1 - 0.5) ** 2, (1 + 0.5) ** 2])

    def test_r_component_on_variance_scale(self):
        model = build_model(rvar_learners=[stump(2, threshold=0.0)])
        bg = np.zeros((5, 3))
        grid = np.array([-2.0, 2.0])
        _, vals = partial_dependence(model, "R", "x3", bg, grid=grid)
        np.testing.assert_allclose(vals, [np.exp(-0.5), np.exp(0.5)])

    def test_averages_over_background(self):
        # half the background sits left of the stump in the non-plotted feature
        model = build_model(mean_learners=[stump(1, threshold=0.0)])
        bg = np.zeros((4, 3))
        bg[:2, 1] = -1.0
        bg[2:, 1] = 1.0
        grid = np.array([0.0])
        _, vals = partial_dependence(model, "mean", "x1", bg, grid=grid)
        assert vals[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("component", ["mean", "R", "G"])
    def test_chunks_match_one_call(self, component, monkeypatch):
        model = build_model(
            mean_learners=[stump(0, 0.3), stump(1, -0.2), stump(2, 0.1)],
            gcov_learners=([stump(0, -0.4), stump(2, 0.2)],),
            rvar_learners=[stump(0, 0.1), stump(1, 0.5)],
        )
        bg = np.random.default_rng(8).standard_normal((13, 3))
        whole = partial_dependence(model, component, "x1", bg)[1]
        # 4 grid points of 13 x 3 cells per chunk: 25 points in 6 chunks of 4 and one of 1
        monkeypatch.setattr(diagnostics, "_CHUNK_CELLS", 4 * bg.size + 2)
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
        with pytest.raises(ConfigError):
            partial_dependence(model, "mean", "x1", np.zeros((5, 9)))

    @pytest.mark.parametrize("feature", [1.5, True])
    def test_feature_index_not_an_integer(self, feature):
        with pytest.raises(ConfigError, match="feature must be an integer"):
            partial_dependence(build_model(), "mean", feature, np.zeros((5, 3)))
