"""Boosting engine: configuration, initialization, sampling, convergence,
determinism, and agreement with a hand-rolled reference loop."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed.boosting import (
    Ensemble,
    FitConfig,
    FittedModel,
    check_convergence,
    config_for_variant,
    eval_gcov_rows,
    eval_mean,
    eval_resid_var,
    fit,
    initialize,
    sample_iteration,
)
from gbmixed.data import GroupBlock, GroupedDataset, split_by_groups
from gbmixed.errors import ConfigError, DataError, NumericalError
from gbmixed import boosting, learners, simulate
from gbmixed.learners import (
    BinnedColumns,
    ConstantLearner,
    LearnerSpec,
    LinearLearner,
    TreeLeaf,
    TreeLearner,
    fit_learner,
)
from util import clustered_dataset, model_total_loglik, reference_tree


def scaled_dataset(scale):
    """40 groups of 5 rows whose responses are scale times standard normal draws."""
    rng = np.random.default_rng(0)
    groups = tuple(
        GroupBlock(group_id=i, y=scale * rng.standard_normal(5), X=rng.random((5, 3)),
                   Z=np.ones((5, 1)))
        for i in range(40)
    )
    return GroupedDataset(groups=groups, feature_names=("x1", "x2", "x3"))


def slope_dataset(seed, n_groups=40, n_per=4):
    """q = 2 data: a random intercept and a random slope on x2, and a mean in x1."""
    rng = np.random.default_rng(seed)
    groups = []
    for i in range(n_groups):
        X = rng.standard_normal((n_per, 3))
        Z = np.column_stack([np.ones(n_per), X[:, 1]])
        u = np.array([0.6, 0.3]) * rng.standard_normal(2)
        y = np.tanh(X[:, 0]) + Z @ u + 0.5 * rng.standard_normal(n_per)
        groups.append(GroupBlock(group_id=i, y=y, X=X, Z=Z))
    return GroupedDataset(groups=tuple(groups), feature_names=("x1", "x2", "x3"))


def constant_spec():
    return LearnerSpec(kind="constant")


def small_config(**kw):
    base = dict(
        n_iterations=5,
        lr_mean=0.1,
        lr_gcov=0.1,
        lr_rvar=0.1,
        group_fraction=1.0,
        feature_fraction=1.0,
        gcov_learner=constant_spec(),
        rvar_learner=constant_spec(),
        early_stopping=False,
        eval_fraction=0.25,
        seed=0,
    )
    base.update(kw)
    return FitConfig(**base)


class TestFitConfig:
    def test_field_validation(self):
        with pytest.raises(ConfigError):
            small_config(n_iterations=-1)
        with pytest.raises(ConfigError):
            small_config(lr_mean=-0.1)
        with pytest.raises(ConfigError):
            small_config(group_fraction=0.0)
        with pytest.raises(ConfigError):
            small_config(feature_fraction=1.5)
        with pytest.raises(ConfigError):
            small_config(lookback=0)
        with pytest.raises(ConfigError):
            small_config(tolerance=0.0)
        with pytest.raises(ConfigError):
            small_config(eval_fraction=1.0)
        with pytest.raises(ConfigError):
            small_config(force_include=(1, 1))
        with pytest.raises(ConfigError):
            small_config(force_include=(-2,))
        for seed in (-1, 2.5, True, "3"):
            with pytest.raises(ConfigError):
                small_config(seed=seed)
        # each field holds its annotated type: integers, finite numbers, booleans
        for field, value in [("n_iterations", 2.5), ("n_iterations", True), ("lookback", 2.5),
                             ("lookback", True), ("early_stopping", 1), ("lr_mean", "0.03")]:
            with pytest.raises(ConfigError, match=f"{field} must be"):
                small_config(**{field: value})
        with pytest.raises(ConfigError, match="n_iterations must be an integer, got 2.5"):
            config_for_variant("base", n_iterations=2.5)

    def test_fractional_force_include_is_config_error(self):
        with pytest.raises(ConfigError, match="force_include entry must be an integer, got 1.5"):
            small_config(force_include=(1.5,))

    def test_variant_learner_coupling(self):
        # the variant names the variance components whose learners are not constant
        names = {
            ("constant", "constant"): "base",
            ("constant", "tree"): "rboost",
            ("constant", "linear"): "rboost",
            ("tree", "constant"): "gboost",
            ("linear", "constant"): "gboost",
            ("tree", "tree"): "grboost",
            ("tree", "linear"): "grboost",
            ("linear", "tree"): "grboost",
            ("linear", "linear"): "grboost",
        }
        for (g_kind, r_kind), name in names.items():
            cfg = small_config(
                gcov_learner=LearnerSpec(kind=g_kind), rvar_learner=LearnerSpec(kind=r_kind)
            )
            assert cfg.variant == name
        assert FitConfig().variant == "grboost"
        # the name is read from the kinds, never given
        with pytest.raises(TypeError):
            FitConfig(variant="base")

    def test_config_for_variant_kinds(self):
        assert config_for_variant("base").gcov_learner.kind == "constant"
        assert config_for_variant("base").rvar_learner.kind == "constant"
        assert config_for_variant("rboost").rvar_learner.kind == "tree"
        assert config_for_variant("rboost").gcov_learner.kind == "constant"
        assert config_for_variant("gboost").gcov_learner.kind == "tree"
        assert config_for_variant("grboost").gcov_learner.kind == "tree"
        assert config_for_variant("grboost").rvar_learner.kind == "tree"
        custom = config_for_variant("rboost", LearnerSpec(kind="linear"))
        assert custom.mean_learner.kind == "linear"
        assert custom.rvar_learner.kind == "linear"
        assert custom.gcov_learner.kind == "constant"
        with pytest.raises(ConfigError):
            config_for_variant("superboost")
        # a constant row learner would leave rboost's residual variance unboosted
        with pytest.raises(ConfigError, match="rboost"):
            config_for_variant("rboost", LearnerSpec(kind="constant"))


class TestInitialize:
    def test_hand_computed_values(self):
        # groups [0, 2] and [4, 6]: grand mean 3, between-variance 8,
        # within sum of squares 4 over n - C = 2 degrees of freedom
        ds = GroupedDataset(
            groups=(
                GroupBlock(group_id=0, y=np.array([0.0, 2.0]), X=np.zeros((2, 1)), Z=np.ones((2, 1))),
                GroupBlock(group_id=1, y=np.array([4.0, 6.0]), X=np.zeros((2, 1)), Z=np.ones((2, 1))),
            ),
            feature_names=("x1",),
        )
        f0, diag0, logr0 = initialize(ds, q=1)
        assert f0 == pytest.approx(3.0)
        assert diag0 == pytest.approx(np.sqrt(8.0))
        assert logr0 == pytest.approx(np.log(2.0))

    def test_singleton_groups_floor_residual(self):
        # single observation per group: all variance lands between groups and
        # the residual variance falls back to the 1% floor
        rng = np.random.default_rng(0)
        y = rng.standard_normal(500)
        groups = tuple(
            GroupBlock(group_id=i, y=y[i : i + 1], X=np.zeros((1, 1)), Z=np.ones((1, 1)))
            for i in range(500)
        )
        ds = GroupedDataset(groups=groups, feature_names=("x1",))
        f0, diag0, logr0 = initialize(ds, q=1)
        var_y = float(np.var(y, ddof=1))
        assert diag0**2 == pytest.approx(var_y, rel=1e-12)
        assert np.exp(logr0) == pytest.approx(0.01 * var_y, rel=1e-12)
        total = diag0**2 + np.exp(logr0)
        assert abs(total - var_y) / var_y < 0.2

    def test_constant_response_rejected(self):
        ds = GroupedDataset(
            groups=(
                GroupBlock(group_id=0, y=np.full(3, 2.0), X=np.zeros((3, 1)), Z=np.ones((3, 1))),
                GroupBlock(group_id=1, y=np.full(2, 2.0), X=np.zeros((2, 1)), Z=np.ones((2, 1))),
            ),
            feature_names=("x1",),
        )
        with pytest.raises(DataError, match="constant"):
            initialize(ds, q=1)


class TestSampling:
    def test_counts_and_ordering(self):
        rng = np.random.default_rng(1)
        cfg = small_config(group_fraction=0.5, feature_fraction=0.5)
        g_idx, feats = sample_iteration(rng, 10, 8, cfg)
        assert len(g_idx) == 5
        assert len(feats) == 4
        assert np.all(np.diff(g_idx) > 0)
        assert np.all(np.diff(feats) > 0)
        assert len(set(g_idx.tolist())) == 5

    def test_force_include_unioned(self):
        rng = np.random.default_rng(2)
        cfg = small_config(feature_fraction=0.25, force_include=(7,))
        for _ in range(20):
            _, feats = sample_iteration(rng, 10, 8, cfg)
            assert 7 in feats
            assert 2 <= len(feats) <= 3

    def test_zero_samples_rejected(self, monkeypatch):
        # fit decides once, before it splits the groups; sample_iteration only draws
        ds = clustered_dataset(np.random.default_rng(3), n_groups=10, p=8)
        monkeypatch.setattr(boosting, "split_by_groups", None)
        message = "group_fraction 0.05 samples zero of 7 groups: eval_fraction 0.25 held out 3"
        with pytest.raises(ConfigError, match=re.escape(message)):
            fit(ds, small_config(group_fraction=0.05))
        with pytest.raises(ConfigError, match=re.escape("feature_fraction 0.1 samples zero of 8 features")):
            fit(ds, small_config(feature_fraction=0.1))

    @pytest.mark.parametrize("eval_fraction, message", [
        (0.9, "eval_fraction 0.9 leaves none of the 5 groups for boosting"),
        # 1 - 1e-17 rounds to 1.0, which split_by_groups would report as its own fraction
        (1e-17, "eval_fraction 1e-17 holds out none of the 5 groups for evaluation"),
    ])
    def test_an_evaluation_split_with_an_empty_side_names_eval_fraction(self, monkeypatch,
                                                                        eval_fraction, message):
        ds = clustered_dataset(np.random.default_rng(3), n_groups=5)
        monkeypatch.setattr(boosting, "split_by_groups", None)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            fit(ds, small_config(eval_fraction=eval_fraction))

    def test_distribution_covers_everything(self):
        rng = np.random.default_rng(4)
        cfg = small_config(group_fraction=0.3, feature_fraction=0.5)
        seen_g, seen_f = set(), set()
        for _ in range(200):
            g_idx, feats = sample_iteration(rng, 10, 6, cfg)
            seen_g.update(g_idx.tolist())
            seen_f.update(feats.tolist())
        assert seen_g == set(range(10))
        assert seen_f == set(range(6))


class TestConvergence:
    def test_examples(self):
        # the last lookback values do not beat the best before them by the tolerance
        assert check_convergence([-10.0, -5.0, -4.999], lookback=1, tolerance=0.01)
        assert check_convergence([-10.0, -5.0, -6.0], lookback=1, tolerance=0.01)
        assert check_convergence([-3.0, -4.0, -3.5, -3.0005], lookback=3, tolerance=0.01)
        # they do: the curve still rises
        assert not check_convergence([-10.0, -5.0, -4.98], lookback=1, tolerance=0.01)
        assert not check_convergence([-3.0, -4.0, -3.5, -2.5], lookback=3, tolerance=0.01)
        # a value inside the window is the best so far
        assert not check_convergence([-10.0, -5.0, -6.0, -7.0], lookback=3, tolerance=0.01)
        # too short a history to look back over
        assert not check_convergence([-10.0, -5.0], lookback=2, tolerance=0.01)
        assert not check_convergence([-10.0], lookback=1, tolerance=0.01)
        assert not check_convergence([], lookback=3, tolerance=0.01)

    @settings(max_examples=30)
    @given(
        values=st.lists(st.floats(min_value=-100, max_value=0), min_size=0, max_size=12),
        lookback=st.integers(min_value=1, max_value=5),
    )
    def test_matches_definition(self, values, lookback):
        tol = 0.5
        m = len(values) - 1
        expected = m >= lookback and (
            max(values[m - lookback + 1:]) < max(values[:m - lookback + 1]) + tol
        )
        assert check_convergence(values, lookback, tol) == expected

    @pytest.mark.parametrize("lookback", [1, 3, 25])
    def test_a_curve_that_peaks_and_falls_stops_lookback_iterations_after_the_peak(self, lookback):
        peak = 40
        curve = [-100.0 + m for m in range(peak + 1)] + [-60.0 - 0.1 * k for k in range(1, 60)]
        stop = next(m for m in range(len(curve))
                    if check_convergence(curve[:m + 1], lookback, tolerance=1e-3))
        assert stop == peak + lookback


class TestFit:
    def test_needs_two_groups(self):
        g = GroupBlock(group_id=0, y=np.zeros(3), X=np.zeros((3, 1)), Z=np.ones((3, 1)))
        ds = GroupedDataset(groups=(g,), feature_names=("x1",))
        with pytest.raises(DataError):
            fit(ds, small_config())

    def test_too_few_groups_to_sample_names_the_evaluation_split(self):
        ds = clustered_dataset(np.random.default_rng(5), n_groups=2, p=2)
        message = (
            "group_fraction 0.2 samples zero of 1 groups: "
            "eval_fraction 0.25 held out 1 of the 2 groups for evaluation"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            fit(ds, FitConfig())

    def test_non_finite_response_names_group(self):
        rng = np.random.default_rng(5)
        ds = clustered_dataset(rng, n_groups=8, p=2)
        groups = list(ds.groups)
        g = groups[3]
        groups[3] = GroupBlock(group_id=g.group_id, y=np.array([g.y[0], np.nan]), X=g.X, Z=g.Z)
        bad = GroupedDataset(groups=tuple(groups), feature_names=ds.feature_names)
        with pytest.raises(DataError, match="group 3"):
            fit(bad, small_config())

    def test_a_non_finite_design_entry_is_a_data_error_before_the_fit(self):
        # a NaN in Z used to reach the fit, which ran until the group was sampled and
        # then raised the NumericalError "non-finite gradient"
        rng = np.random.default_rng(11)

        def block(i):
            X = rng.standard_normal((5, 2))
            Z = np.ones((5, 1))
            Z[2, 0] = np.nan if i == 3 else 1.0
            return GroupBlock(group_id=i, y=X[:, 0] + rng.standard_normal(5), X=X, Z=Z)

        with pytest.raises(DataError, match="group 3: Z must be finite") as raised:
            ds = GroupedDataset(groups=tuple(block(i) for i in range(40)), feature_names=("x1", "x2"))
            fit(ds, FitConfig(n_iterations=5))
        assert raised.value.exit_code == 3

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("kinds, component", [
        (("linear", "linear", "linear"), "mean"),
        (("tree", "constant", "linear"), "R"),
        (("tree", "linear", "constant"), "G"),
    ])
    def test_a_non_finite_feature_a_linear_learner_would_read_is_a_data_error(self, kinds, component, value):
        # one NaN in X used to end a linear fit in the NumericalError "non-finite
        # evaluation log-likelihood at iteration 1"
        ds = clustered_dataset(np.random.default_rng(12), n_groups=12, n_per=3, p=2)
        groups = list(ds.groups)
        X = groups[7].X.copy()
        X[1, 1] = value
        groups[7] = GroupBlock(group_id=7, y=groups[7].y, X=X, Z=groups[7].Z)
        bad = GroupedDataset(groups=tuple(groups), feature_names=ds.feature_names)
        specs = dict(zip(("mean_learner", "gcov_learner", "rvar_learner"),
                         (LearnerSpec(kind=k, tree_min_parent=4, tree_min_child=2) for k in kinds)))
        message = f"feature 'x2' is non-finite, which a linear {component} learner cannot read"
        with pytest.raises(DataError, match=f"^{re.escape('group 7: ' + message)}$") as raised:
            fit(bad, small_config(**specs))
        assert raised.value.exit_code == 3

        # trees route the value, and a linear model served a row with it refuses it too
        trees = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
        assert np.all(np.isfinite(fit(bad, small_config(mean_learner=trees, rvar_learner=trees)).history))
        evaluate = (eval_mean, eval_gcov_rows, eval_resid_var)[kinds.index("linear")]
        with pytest.raises(DataError, match=f"^{re.escape('row 0: ' + message)}$"):
            evaluate(fit(ds, small_config(**specs)), np.array([[0.5, value]]))

    def test_force_include_out_of_range(self):
        rng = np.random.default_rng(5)
        ds = clustered_dataset(rng, n_groups=8, p=2)
        with pytest.raises(ConfigError, match="force_include"):
            fit(ds, small_config(force_include=(5,)))

    def test_zero_iterations_is_initialization(self):
        rng = np.random.default_rng(6)
        ds = clustered_dataset(rng, n_groups=20)
        cfg = small_config(n_iterations=0)
        model = fit(ds, cfg)
        assert model.n_iterations_run == 0
        assert model.best_iteration == 0
        assert model.history and len(model.history) == 1
        assert model.ensembles["mean"].learners == ([],)
        boost_ds, _ = split_by_groups(ds, 1.0 - cfg.eval_fraction, cfg.seed)
        f0, diag0, logr0 = initialize(boost_ds, 1)
        X = ds.stacked().X
        np.testing.assert_allclose(eval_mean(model, X), np.full(X.shape[0], f0))
        np.testing.assert_allclose(eval_resid_var(model, X), np.full(X.shape[0], np.exp(logr0)))
        G = eval_gcov_rows(model, ds.x_tilde_matrix())
        np.testing.assert_allclose(G[:, 0, 0], np.full(ds.n_groups, diag0**2))

    def test_history_and_truncation_invariants(self):
        rng = np.random.default_rng(7)
        ds = clustered_dataset(rng, n_groups=30, mean_fn=lambda X: 2.0 * X[:, 0])
        model = fit(ds, small_config(n_iterations=12))
        assert len(model.history) == model.n_iterations_run + 1
        assert model.best_iteration == int(np.argmax(model.history))
        assert [len(e.learners) for e in model.ensembles.values()] == [1, 1, 1]
        for e in model.ensembles.values():
            assert len(e.learners[0]) == model.best_iteration

    def test_determinism(self):
        rng = np.random.default_rng(8)
        ds = clustered_dataset(rng, n_groups=24, mean_fn=lambda X: np.sin(X[:, 1]))
        cfg = small_config(n_iterations=6, group_fraction=0.5, feature_fraction=0.5, seed=11)
        m1 = fit(ds, cfg)
        m2 = fit(ds, cfg)
        assert m1.history == m2.history
        X = ds.stacked().X
        np.testing.assert_array_equal(eval_mean(m1, X), eval_mean(m2, X))
        np.testing.assert_array_equal(eval_resid_var(m1, X), eval_resid_var(m2, X))
        np.testing.assert_array_equal(
            eval_gcov_rows(m1, ds.x_tilde_matrix()), eval_gcov_rows(m2, ds.x_tilde_matrix())
        )

    def test_seed_changes_model(self):
        rng = np.random.default_rng(9)
        ds = clustered_dataset(rng, n_groups=24, mean_fn=lambda X: np.sin(X[:, 1]))
        m1 = fit(ds, small_config(n_iterations=6, group_fraction=0.5, seed=1))
        m2 = fit(ds, small_config(n_iterations=6, group_fraction=0.5, seed=2))
        assert m1.history != m2.history

    def test_early_stopping_triggers(self):
        rng = np.random.default_rng(10)
        ds = clustered_dataset(rng, n_groups=20)
        cfg = small_config(
            n_iterations=50, early_stopping=True, lookback=2, tolerance=1e9
        )
        model = fit(ds, cfg)
        # an absurdly loose tolerance stops at the first possible check
        assert model.n_iterations_run == 2

    def test_early_stopping_keeps_the_full_run_up_to_its_best_iteration(self):
        ds = clustered_dataset(np.random.default_rng(0), n_groups=40, n_per=4,
                               mean_fn=lambda X: X[:, 0])
        tree = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
        full = fit(ds, small_config(n_iterations=200, lr_mean=0.3, mean_learner=tree))
        early = fit(ds, small_config(n_iterations=200, lr_mean=0.3, mean_learner=tree,
                                     early_stopping=True, lookback=10))
        best = early.best_iteration
        assert best == int(np.argmax(full.history)) > 0
        assert early.n_iterations_run == best + 10 < full.n_iterations_run
        assert early.history == full.history[:best + 11]
        pairs = [pair for name in ("mean", "R", "G")
                 for pair in zip(early.ensembles[name].learners, full.ensembles[name].learners)]
        for a, b in pairs:
            assert len(a) == best and repr(a) == repr(b[:best])   # repr keeps every bit of a float

    def test_learner_kinds_follow_variant(self):
        rng = np.random.default_rng(12)
        ds = clustered_dataset(rng, n_groups=24, mean_fn=lambda X: X[:, 0])
        tree = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
        cfg = config_for_variant(
            "grboost",
            tree,
            n_iterations=3,
            group_fraction=1.0,
            feature_fraction=1.0,
            early_stopping=False,
            eval_fraction=0.25,
        )
        model = fit(ds, cfg)
        if model.best_iteration > 0:
            for name in ("mean", "G", "R"):
                assert all(isinstance(h, TreeLearner) for h in model.ensembles[name].learners[0])
        cfg2 = small_config(n_iterations=3)
        model2 = fit(ds, cfg2)
        if model2.best_iteration > 0:
            for name in ("G", "R"):
                assert all(isinstance(h, ConstantLearner) for h in model2.ensembles[name].learners[0])

    def test_training_loglik_improves(self):
        rng = np.random.default_rng(13)
        ds = clustered_dataset(
            rng, n_groups=60, n_per=3, mean_fn=lambda X: 1.5 * np.tanh(X[:, 0])
        )
        cfg = small_config(
            n_iterations=40,
            lr_mean=0.2,
            lr_gcov=0.05,
            lr_rvar=0.05,
            mean_learner=LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2),
        )
        model = fit(ds, cfg)
        assert model.best_iteration > 0
        boost_ds, eval_ds = split_by_groups(ds, 1.0 - cfg.eval_fraction, cfg.seed)
        ll0 = model_total_loglik(model, boost_ds, upto=0)
        ll_best = model_total_loglik(model, boost_ds, upto=model.best_iteration)
        assert ll_best > ll0
        # the stored history is the eval-set log-likelihood per iteration
        assert model.history[model.best_iteration] == pytest.approx(
            model_total_loglik(model, eval_ds, upto=model.best_iteration), rel=1e-9
        )
        assert model.history[0] == pytest.approx(
            model_total_loglik(model, eval_ds, upto=0), rel=1e-9
        )

    def test_numerical_blowup_raises(self):
        rng = np.random.default_rng(14)
        ds = clustered_dataset(rng, n_groups=20)
        cfg = small_config(n_iterations=60, lr_rvar=80.0)
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            fit(ds, cfg)

    def test_a_non_finite_gradient_is_a_numerical_error(self, monkeypatch):
        real = boosting.lik.batched_quantities

        def nan_gradient(*args, **kwargs):
            ll, g_mu, g_F, g_logr = real(*args, **kwargs)
            if g_mu is not None:
                g_mu[0] = np.nan
            return ll, g_mu, g_F, g_logr

        monkeypatch.setattr(boosting.lik, "batched_quantities", nan_gradient)
        ds = clustered_dataset(np.random.default_rng(14), n_groups=20)
        with pytest.raises(NumericalError, match="^non-finite gradient at iteration 1$"):
            fit(ds, small_config(n_iterations=3))

    @pytest.mark.parametrize("scale,message", [
        (0.0, "response is constant"),     # signed zeros, all equal
        # y**2 underflows, so np.var of these distinct values is 0
        (1e-200, "response is not constant, but its variance underflows to zero"),
    ])
    def test_constant_and_underflowing_responses(self, scale, message):
        with pytest.raises(DataError, match=message):
            fit(scaled_dataset(scale), FitConfig(n_iterations=10))

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_response_variance_is_a_data_error_without_warnings(self, scale):
        # y**2 overflows, so np.var of these finite values is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="response variance overflows; rescale the response"):
                fit(scaled_dataset(scale), FitConfig(n_iterations=10))

    def test_a_huge_response_whose_variance_is_finite_fits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(scaled_dataset(1e150), FitConfig(n_iterations=10))
        assert model.best_iteration > 0

    @pytest.mark.parametrize("scale", [1e-3, 1e-150])
    def test_blowup_at_a_tiny_response_scale_raises_without_warnings(self, scale):
        # the likelihood overflows on the way to the non-finite total that fit checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite evaluation log-likelihood"):
                fit(scaled_dataset(scale), FitConfig(n_iterations=10))

    def test_history_is_the_evaluation_loglik_at_every_iteration(self):
        ds = slope_dataset(23)
        spec = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
        cfg = config_for_variant("grboost", spec, n_iterations=12, group_fraction=0.5,
                                 early_stopping=False, lr_mean=0.1, lr_gcov=0.1, lr_rvar=0.1)
        model = fit(ds, cfg)
        _, eval_ds = split_by_groups(ds, 1.0 - cfg.eval_fraction, cfg.seed)
        assert model.q == 2 and len(model.history) == 13
        assert any(not isinstance(h.root, TreeLeaf) for ls in model.ensembles["G"].learners for h in ls)
        for m, ll in enumerate(model.history):
            assert ll == pytest.approx(model_total_loglik(model, eval_ds, upto=m), rel=1e-9)

    @pytest.mark.parametrize("q,kind", [(1, "tree"), (2, "tree"), (2, "linear")])
    def test_each_new_learner_is_evaluated_once_per_iteration(self, monkeypatch, q, kind):
        # T + 2 predict calls per iteration: mean, R and the T factor entries, each
        # on every training row or group summary at once
        ds = slope_dataset(24) if q == 2 else clustered_dataset(np.random.default_rng(24), p=3)
        rows = []
        for cls in (TreeLearner, LinearLearner, ConstantLearner):
            def counted(self, X, cols=None, real=cls.predict):
                rows.append(np.shape(X)[0])
                return real(self, X, cols)
            monkeypatch.setattr(cls, "predict", counted)
        spec = LearnerSpec(kind=kind, tree_min_parent=4, tree_min_child=2)
        cfg = config_for_variant("grboost", spec, n_iterations=7, group_fraction=0.5,
                                 early_stopping=False)
        fit(ds, cfg)
        T = q * (q + 1) // 2
        assert len(rows) == 7 * (T + 2)
        assert rows[: T + 2] == [ds.n_obs] + [ds.n_groups] * T + [ds.n_obs]

    @pytest.mark.parametrize("variant, per_iteration", [
        ("grboost", 2), ("gboost", 2), ("rboost", 1), ("base", 1),
    ])
    def test_one_restriction_per_group_set_a_learner_reads(self, monkeypatch, variant, per_iteration):
        # the mean and R share the rows' restriction, and a set that only constant
        # learners read (G under rboost and base) is not restricted at all
        parents = []
        real = BinnedColumns.restrict

        def counted(self, rows, features):
            parents.append(id(self))
            return real(self, rows, features)

        monkeypatch.setattr(BinnedColumns, "restrict", counted)
        spec = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
        cfg = config_for_variant(variant, spec, n_iterations=6, group_fraction=0.5,
                                 early_stopping=False)
        fit(slope_dataset(25), cfg)
        assert len(parents) == 6 * per_iteration
        assert all(len(set(parents[i : i + per_iteration])) == per_iteration
                   for i in range(0, len(parents), per_iteration))


class TestPresort:
    """fit bins (and so sorts) each group set at most once, and only when a tree needs it."""

    def sorted_shapes(self, monkeypatch, variant, kind, n_iterations, min_parent=4):
        shapes = []
        real = learners._bin

        def counted(cols):
            shapes.append(cols.shape)
            return real(cols)

        monkeypatch.setattr(learners, "_bin", counted)
        ds = clustered_dataset(np.random.default_rng(21), n_groups=40, n_per=3, p=4,
                               mean_fn=lambda X: X[:, 0])
        spec = LearnerSpec(kind=kind, tree_min_parent=min_parent, tree_min_child=2)
        cfg = config_for_variant(variant, spec, n_iterations=n_iterations, group_fraction=0.5,
                                 feature_fraction=0.5, early_stopping=False, eval_fraction=0.25)
        fit(ds, cfg)
        return shapes

    @pytest.mark.parametrize("n_iterations", [3, 30])
    def test_tree_fit_sorts_each_group_set_once(self, monkeypatch, n_iterations):
        # 30 boosting groups of 3 rows, all 4 features
        shapes = self.sorted_shapes(monkeypatch, "grboost", "tree", n_iterations)
        assert sorted(shapes) == [(4, 30), (4, 90)]

    def test_constant_g_sorts_only_the_rows(self, monkeypatch):
        assert self.sorted_shapes(monkeypatch, "rboost", "tree", 10) == [(4, 90)]

    def test_group_sets_below_min_parent_sort_only_the_rows(self, monkeypatch):
        # 15 sampled groups of 3 rows: no G tree can split, every row tree can
        assert self.sorted_shapes(monkeypatch, "grboost", "tree", 10, min_parent=20) == [(4, 90)]

    @pytest.mark.parametrize("variant,kind", [("base", "linear"), ("grboost", "linear")])
    def test_constant_and_linear_learners_sort_nothing(self, monkeypatch, variant, kind):
        assert self.sorted_shapes(monkeypatch, variant, kind, 10) == []


class TestFitTreesEqualTheOracle:
    """Every tree a real fit grows equals the brute-force scan over its set's cuts (==)."""

    def tree_roots(self, monkeypatch, ds, cfg):
        real = boosting.fit_learner
        roots = []

        def compared(columns, pseudo, spec):
            got = real(columns, pseudo, spec)
            cuts = columns.binned()[0]
            assert got == reference_tree(columns.X, pseudo, columns.features, spec, cuts)
            roots.append(got.root)
            return got

        monkeypatch.setattr(boosting, "fit_learner", compared)
        fit(ds, cfg)
        return roots

    def test_expc_pairs(self, monkeypatch):
        # paired rows tie every row-level feature; min_child 20, min_parent 40
        sc = simulate.expc_scenario(seed=4)
        ds, _ = simulate.generate(sc, 800, seed=4)
        cfg = sc.default_config(n_iterations=6, early_stopping=False, seed=4)
        roots = self.tree_roots(monkeypatch, ds, cfg)
        assert len(roots) == 6 * 3
        assert sum(not isinstance(r, TreeLeaf) for r in roots) >= 12

    def test_group_sets_below_min_parent(self, monkeypatch):
        ds = clustered_dataset(np.random.default_rng(22), n_groups=40, n_per=3, p=4,
                               mean_fn=lambda X: X[:, 0])
        spec = LearnerSpec(kind="tree", tree_min_parent=20, tree_min_child=2)
        cfg = config_for_variant("grboost", spec, n_iterations=8, group_fraction=0.5,
                                 feature_fraction=0.5, early_stopping=False, eval_fraction=0.25)
        roots = self.tree_roots(monkeypatch, ds, cfg)
        # per iteration: mean, G (15 groups, a lone leaf), R
        assert len(roots) == 8 * 3
        assert all(isinstance(r, TreeLeaf) for r in roots[1::3])
        assert not all(isinstance(r, TreeLeaf) for r in roots[0::3])


class TestReferenceLoop:
    def test_matches_frozen_variance_mean_boosting(self):
        """With zero variance learning rates the engine reduces to plain
        gradient boosting of the mean against a frozen covariance, which a
        short independent loop reproduces to float accuracy."""
        rng = np.random.default_rng(15)
        ds = clustered_dataset(
            rng, n_groups=32, n_per=2, p=2, mean_fn=lambda X: 2.0 * X[:, 0] - X[:, 1]
        )
        tree = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
        cfg = small_config(
            n_iterations=8,
            lr_mean=0.3,
            lr_gcov=0.0,
            lr_rvar=0.0,
            mean_learner=tree,
            seed=21,
        )
        model = fit(ds, cfg)

        # reference: same split, same initialization, frozen Sigma0
        boost_ds, eval_ds = split_by_groups(ds, 0.75, cfg.seed)
        f0, diag0, logr0 = initialize(boost_ds, 1)
        G0 = diag0**2
        R0 = np.exp(logr0)

        def sigma(n):
            return G0 * np.ones((n, n)) + R0 * np.eye(n)

        Xb = boost_ds.stacked().X
        yb = boost_ds.stacked().y
        sizes = [g.n for g in boost_ds.groups]
        mu = np.full(len(yb), f0)
        mus_eval = [np.full(eval_ds.n_obs, f0)]
        mu_eval = np.full(eval_ds.n_obs, f0)
        Xe = eval_ds.stacked().X
        for m in range(8):
            pseudo = np.empty_like(mu)
            start = 0
            for n_i in sizes:
                sl = slice(start, start + n_i)
                pseudo[sl] = np.linalg.solve(sigma(n_i), yb[sl] - mu[sl])
                start += n_i
            h = fit_learner(BinnedColumns(Xb, (0, 1)), pseudo, tree)
            mu = mu + cfg.lr_mean * h.predict(Xb)
            mu_eval = mu_eval + cfg.lr_mean * h.predict(Xe)
            mus_eval.append(mu_eval.copy())

        for m in range(model.best_iteration + 1):
            np.testing.assert_allclose(
                eval_mean(model, Xe, upto=m), mus_eval[m], rtol=1e-9, atol=1e-12
            )
        # the eval history matches the frozen-covariance likelihood series
        for m in (0, model.best_iteration):
            expected = 0.0
            start = 0
            for g in eval_ds.groups:
                sl = slice(start, start + g.n)
                s = g.y - mus_eval[m][sl]
                S = sigma(g.n)
                sign, logdet = np.linalg.slogdet(S)
                expected += -0.5 * (
                    g.n * np.log(2 * np.pi) + logdet + s @ np.linalg.solve(S, s)
                )
                start += g.n
            assert model.history[m] == pytest.approx(expected, rel=1e-10)


class TestEnsembleSum:
    def test_mixed_learners_equal_one_call_each(self):
        """The evaluator's one feature-major copy per call, shared by every output,
        changes no bit against predicting with each learner on its own."""
        rng = np.random.default_rng(17)
        X = rng.standard_normal((300, 4))
        X[::7, 2] = np.nan
        y = np.sin(2.0 * X[:, 0]) + X[:, 1] * np.nan_to_num(X[:, 2])
        tree = LearnerSpec(kind="tree", tree_max_depth=4, tree_min_parent=4, tree_min_child=2)
        linear = LearnerSpec(kind="linear")
        learners = [
            fit_learner(BinnedColumns(X, feats), y + k * X[:, 3], spec)
            for k, (feats, spec) in enumerate(
                [((0, 1, 2), tree), ((1, 3), linear), ((0, 2, 3), tree), ((0, 1, 3), linear),
                 ((3,), tree)]
            )
        ]
        learners.append(ConstantLearner(0.25))
        assert {type(h) for h in learners} == {TreeLearner, LinearLearner, ConstantLearner}
        Xf = np.asfortranarray(X)
        expected = np.full(300, 1.5)
        for h in learners:
            expected += 0.1 * h.predict(Xf)
        # G's three outputs take the learners in three orders
        orders = [learners, learners[::-1], learners[2:] + learners[:2]]
        model = FittedModel(
            config=FitConfig(lr_mean=0.1, lr_gcov=0.1), feature_names=("a", "b", "c", "d"), q=2,
            treatment_index=None, categorical_features=(), history=[0.0],
            ensembles={"mean": Ensemble(np.array([1.5]), (learners,)),
                       "G": Ensemble(np.array([1.5, 0.0, 1.5]), tuple(orders)),
                       "R": Ensemble(np.array([0.0]), ([],))})
        assert np.array_equal(eval_mean(model, Xf), expected)
        G_sums = boosting._sums(model, "G", Xf, None, None)
        for t, (start, ls) in enumerate(zip(model.ensembles["G"].init, orders)):
            column = np.full(300, start)
            for h in ls:
                column += 0.1 * h.predict(Xf)
            assert np.array_equal(G_sums[:, t], column)


class TestVariantNesting:
    def test_base_is_special_case_of_frozen_rates(self):
        """base with constant learners moves the variance components only by
        flat shifts; rboost with trees must reach a better or equal training
        likelihood on heteroscedastic data."""
        rng = np.random.default_rng(16)
        groups = []
        for i in range(50):
            X = rng.uniform(0, 1, size=(3, 2))
            sd = np.where(X[:, 0] < 0.5, 0.3, 1.5)
            alpha = 0.5 * rng.standard_normal()
            y = alpha + sd * rng.standard_normal(3)
            groups.append(GroupBlock(group_id=i, y=y, X=X, Z=np.ones((3, 1))))
        ds = GroupedDataset(groups=tuple(groups), feature_names=("x1", "x2"))
        tree = LearnerSpec(kind="tree", tree_min_parent=6, tree_min_child=3)
        shared = dict(
            n_iterations=60,
            lr_mean=0.05,
            lr_gcov=0.05,
            lr_rvar=0.1,
            group_fraction=1.0,
            feature_fraction=1.0,
            early_stopping=False,
            eval_fraction=0.25,
            seed=3,
            mean_learner=tree,
        )
        base = fit(ds, FitConfig(gcov_learner=constant_spec(), rvar_learner=constant_spec(), **shared))
        rb = fit(ds, FitConfig(gcov_learner=constant_spec(), rvar_learner=tree, **shared))
        boost_ds, _ = split_by_groups(ds, 0.75, 3)
        ll_base = model_total_loglik(base, boost_ds)
        ll_rb = model_total_loglik(rb, boost_ds)
        assert ll_rb >= ll_base - 1e-6
        # rboost actually uses the heteroscedasticity signal
        X = ds.stacked().X
        r_hat = eval_resid_var(rb, X)
        lo = r_hat[X[:, 0] < 0.5].mean()
        hi = r_hat[X[:, 0] >= 0.5].mean()
        assert hi > lo
