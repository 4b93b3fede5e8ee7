"""Data generating processes, scoring, and the replication harness.

Frozen constants come from closed forms or adaptive quadrature computed
independently of the scenario code: the steep sigmoid at its center and
endpoints, and E[tau^2] = (integral of sigmoid^2 over the unit interval)^2
for the product-form treatment effect on uniform covariates.
"""

import numpy as np
import pytest

from gbmixed.boosting import FitConfig
from gbmixed.config import SIMULATE_KEYS
from gbmixed.data import split_by_groups, summarize_matrix
from gbmixed.errors import ConfigError
from gbmixed.learners import LearnerSpec
from gbmixed.simulate import (
    SCENARIOS,
    TRAIN_FRACTION,
    GroundTruth,
    ReplicationReport,
    ScoreRow,
    _worker_count,
    expa_scenario,
    expb_scenario,
    expc_scenario,
    generate,
    report_csv_rows,
    run_replication,
    run_replications,
    scenario_by_name,
    score,
    score_predictions,
    steep_sigmoid,
    truth_rows_for,
    two_group_sd_scenario,
)

E_TAU_SQ = 0.38027792767486834   # quadrature of the product-sigmoid effect


class TestSigmoid:
    def test_frozen_values(self):
        assert steep_sigmoid(1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
        assert steep_sigmoid(0.0) == pytest.approx(0.0012710162630813592, rel=1e-12)
        assert steep_sigmoid(1.0) == pytest.approx(0.9999983804058309, rel=1e-12)

    def test_monotone_and_bounded(self):
        x = np.linspace(-1, 2, 301)
        v = steep_sigmoid(x)
        assert np.all(np.diff(v) > 0)
        assert v.min() > 0.0 and v.max() < 1.0


class TestScenarioDefinitions:
    def test_registry(self):
        assert set(SCENARIOS) == {
            "expA",
            "expB",
            "expB_diagnostic",
            "expC",
            "two_group_sd",
        }
        assert scenario_by_name("expB", seed=5).seed == 5
        with pytest.raises(ConfigError):
            scenario_by_name("expZ")

    def test_expb_variance_functions(self):
        sc = expb_scenario()
        X = np.zeros((3, 30))
        X[0, 1], X[0, 4] = 0.5, 0.0     # r = 0.3
        X[1, 1], X[1, 4] = 0.0, 0.0     # r = 0.3 + 0.2
        X[2, 1], X[2, 4] = 0.0, 1.0     # r = 0.3 + 0.2 + 0.4
        np.testing.assert_allclose(sc.resid_var_fn(X), [0.3, 0.5, 0.9])
        np.testing.assert_allclose(sc.group_var_fn(np.zeros((2, 30))), [0.25, 0.25])
        cfg = sc.default_config()
        assert cfg.variant == "rboost" and cfg.lr_mean == 0.01

    def test_expc_variance_functions(self):
        sc = expc_scenario()
        X = np.zeros((2, 30))
        X[0, 4] = 0.5
        X[1, 4] = 1.0
        np.testing.assert_allclose(sc.resid_var_fn(X), [0.4, 0.6])
        Xt = np.zeros((3, 30))
        Xt[0, 2] = 0.5
        Xt[1, 2] = 0.0
        Xt[2, 2] = 1.0
        np.testing.assert_allclose(sc.group_var_fn(Xt), [0.5, 1.25, 1.25])
        cfg = sc.default_config()
        assert cfg.variant == "grboost" and cfg.lr_mean == 0.03

    def test_expa_shape_and_constants(self):
        sc = expa_scenario()
        assert sc.n_features == 300
        np.testing.assert_allclose(sc.resid_var_fn(np.zeros((4, 300))), np.full(4, 0.47))
        np.testing.assert_allclose(sc.group_var_fn(np.zeros((4, 300))), np.full(4, 2.25))
        rng = np.random.default_rng(0)
        X = sc.covariates(rng, 2000)
        assert X.shape == (2000, 300)
        assert set(np.unique(X[:, 2])) <= {0.0, 1.0}
        assert np.all(X[:, 3] >= 0) and np.allclose(X[:, 3], np.round(X[:, 3]))
        assert 0.0 <= X[:, 1].min() and X[:, 1].max() <= 2.0

    def test_expa_mean_formula(self):
        sc = expa_scenario()
        X = np.zeros((1, 300))
        X[0, :5] = [1.0, 2.0, 1.0, 3.0, 2.0]
        expected = 0.5 * np.sin(1.0) + 0.1 * 4.0 + 0.1 * 3.0 + 0.3 * np.log(4.0) * 2.0 + 2.0
        assert sc.mean_fn(X)[0] == pytest.approx(expected, rel=1e-12)

    def test_two_group_sd_levels(self):
        sc = two_group_sd_scenario(sd_low=0.5, sd_high=2.0)
        Xt = np.zeros((2, 30))
        Xt[0, 2] = 0.2
        Xt[1, 2] = 0.8
        np.testing.assert_allclose(sc.group_var_fn(Xt), [0.25, 4.0])

    def test_default_config_forces_treatment(self):
        sc = expb_scenario()
        cfg = sc.default_config()
        assert cfg.force_include == (30,)
        assert cfg.n_iterations == 500
        assert cfg.variant == "rboost"
        assert not cfg.early_stopping
        assert cfg.lr_rvar == 0.01
        cfg2 = sc.default_config(n_iterations=7)
        assert cfg2.n_iterations == 7


TREE = LearnerSpec(kind="tree")
CONST = LearnerSpec(kind="constant")
COARSE_TREE = LearnerSpec(kind="tree", tree_min_parent=40, tree_min_child=20)
COARSE_CONST = LearnerSpec(kind="constant", tree_min_parent=40, tree_min_child=20)
FULL_FACTOR = FitConfig(
    variant="grboost",
    n_iterations=800,
    lr_mean=0.03,
    lr_gcov=0.01,
    lr_rvar=0.01,
    group_fraction=0.4,
    feature_fraction=1.0,
    mean_learner=COARSE_TREE,
    gcov_learner=COARSE_TREE,
    rvar_learner=COARSE_TREE,
    lookback=60,
    tolerance=1e-4,
    early_stopping=True,
    eval_fraction=0.05,
    seed=0,
    force_include=(30,),
    verbose=False,
)

# every field written out, so a changed FitConfig default shows up here
PINNED_CONFIGS = {
    "expA": FitConfig(
        variant="base",
        n_iterations=500,
        lr_mean=0.03,
        lr_gcov=0.03,
        lr_rvar=0.03,
        group_fraction=0.2,
        feature_fraction=0.7,
        mean_learner=TREE,
        gcov_learner=CONST,
        rvar_learner=CONST,
        lookback=25,
        tolerance=1e-3,
        early_stopping=False,
        eval_fraction=0.05,
        seed=0,
        force_include=(300,),
        verbose=False,
    ),
    "expB": FitConfig(
        variant="rboost",
        n_iterations=500,
        lr_mean=0.01,
        lr_gcov=0.01,
        lr_rvar=0.01,
        group_fraction=0.2,
        feature_fraction=0.7,
        mean_learner=TREE,
        gcov_learner=CONST,
        rvar_learner=TREE,
        lookback=25,
        tolerance=1e-3,
        early_stopping=False,
        eval_fraction=0.05,
        seed=0,
        force_include=(30,),
        verbose=False,
    ),
    "expB_diagnostic": FitConfig(
        variant="rboost",
        n_iterations=1000,
        lr_mean=0.01,
        lr_gcov=0.01,
        lr_rvar=0.03,
        group_fraction=0.4,
        feature_fraction=1.0,
        mean_learner=COARSE_TREE,
        gcov_learner=COARSE_CONST,
        rvar_learner=COARSE_TREE,
        lookback=25,
        tolerance=1e-3,
        early_stopping=False,
        eval_fraction=0.05,
        seed=0,
        force_include=(30,),
        verbose=False,
    ),
    "expC": FULL_FACTOR,
    "two_group_sd": FULL_FACTOR,
}


class TestScenarioConfigs:
    def test_every_scenario_is_pinned(self):
        assert sorted(PINNED_CONFIGS) == sorted(SCENARIOS)

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_default_config_is_pinned(self, name):
        assert scenario_by_name(name).default_config() == PINNED_CONFIGS[name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_settings_use_the_set_keys(self, name):
        keys = [k for k, _ in scenario_by_name(name).settings]
        assert keys and set(keys) <= set(SIMULATE_KEYS)
        assert len(set(keys)) == len(keys)


class TestGenerate:
    def test_structure(self):
        sc = expb_scenario()
        ds, truth = generate(sc, 400, seed=1)
        assert ds.n_groups == 200 and ds.n_obs == 400
        assert ds.feature_names[-1] == "w"
        assert ds.treatment_index == 30
        for g in ds.groups:
            assert np.array_equal(g.x_tilde, summarize_matrix(g.X))
            assert g.n == 2
            w = g.X[:, -1]
            assert sorted(w.tolist()) == [0.0, 1.0]    # exactly one treated per pair
        assert truth.tau.shape == (400,)
        assert truth.group_var.shape == (200,)

    def test_observed_equals_selected_potential(self):
        sc = expc_scenario()
        ds, truth = generate(sc, 200, seed=3)
        for i, g in enumerate(ds.groups):
            rows = [2 * i, 2 * i + 1]
            w = g.X[:, -1]
            expected = np.where(w == 1.0, truth.y1[rows], truth.y0[rows])
            np.testing.assert_array_equal(g.y, expected)

    def test_pair_summary_excludes_treatment_effectively(self):
        sc = expb_scenario()
        ds, _ = generate(sc, 200, seed=4)
        Xt = ds.x_tilde_matrix()
        np.testing.assert_allclose(Xt[:, -1], np.full(100, 0.5))
        g0 = ds.groups[0]
        np.testing.assert_allclose(Xt[0, :-1], g0.X[:, :-1].mean(axis=0))

    def test_alpha_variance_matches_group_var(self):
        sc = expb_scenario()
        _, truth = generate(sc, 8000, seed=5)
        assert float(np.var(truth.alpha, ddof=1)) == pytest.approx(0.25, rel=0.1)

    def test_realized_effect_noise_scale(self):
        # Y(1) - Y(0) - tau = eps1 - eps0, with variance 2 r(x) on average
        sc = expb_scenario()
        _, truth = generate(sc, 20000, seed=6)
        noise = truth.y1 - truth.y0 - truth.tau
        assert float(np.var(noise)) == pytest.approx(
            2.0 * float(np.mean(truth.resid_var)), rel=0.05
        )

    def test_constant_zero_cate_mse_oracle(self):
        # predicting zero effect for everyone scores E[tau^2] on expB
        sc = expb_scenario()
        _, truth = generate(sc, 60000, seed=7)
        assert float(np.mean(truth.tau**2)) == pytest.approx(E_TAU_SQ, abs=0.01)

    def test_determinism_and_seed_sensitivity(self):
        sc = expb_scenario()
        ds1, t1 = generate(sc, 200, seed=9)
        ds2, t2 = generate(sc, 200, seed=9)
        np.testing.assert_array_equal(t1.y0, t2.y0)
        np.testing.assert_array_equal(ds1.stacked().X, ds2.stacked().X)
        _, t3 = generate(sc, 200, seed=10)
        assert not np.array_equal(t1.y0, t3.y0)

    def test_bad_sizes(self):
        sc = expb_scenario()
        with pytest.raises(ConfigError):
            generate(sc, 201)
        with pytest.raises(ConfigError):
            generate(sc, 2)


class TestTruthRestriction:
    def test_split_alignment(self):
        sc = expc_scenario()
        ds, truth = generate(sc, 300, seed=11)
        train, test = split_by_groups(ds, TRAIN_FRACTION, seed=11)
        sub = truth_rows_for(test, truth)
        assert sub.tau.shape == (test.n_obs,)
        assert sub.group_var.shape == (test.n_groups,)
        start = 0
        for g in test.groups:
            w = g.X[:, -1]
            expected = np.where(w == 1.0, sub.y1[start : start + 2], sub.y0[start : start + 2])
            np.testing.assert_array_equal(g.y, expected)
            start += 2


class TestScoring:
    def test_score_predictions_hand_case(self):
        row = score_predictions(
            tau_hat=np.array([0.0, 0.0]),
            var_delta=np.array([1.0, 1.0]),
            realized_delta=np.array([0.5, 10.0]),
            tau_true=np.array([1.0, 0.0]),
            alpha=0.1,
        )
        assert row.cate_mse == pytest.approx(0.5)
        assert row.coverage == pytest.approx(50.0)
        assert row.r_mse is None and row.g_mse is None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_score_predictions_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            score_predictions(
                tau_hat=np.zeros(2),
                var_delta=np.ones(2),
                realized_delta=np.zeros(2),
                tau_true=np.zeros(2),
                alpha=alpha,
            )

    def test_variance_metrics(self):
        row = score_predictions(
            tau_hat=np.zeros(2),
            var_delta=np.ones(2),
            realized_delta=np.zeros(2),
            tau_true=np.zeros(2),
            r_hat=np.array([0.5, 0.5]),
            r_true=np.array([0.4, 0.8]),
            g_hat=np.array([1.0]),
            g_true=np.array([2.0]),
        )
        assert row.r_mse == pytest.approx(0.5 * (0.01 + 0.09))
        assert row.g_mse == pytest.approx(1.0)

    def test_score_reports_by_variant(self):
        sc = expb_scenario()
        ds, truth = generate(sc, 200, seed=12)
        train, test = split_by_groups(ds, TRAIN_FRACTION, seed=12)
        cfg = sc.default_config(n_iterations=3)
        from gbmixed.boosting import fit

        model = fit(train, cfg)
        row = score(model, test, truth_rows_for(test, truth))
        assert row.r_mse is not None      # rboost models the residual variance
        assert row.g_mse is None
        assert 0.0 <= row.coverage <= 100.0


class TestReplications:
    def test_single_replication_reproducible(self):
        sc = expb_scenario(seed=2)
        cfg = sc.default_config(n_iterations=4)
        _, row1, seed1 = run_replication(sc, 120, rep=3, config=cfg)
        _, row2, seed2 = run_replication(sc, 120, rep=3, config=cfg)
        assert seed1 == seed2 == 5
        assert row1 == row2

    def test_report_aggregation(self, monkeypatch):
        monkeypatch.setenv("GBMIXED_THREADS", "1")
        sc = expb_scenario()
        cfg = sc.default_config(n_iterations=3)
        report = run_replications(sc, n_obs=120, reps=2, config=cfg)
        assert isinstance(report, ReplicationReport)
        assert len(report.rows) == 2
        mean, sd = report.cate_mse
        vals = [r.cate_mse for r in report.rows]
        assert mean == pytest.approx(np.mean(vals))
        assert sd == pytest.approx(np.std(vals, ddof=1))
        g_mean, g_sd = report.g_mse
        assert g_mean is None and g_sd is None

    def test_single_rep_sd_zero(self):
        report = ReplicationReport(
            scenario="expB",
            variant="rboost",
            rows=(ScoreRow(cate_mse=0.1, coverage=90.0, r_mse=0.02),),
        )
        assert report.cate_mse == (pytest.approx(0.1), 0.0)
        assert report.coverage == (pytest.approx(90.0), 0.0)

    def test_reps_match_manual_loop(self, monkeypatch):
        monkeypatch.setenv("GBMIXED_THREADS", "1")
        sc = expc_scenario(seed=4)
        cfg = sc.default_config(n_iterations=2)
        report = run_replications(sc, n_obs=120, reps=2, config=cfg)
        manual = [run_replication(sc, 120, rep=r, config=cfg)[1] for r in range(2)]
        assert list(report.rows) == manual

    def test_keep_models(self, monkeypatch):
        monkeypatch.setenv("GBMIXED_THREADS", "1")
        sc = expb_scenario()
        cfg = sc.default_config(n_iterations=2)
        report, models = run_replications(sc, n_obs=120, reps=2, config=cfg, keep_models=True)
        assert len(models) == 2
        assert all(m is not None for m in models)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("GBMIXED_THREADS", "abc")
        with pytest.raises(ConfigError):
            _worker_count(4)
        monkeypatch.setenv("GBMIXED_THREADS", "0")
        with pytest.raises(ConfigError):
            _worker_count(4)
        monkeypatch.setenv("GBMIXED_THREADS", "2")
        assert _worker_count(8) <= 2
        assert _worker_count(1) == 1
        monkeypatch.delenv("GBMIXED_THREADS")
        assert _worker_count(4) >= 1

    def test_bad_reps(self):
        with pytest.raises(ConfigError):
            run_replications(expb_scenario(), n_obs=100, reps=0)


class TestReportCsv:
    def test_layout(self):
        report = ReplicationReport(
            scenario="expB",
            variant="rboost",
            rows=(
                ScoreRow(cate_mse=0.1, coverage=90.0, r_mse=0.02),
                ScoreRow(cate_mse=0.2, coverage=88.0, r_mse=0.04),
            ),
        )
        rows = report_csv_rows(report)
        assert rows[0][0] == "row"
        assert len(rows) == 4                     # header, two reps, aggregate
        assert rows[1][0] == "rep0" and rows[2][0] == "rep1"
        assert rows[3][0] == "aggregate"
        assert rows[1][7] == ""                   # no g metric for rboost
        assert float(rows[3][2]) == pytest.approx(0.15)
        assert float(rows[3][4]) == pytest.approx(89.0)
