"""Prediction math on hand-built models with known component values."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.stats import norm

from gbmixed import prediction
from gbmixed.boosting import (
    FitConfig,
    FittedModel,
    config_for_variant,
    eval_gcov_rows,
    eval_mean,
    eval_resid_var,
    fit,
)
from gbmixed.data import GroupBlock, GroupedDataset, summarize_groups
from gbmixed.errors import ConfigError, DataError
from gbmixed.learners import LearnerSpec, LinearLearner
from gbmixed.likelihood import chol_with_jitter, marginal_covariance
from gbmixed.prediction import (
    ate,
    blup,
    cate,
    evaluate_components,
    interval_halfwidth,
    ite_variance,
    predict_dataset,
)
from util import staged_prefixes

Z90 = 1.6448536269514722   # standard normal quantile at 0.95
Z95 = 1.959963984540054    # standard normal quantile at 0.975


def const_model(
    f0=0.0,
    L_entries=(1.0,),
    logr0=0.0,
    p=2,
    q=1,
    treatment_index=None,
    lr_mean=0.5,
    mean_learners=(),
):
    """Model with empty or hand-picked ensembles and fixed variance components."""
    config = FitConfig(
        variant="base",
        lr_mean=lr_mean,
        gcov_learner=LearnerSpec(kind="constant"),
        rvar_learner=LearnerSpec(kind="constant"),
    )
    return FittedModel(
        config=config,
        feature_names=tuple(f"x{j + 1}" for j in range(p)),
        q=q,
        treatment_index=treatment_index,
        categorical_features=(),
        mean_init=f0,
        mean_learners=list(mean_learners),
        gcov_init=np.asarray(L_entries, dtype=float),
        gcov_learners=tuple([] for _ in range(len(L_entries))),
        logrvar_init=logr0,
        rvar_learners=[],
        history=[0.0],
        best_iteration=len(mean_learners),
        n_iterations_run=len(mean_learners),
    )


def make_group(gid, y, X, q=1, Z=None):
    Z = np.ones((len(y), q)) if Z is None else Z
    return GroupBlock(group_id=gid, y=np.asarray(y, float), X=np.asarray(X, float), Z=Z)


class TestComponents:
    def test_constant_model_values(self):
        model = const_model(f0=1.5, L_entries=(0.8,), logr0=np.log(0.4), p=2)
        X = np.zeros((3, 2))
        mu, G, r = evaluate_components(model, X)
        np.testing.assert_allclose(mu, np.full(3, 1.5))
        np.testing.assert_allclose(G, [[0.64]])
        np.testing.assert_allclose(r, np.full(3, 0.4))

    def test_width_check(self):
        model = const_model(p=2)
        with pytest.raises(DataError):
            evaluate_components(model, np.zeros((3, 5)))


class TestBlup:
    def test_intercept_closed_form(self):
        # q = 1, Z = 1: u_hat = g * n * mean(y - mu) / (g * n + r)
        g_var, r_var, f0 = 0.81, 0.36, 0.7
        model = const_model(f0=f0, L_entries=(np.sqrt(g_var),), logr0=np.log(r_var))
        y = np.array([2.0, 1.0, 1.5])
        grp = make_group(0, y, np.zeros((3, 2)))
        u = blup(model, grp)
        ebar = float(np.mean(y - f0))
        expected = g_var * 3 * ebar / (g_var * 3 + r_var)
        assert u.shape == (1,)
        assert u[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_solve_q2(self):
        rng = np.random.default_rng(0)
        L = np.array([1.0, 0.3, 0.7])    # tril order: (0,0), (1,0), (1,1)
        Lm = np.array([[1.0, 0.0], [0.3, 0.7]])
        G = Lm @ Lm.T
        r_var = 0.5
        model = const_model(f0=0.0, L_entries=tuple(L), logr0=np.log(r_var), p=2, q=2)
        n = 5
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.standard_normal(n)
        grp = make_group(1, y, rng.standard_normal((n, 2)), q=2, Z=Z)
        Sigma = Z @ G @ Z.T + r_var * np.eye(n)
        expected = G @ Z.T @ np.linalg.solve(Sigma, y)
        np.testing.assert_allclose(blup(model, grp), expected, rtol=1e-10)

    def test_shrinkage_behavior(self):
        model = const_model(f0=0.0, L_entries=(1.0,), logr0=0.0)
        y2 = np.full(2, 1.0)
        y8 = np.full(8, 1.0)
        u2 = blup(model, make_group(0, y2, np.zeros((2, 2))))[0]
        u8 = blup(model, make_group(0, y8, np.zeros((8, 2))))[0]
        assert 0 < u2 < u8 < 1.0    # more data pulls the BLUP toward the residual mean
        noisy = const_model(f0=0.0, L_entries=(1.0,), logr0=np.log(25.0))
        u_noisy = blup(noisy, make_group(0, y2, np.zeros((2, 2))))[0]
        assert u_noisy < u2         # larger residual variance shrinks harder

    def test_missing_responses(self):
        model = const_model(f0=0.0, L_entries=(1.0,), logr0=0.0)
        y = np.array([np.nan, 2.0, np.nan])
        u = blup(model, make_group(0, y, np.zeros((3, 2))))
        expected = 1.0 * 2.0 / (1.0 + 1.0)    # only the finite row participates
        assert u[0] == pytest.approx(expected, rel=1e-12)
        all_nan = make_group(0, np.full(2, np.nan), np.zeros((2, 2)))
        np.testing.assert_array_equal(blup(model, all_nan), np.zeros(1))


class TestIntervals:
    def test_halfwidth_quantiles(self):
        var = np.array([4.0])
        assert interval_halfwidth(var, 0.10)[0] == pytest.approx(2 * Z90, rel=1e-12)
        assert interval_halfwidth(var, 0.05)[0] == pytest.approx(2 * Z95, rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            interval_halfwidth(np.ones(1), 0.0)
        with pytest.raises(ConfigError):
            interval_halfwidth(np.ones(1), 1.0)

    def test_known_group_interval(self):
        # q = 1, Z = 1: u_hat = g * n * mean(y - mu) / (g * n + r)
        g_var, r_var = 0.25, 0.75
        model = const_model(f0=0.0, L_entries=(0.5,), logr0=np.log(r_var))
        y = np.array([0.9, 0.7])
        ds = GroupedDataset(groups=(make_group(0, y, np.zeros((2, 2))),), feature_names=("x1", "x2"))
        table = predict_dataset(model, ds, alpha=0.1)
        u = g_var * 2 * y.mean() / (g_var * 2 + r_var)
        np.testing.assert_allclose(table.mu_conditional, np.full(2, u))
        np.testing.assert_allclose(table.var_total, np.full(2, g_var + r_var))
        np.testing.assert_allclose(table.hi - table.mu_conditional, Z90 * np.sqrt(g_var + r_var))
        np.testing.assert_allclose(table.mu_conditional - table.lo, Z90 * np.sqrt(g_var + r_var))

    def test_unknown_group_variants(self):
        g_var, r_var = 0.25, 0.75
        model = const_model(f0=0.2, L_entries=(0.5,), logr0=np.log(r_var))
        unseen = make_group(0, np.full(3, np.nan), np.zeros((3, 2)))
        ds = GroupedDataset(groups=(unseen,), feature_names=("x1", "x2"))
        table = predict_dataset(model, ds, alpha=0.1)
        assert not table.known_group.any()
        np.testing.assert_allclose(table.mu_conditional, table.mu_marginal)
        np.testing.assert_allclose(table.var_total, np.full(3, g_var + r_var))
        reduced = predict_dataset(model, ds, alpha=0.1, reduced_new_group_variance=True)
        np.testing.assert_allclose(reduced.var_total, np.full(3, r_var))


class TestPredictDataset:
    def build_ds(self, ids, rng, n_per=3):
        groups = [
            make_group(gid, rng.standard_normal(n_per), rng.standard_normal((n_per, 2)))
            for gid in ids
        ]
        return GroupedDataset(groups=tuple(groups), feature_names=("x1", "x2"))

    def test_self_history_and_row_order(self):
        rng = np.random.default_rng(1)
        ds = self.build_ds([3, 1, 2], rng)
        model = const_model(f0=0.0, L_entries=(1.0,), logr0=0.0)
        table = predict_dataset(model, ds)
        assert table.group_ids == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert table.known_group.all()
        # conditional differs from marginal for groups with real responses
        assert np.all(np.abs(table.mu_conditional - table.mu_marginal) > 0)

    def test_training_groups_drive_blups(self):
        rng = np.random.default_rng(2)
        train = self.build_ds([1, 2], rng)
        test = self.build_ds([2, 9], rng)
        model = const_model(f0=0.0, L_entries=(1.0,), logr0=0.0)
        table = predict_dataset(model, test, training_groups=train)
        known = np.array(table.group_ids) == 2
        assert table.known_group[known].all()
        assert not table.known_group[~known].any()
        np.testing.assert_allclose(
            table.mu_conditional[~known], table.mu_marginal[~known]
        )
        # the BLUP for group 2 comes from the training rows
        u = blup(model, train.groups[1])
        np.testing.assert_allclose(
            table.mu_conditional[known] - table.mu_marginal[known], u[0]
        )

    def test_feature_name_mismatch(self):
        rng = np.random.default_rng(3)
        ds = self.build_ds([1, 2], rng)
        model = const_model(p=3)
        with pytest.raises(DataError):
            predict_dataset(model, ds)
        renamed = GroupedDataset(groups=ds.groups, feature_names=("x1", "z"))
        with pytest.raises(DataError, match="feature names"):
            predict_dataset(const_model(), ds, training_groups=renamed)

    def test_random_effect_width_mismatch(self):
        rng = np.random.default_rng(3)
        ds = self.build_ds([1, 2], rng)
        model = const_model(L_entries=(1.0, 0.0, 1.0), q=2)
        with pytest.raises(DataError):
            predict_dataset(model, ds)

    def test_categorical_mismatch(self):
        # a dataset's summaries follow its own categorical features, so they must be the model's
        rng = np.random.default_rng(3)
        ds = self.build_ds([1, 2], rng)
        model = replace(const_model(), categorical_features=(1,))
        with pytest.raises(DataError, match="categorical"):
            predict_dataset(model, ds)
        tagged = summarize_groups(ds, categorical=(1,))
        assert predict_dataset(model, tagged).known_group.all()
        with pytest.raises(DataError, match="categorical"):
            predict_dataset(model, tagged, training_groups=ds)


def reference_table(model, ds, training_groups=None, alpha=0.1, reduced=False):
    """Group-by-group predictions: the marginal covariance and a dense solve per group."""
    source = training_groups if training_groups is not None else ds
    history = {g.group_id: g for g in source.groups if np.isfinite(g.y).any()}
    z = norm.ppf(1.0 - alpha / 2.0)

    cols = {k: [] for k in ("mu_marginal", "mu_conditional", "var_total", "lo", "hi", "known_group")}
    for g in ds.groups:
        mu = eval_mean(model, g.X)
        G = eval_gcov_rows(model, g.x_tilde[None, :])[0]
        r = eval_resid_var(model, g.X)
        var = np.einsum("nq,qr,nr->n", g.Z, G, g.Z) + r
        h = history.get(g.group_id)
        if h is None:
            cond = mu.copy()
            if reduced:
                var = r.copy()
        else:
            keep = np.isfinite(h.y)
            Gh = eval_gcov_rows(model, h.x_tilde[None, :])[0]
            Zh = h.Z[keep]
            Sigma = marginal_covariance(Zh, Gh, eval_resid_var(model, h.X[keep]))
            resid = h.y[keep] - eval_mean(model, h.X[keep])
            u = Gh @ (Zh.T @ cho_solve(chol_with_jitter(Sigma, h.group_id), resid))
            cond = mu + g.Z @ u
        half = z * np.sqrt(var)
        for name, col in zip(cols, (mu, cond, var, cond - half, cond + half, np.full(g.n, h is not None))):
            cols[name].append(col)
    ids = [g.group_id for g in ds.groups for _ in range(g.n)]
    return ids, {name: np.concatenate(parts) for name, parts in cols.items()}


def slope_groups(rng, ids, nan_rows=(), all_nan=()):
    """Groups of 3-6 rows with Z = [1, x1]; some responses replaced by nan."""
    groups = []
    for gid in ids:
        n = 3 + gid % 4
        X = rng.standard_normal((n, 3))
        Z = np.column_stack([np.ones(n), X[:, 0]])
        y = X[:, 1] + rng.standard_normal() + 0.5 * rng.standard_normal() * X[:, 0]
        y = y + 0.5 * rng.standard_normal(n)
        if gid in nan_rows:
            y[::2] = np.nan
        if gid in all_nan:
            y[:] = np.nan
        groups.append(GroupBlock(group_id=gid, y=y, X=X, Z=Z))
    return GroupedDataset(groups=tuple(groups), feature_names=("x1", "x2", "x3"))


@pytest.fixture(scope="module")
def slope_model():
    train = slope_groups(np.random.default_rng(11), range(30))
    spec = LearnerSpec(kind="tree", tree_min_child=2, tree_min_parent=4)
    cfg = config_for_variant("grboost", spec, n_iterations=8, early_stopping=False, seed=0)
    return fit(train, cfg)


class TestStackedPrediction:
    """predict_dataset against the group-by-group reference, value for value."""

    def served_and_history(self, summarized):
        rng = np.random.default_rng(12)
        # history: 2 has some nan responses, 5 has none finite, 100 is never served;
        # served: 8-11 have no history at all
        history = slope_groups(rng, [0, 1, 2, 3, 4, 5, 6, 7, 100], nan_rows=(2,), all_nan=(5,))
        served = slope_groups(rng, range(2, 12))
        if summarized:
            # attached summaries that no aggregation of the rows would give
            history, served = (
                GroupedDataset(
                    groups=tuple(replace(g, x_tilde=g.X[-1] + 0.5) for g in d.groups),
                    feature_names=d.feature_names,
                )
                for d in (history, served)
            )
        return served, history

    @pytest.mark.parametrize("summarized", [True, False])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_reference_with_training_groups(self, slope_model, summarized, reduced):
        served, history = self.served_and_history(summarized)
        table = predict_dataset(
            slope_model, served, training_groups=history, reduced_new_group_variance=reduced
        )
        ids, ref = reference_table(slope_model, served, history, reduced=reduced)
        assert table.group_ids == ids
        for name, col in ref.items():
            assert np.array_equal(getattr(table, name), col), name
        known = {gid for gid, k in zip(table.group_ids, table.known_group) if k}
        assert known == {2, 3, 4, 6, 7}

    @pytest.mark.parametrize("reduced", [False, True])
    def test_matches_reference_on_own_history(self, slope_model, reduced):
        rng = np.random.default_rng(13)
        ds = slope_groups(rng, [4, 1, 3, 2], nan_rows=(1,), all_nan=(3,))
        table = predict_dataset(slope_model, ds, alpha=0.05, reduced_new_group_variance=reduced)
        ids, ref = reference_table(slope_model, ds, alpha=0.05, reduced=reduced)
        assert table.group_ids == ids == [1] * 4 + [2] * 5 + [3] * 6 + [4] * 3
        for name, col in ref.items():
            assert np.array_equal(getattr(table, name), col), name

    @pytest.mark.parametrize("own_history", [True, False])
    def test_each_row_evaluated_once(self, slope_model, monkeypatch, own_history):
        rng = np.random.default_rng(14)
        ds = slope_groups(rng, [4, 1, 3, 2], nan_rows=(1,), all_nan=(3,))
        calls = {"mean": [], "rvar": []}

        def counted(name, fn):
            def wrapper(model, X, *args, **kw):
                calls[name].append(len(X))
                return fn(model, X, *args, **kw)
            return wrapper

        monkeypatch.setattr(prediction, "eval_mean", counted("mean", eval_mean))
        monkeypatch.setattr(prediction, "eval_resid_var", counted("rvar", eval_resid_var))
        predict_dataset(slope_model, ds, training_groups=None if own_history else ds)
        n = ds.n_obs
        finite = sum(int(np.isfinite(g.y).sum()) for g in ds.groups)
        expected = [n] if own_history else [n, finite]
        assert sorted(calls["mean"]) == sorted(calls["rvar"]) == sorted(expected)

    def test_blup_is_one_row_of_the_batch(self, slope_model):
        _, history = self.served_and_history(summarized=True)
        batch = prediction._blups(slope_model, history.groups)
        assert batch.shape == (history.n_groups, 2)
        for g, row in zip(history.groups, batch):
            assert np.array_equal(blup(slope_model, g), row)
        np.testing.assert_array_equal(batch[history.group_ids().index(5)], np.zeros(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tree_ensembles_are_batch_invariant(slope_model, seed):
    """Tree ensembles evaluated on stacked rows equal the same calls on any
    chunking of those rows, empty chunks included, bit for bit."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 150))
    X = rng.standard_normal((n, 3))
    X[rng.random((n, 3)) < 0.05] = np.nan
    cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 6))))
    for fn in (eval_mean, eval_resid_var, eval_gcov_rows):
        whole = fn(slope_model, X)
        parts = np.concatenate([fn(slope_model, chunk) for chunk in np.split(X, cuts)])
        assert np.array_equal(whole, parts)


def test_staged_prefixes_equal_truncated_evaluation(slope_model):
    """The running-sum prefixes of tests/util.py are the upto=m evaluations,
    bit for bit, at every prefix of a q = 2 model."""
    ds = slope_groups(np.random.default_rng(13), range(12))
    X, Xt = ds.stacked().X, ds.x_tilde_matrix()
    seen = []
    for m, r, G in staged_prefixes(slope_model, X, Xt):
        assert np.array_equal(r, eval_resid_var(slope_model, X, upto=m))
        assert np.array_equal(G, eval_gcov_rows(slope_model, Xt, upto=m))
        seen.append(m)
    assert seen == list(range(slope_model.best_iteration + 1))


class TestTreatmentEffects:
    def linear_model(self, beta_t=0.8, lr=0.5, p=3, t=2, **kw):
        h = LinearLearner(features=(t,), coef=np.array([beta_t]), intercept=0.0, n_features=p)
        return const_model(
            f0=0.0, p=p, treatment_index=t, lr_mean=lr, mean_learners=(h,), **kw
        )

    def test_cate_linear_exact(self):
        model = self.linear_model(beta_t=0.8, lr=0.5)
        X = np.random.default_rng(4).standard_normal((6, 3))
        np.testing.assert_allclose(cate(model, X), np.full(6, 0.4), rtol=1e-12)
        np.testing.assert_allclose(
            cate(model, X, levels=(2.0, 0.0)), np.full(6, 0.8), rtol=1e-12
        )
        assert ate(model, X) == pytest.approx(0.4, rel=1e-12)

    def test_cate_zero_when_mean_ignores_treatment(self):
        model = const_model(p=3, treatment_index=2)
        X = np.random.default_rng(5).standard_normal((4, 3))
        np.testing.assert_allclose(cate(model, X), np.zeros(4))

    def test_treatment_index_handling(self):
        model = const_model(p=3, treatment_index=None)
        X = np.zeros((2, 3))
        with pytest.raises(ConfigError):
            cate(model, X)
        np.testing.assert_allclose(cate(model, X, treatment_index=1), np.zeros(2))
        with pytest.raises(ConfigError):
            cate(model, X, treatment_index=7)

    def test_ite_variance_intercept_cancellation(self):
        # shared intercept random effect drops out of Y(1) - Y(0)
        r_var = 0.6
        model = const_model(
            f0=0.0, L_entries=(2.0,), logr0=np.log(r_var), p=3, treatment_index=2
        )
        n = 4
        X = np.random.default_rng(6).standard_normal((n, 3))
        Z = np.ones((n, 1))
        xt = np.tile(X.mean(axis=0), (n, 1))
        v = ite_variance(model, X, Z, xt)
        np.testing.assert_allclose(v, np.full(n, 2 * r_var), rtol=1e-12)

    def test_ite_variance_with_treatment_slope(self):
        # q = 2 with a treatment slope: variance adds the slope variance G[1,1]
        L = (1.0, 0.3, 0.7)
        Lm = np.array([[1.0, 0.0], [0.3, 0.7]])
        G = Lm @ Lm.T
        r_var = 0.5
        model = const_model(
            f0=0.0, L_entries=L, logr0=np.log(r_var), p=3, q=2, treatment_index=2
        )
        n = 5
        rng = np.random.default_rng(7)
        X = rng.standard_normal((n, 3))
        w = rng.integers(0, 2, size=n).astype(float)
        Z = np.column_stack([np.ones(n), w])
        xt = np.tile(X.mean(axis=0), (n, 1))
        v = ite_variance(model, X, Z, xt, z_treatment_index=1)
        np.testing.assert_allclose(v, np.full(n, G[1, 1] + 2 * r_var), rtol=1e-12)

    def test_ite_variance_shape_checks(self):
        model = const_model(p=2, treatment_index=1)
        X = np.zeros((3, 2))
        with pytest.raises(DataError):
            ite_variance(model, X, np.ones((2, 1)), np.zeros((3, 2)))
        with pytest.raises(DataError):
            ite_variance(model, X, np.ones((3, 1)), np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            ite_variance(model, X, np.ones((3, 1)), np.zeros((3, 2)), z_treatment_index=5)
