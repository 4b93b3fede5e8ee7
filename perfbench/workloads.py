"""The benchmark's two workloads: input generation, inference and scoring.

Every input comes from a draw seed; the program only ever sees the generated
data. gbmixed is always called through its module attributes
(``boosting.fit``, ``prediction.predict_dataset``, ...) so that the traced
run can wrap a layer by replacing the name where its caller looks it up.

pairs     expC matched pairs (grboost, q = 1, two rows per group, 31
          features), 60/40 split by pairs, fixed iteration count. Tree growth
          dominates the fit and inference is per-group overhead over tiny
          groups, so it exercises the learners and the stacked-prediction
          paths and bypasses the dense likelihood kernel.
clusters  longitudinal clusters of 20-200 rows with Z = [1, t] (q = 2), fitted
          on each cluster's first 70% of rows and forecast on the rest. The
          size-bucketed dense kernel dominates the fit (sizes rarely repeat,
          so a kernel call serves about one group), and inference serves a
          few long histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from gbmixed import boosting, diagnostics, prediction, simulate
from gbmixed.boosting import config_for_variant
from gbmixed.data import ColumnSchema, GroupBlock, GroupedDataset, split_by_groups, summarize_groups
from gbmixed.learners import LearnerSpec

ALPHA = 0.1   # 90% intervals throughout


@dataclass
class Prepared:
    """One draw's inputs, before the training rows go through CSV."""

    train: GroupedDataset
    test: GroupedDataset
    schema: ColumnSchema
    config: boosting.FitConfig
    truth: dict


def interval_score(lo, hi, y, alpha=ALPHA) -> float:
    """Mean interval score of central (1 - alpha) intervals (lower is better).

    Width plus 2/alpha times the distance by which y falls outside; a proper
    scoring rule, so neither too-narrow nor too-wide intervals can win.
    """
    below = np.maximum(lo - y, 0.0)
    above = np.maximum(y - hi, 0.0)
    return float(np.mean((hi - lo) + (2.0 / alpha) * (below + above)))


def _subset(ds: GroupedDataset, groups) -> GroupedDataset:
    return GroupedDataset(
        groups=tuple(groups),
        feature_names=ds.feature_names,
        treatment_index=ds.treatment_index,
        categorical_features=ds.categorical_features,
    )


def _explain(model, background: np.ndarray, mean_feature: str, rvar_feature: str) -> None:
    for component, feature in (("mean", mean_feature), ("R", rvar_feature)):
        diagnostics.variable_importance(model, component)
        diagnostics.partial_dependence(model, component, feature, background)


def _finite_checks(table, tau_hat, var_delta) -> list:
    return [
        ("predictions finite", bool(
            np.all(np.isfinite(table.mu_marginal)) and np.all(np.isfinite(table.mu_conditional))
            and np.all(np.isfinite(tau_hat))
        )),
        ("variances finite and positive", bool(
            np.all(np.isfinite(table.var_total)) and np.all(table.var_total > 0)
            and np.all(np.isfinite(var_delta)) and np.all(var_delta > 0)
        )),
        ("intervals ordered", bool(np.all(table.lo < table.hi))),
    ]


@dataclass(frozen=True)
class Pairs:
    """expC matched pairs at a fixed iteration count with early stopping off."""

    n_obs: int = 4000
    n_iterations: int = 100
    n_predict_groups: int = 100

    name = "pairs"

    def prepare(self, seed: int) -> Prepared:
        sc = simulate.expc_scenario(seed=seed)
        ds, truth = simulate.generate(sc, self.n_obs, seed=seed)
        train, test = split_by_groups(ds, simulate.TRAIN_FRACTION, seed=seed)
        names = ds.feature_names
        schema = ColumnSchema(
            group_col="pair", response_col="y", feature_cols=names, treatment_col=names[-1]
        )
        config = sc.default_config(n_iterations=self.n_iterations, early_stopping=False, seed=seed)
        return Prepared(train, test, schema, config, {"all": truth})

    def infer(self, model, prep: Prepared, train: GroupedDataset) -> dict:
        test = prep.test
        served = _subset(test, test.groups[: self.n_predict_groups])
        known = _subset(test, served.groups[: self.n_predict_groups // 2])
        table = prediction.predict_dataset(model, served, training_groups=known, alpha=ALPHA)
        st = test.stacked()
        xt_rows = np.repeat(test.x_tilde_matrix(), st.sizes, axis=0)
        tau_hat = prediction.cate(model, st.X)
        var_delta = prediction.ite_variance(model, st.X, st.Z, xt_rows)
        truth = simulate.truth_rows_for(test, prep.truth["all"])
        row = simulate.score(model, test, truth, alpha=ALPHA)
        _explain(model, st.X, "x1", "x5")
        return dict(table=table, tau_hat=tau_hat, var_delta=var_delta, truth=truth, row=row)

    def checks(self, out: dict) -> list:
        return _finite_checks(out["table"], out["tau_hat"], out["var_delta"]) + [
            ("score matches cate", bool(np.isclose(
                out["row"].cate_mse, np.mean((out["tau_hat"] - out["truth"].tau) ** 2),
                rtol=1e-12, atol=0.0,
            ))),
        ]

    def quality(self, out: dict, prep: Prepared) -> dict:
        truth = out["truth"]
        half = norm.ppf(1.0 - ALPHA / 2.0) * np.sqrt(out["var_delta"])
        realized = truth.y1 - truth.y0
        return {
            "cate_rmse": float(np.sqrt(np.mean((out["tau_hat"] - truth.tau) ** 2))),
            "interval_score": interval_score(out["tau_hat"] - half, out["tau_hat"] + half, realized),
            "coverage_pct": out["row"].coverage,
        }


# Longitudinal clusters. Covariates: five row-level uniforms x1..x5, one
# group-level covariate g (constant within a cluster), time t, treatment w.
CLUSTER_FEATURES = ("x1", "x2", "x3", "x4", "x5", "g", "t", "w")
_G_COL, _T_COL, _W_COL = 5, 6, 7
TIME_SCALE = 100.0      # t advances by 0.01 per row
FORECAST_FRACTION = 0.3


def _cluster_mean(X):
    return 1.0 + 2.0 * X[:, 0] + X[:, 2] - 0.5 * X[:, _T_COL]


def _cluster_tau(X):
    return simulate.steep_sigmoid(X[:, 3]) * simulate.steep_sigmoid(X[:, 4])


def _cluster_resid_var(X):
    return 0.3 + 0.5 * np.abs(X[:, 1] - 0.5)


def _cluster_factor(g):
    """Cholesky factor of G(g) for Z = [1, t]: both standard deviations grow with |g - 1/2|."""
    sd0 = np.sqrt(0.5 + 1.5 * np.abs(g - 0.5))
    sd1 = 0.3 + 0.6 * np.abs(g - 0.5)
    rho = 0.3
    return sd0, rho * sd1, np.sqrt(1.0 - rho**2) * sd1


@dataclass(frozen=True)
class Clusters:
    """Unequal longitudinal clusters with a random intercept and time slope."""

    n_clusters: int = 50
    min_size: int = 20
    max_size: int = 200
    n_iterations: int = 150

    name = "clusters"

    def sizes(self, rng) -> np.ndarray:
        # Stratified uniform draw: one size from each of n_clusters equal
        # slices of [min_size, max_size], in random order. The sizes are still
        # uniform, but the sum of n_i^3 that sets the kernel's cost no longer
        # swings from seed to seed.
        C = self.n_clusters
        u = (np.arange(C) + rng.random(C)) / C
        sizes = self.min_size + np.floor(u * (self.max_size - self.min_size + 1)).astype(int)
        return rng.permutation(sizes)

    def prepare(self, seed: int) -> Prepared:
        rng = np.random.default_rng(seed)
        train_groups, test_groups, taus = [], [], []
        for i, n in enumerate(self.sizes(rng)):
            X = np.empty((n, len(CLUSTER_FEATURES)))
            X[:, :5] = rng.random((n, 5))
            g = rng.random()
            X[:, _G_COL] = g
            X[:, _T_COL] = np.arange(n) / TIME_SCALE
            X[:, _W_COL] = rng.integers(0, 2, size=n)
            l00, l10, l11 = _cluster_factor(g)
            z0, z1 = rng.standard_normal(2)
            u0, u1 = l00 * z0, l10 * z0 + l11 * z1
            tau = _cluster_tau(X)
            eps = rng.normal(0.0, np.sqrt(_cluster_resid_var(X)))
            y = _cluster_mean(X) + X[:, _W_COL] * tau + u0 + u1 * X[:, _T_COL] + eps
            Z = np.column_stack([np.ones(n), X[:, _T_COL]])
            cut = n - max(1, int(round(FORECAST_FRACTION * n)))
            train_groups.append(GroupBlock(group_id=i, y=y[:cut], X=X[:cut], Z=Z[:cut]))
            test_groups.append(GroupBlock(group_id=i, y=y[cut:], X=X[cut:], Z=Z[cut:]))
            taus.append(tau[cut:])
        make = lambda gs: summarize_groups(
            GroupedDataset(groups=tuple(gs), feature_names=CLUSTER_FEATURES, treatment_index=_W_COL)
        )
        schema = ColumnSchema(
            group_col="cluster",
            response_col="y",
            feature_cols=CLUSTER_FEATURES,
            z_cols=("intercept", "t"),
            treatment_col="w",
        )
        config = config_for_variant(
            "grboost",
            LearnerSpec(kind="tree", tree_max_depth=3, tree_min_child=20, tree_min_parent=40),
            n_iterations=self.n_iterations,
            lr_mean=0.03,
            lr_gcov=0.01,
            lr_rvar=0.01,
            group_fraction=0.2,
            feature_fraction=1.0,
            early_stopping=False,
            seed=seed,
        )
        return Prepared(make(train_groups), make(test_groups), schema, config,
                        {"tau": np.concatenate(taus)})

    def infer(self, model, prep: Prepared, train: GroupedDataset) -> dict:
        test = prep.test
        table = prediction.predict_dataset(model, test, training_groups=train, alpha=ALPHA)
        st = test.stacked()
        xt_rows = np.repeat(test.x_tilde_matrix(), st.sizes, axis=0)
        tau_hat = prediction.cate(model, st.X)
        var_delta = prediction.ite_variance(model, st.X, st.Z, xt_rows)
        _explain(model, st.X, "x1", "x2")
        return dict(table=table, tau_hat=tau_hat, var_delta=var_delta, y=st.y)

    def checks(self, out: dict) -> list:
        return _finite_checks(out["table"], out["tau_hat"], out["var_delta"]) + [
            ("every forecast uses its history", bool(np.all(out["table"].known_group))),
        ]

    def quality(self, out: dict, prep: Prepared) -> dict:
        table, y = out["table"], out["y"]
        return {
            "cate_rmse": float(np.sqrt(np.mean((out["tau_hat"] - prep.truth["tau"]) ** 2))),
            "interval_score": interval_score(table.lo, table.hi, y),
            "coverage_pct": float(100.0 * np.mean((table.lo <= y) & (y <= table.hi))),
        }


WORKLOADS = {"pairs": Pairs, "clusters": Clusters}
