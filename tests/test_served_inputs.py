"""What a fitted model accepts: the one row rule of its evaluators, and its scalar arguments.

Every matrix a fitted model is served goes through errors.check_rows: a 2-D
matrix of numbers with one column per model feature, else a DataError. The
learners check nothing, so the rule must hold for every learner kind and for
a model without learners.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed import simulate
from gbmixed.boosting import config_for_variant, eval_gcov_rows, eval_mean, eval_resid_var, fit
from gbmixed.data import GroupBlock, GroupedDataset, split_by_groups
from gbmixed.diagnostics import partial_dependence
from gbmixed.errors import ConfigError, DataError, GBMixedError
from gbmixed.learners import ConstantLearner, LearnerSpec, LinearLearner, TreeLearner
from gbmixed.prediction import ate, blup, cate, interval_halfwidth, ite_variance, predict_dataset

P = 3   # features x1, x2 and the treatment w


def treated_dataset() -> GroupedDataset:
    """30 groups of 4 rows with a random intercept and a random treatment slope (q = 2)."""
    rng = np.random.default_rng(0)
    groups = []
    for i in range(30):
        X = rng.standard_normal((4, P))
        X[:, 2] = rng.integers(0, 2, size=4)
        Z = np.column_stack([np.ones(4), X[:, 2]])
        y = X[:, 0] + 0.5 * X[:, 2] + rng.standard_normal() + rng.standard_normal(4)
        groups.append(GroupBlock(group_id=i, y=y, X=X, Z=Z))
    return GroupedDataset(groups=tuple(groups), feature_names=("x1", "x2", "w"), treatment_index=2)


# (variant, row learner, iterations, the learner class every ensemble must hold)
MODEL_CASES = {
    "tree": ("grboost", LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2), 4, TreeLearner),
    "linear": ("grboost", LearnerSpec(kind="linear"), 4, LinearLearner),
    "constant": ("base", LearnerSpec(kind="constant"), 4, ConstantLearner),
    "zero_iterations": ("grboost", LearnerSpec(kind="tree"), 0, None),
}


@pytest.fixture(scope="module")
def models():
    ds = treated_dataset()
    out = {}
    for name, (variant, spec, iterations, kind) in MODEL_CASES.items():
        cfg = config_for_variant(
            variant, spec, n_iterations=iterations, group_fraction=0.5, early_stopping=False
        )
        model = fit(ds, cfg)
        learners = [h for e in model.ensembles.values() for ls in e.learners for h in ls]
        assert len(learners) == (0 if kind is None else iterations * 5)
        assert all(type(h) is kind for h in learners)
        out[name] = model
    return out


def _ite_variance(model, X):
    """ite_variance at X with a treatment slope, Z and x_tilde_rows aligned with X when X is a matrix."""
    n = X.shape[0] if np.ndim(X) else 1
    return ite_variance(model, X, np.ones((n, 2)), np.zeros((n, P)), z_treatment_index=1)


SERVED = {
    "eval_mean": eval_mean,
    "eval_resid_var": eval_resid_var,
    "eval_gcov_rows": eval_gcov_rows,
    "cate": cate,
    "ate": ate,
    "ite_variance": _ite_variance,
}

BAD_ROWS = {
    # the parent's cate read a 1-D row as two stacked rows of one entry each
    "one_dimensional": np.array([0.1, 0.2, 0.3]),
    "too_narrow": np.zeros((2, 2)),
    # the parent's constant and empty ensembles returned values for any width
    "too_wide": np.zeros((2, 7)),
    "three_dimensional": np.zeros((2, P, 1)),
    "scalar": np.float64(0.5),
    "strings": np.array([["a", "b", "c"]]),
    # the parent converted these to numbers
    "numeric_strings": np.array([["0.1", "0.2", "1"]]),
    "objects": np.array([[0.1, None, 1.0]], dtype=object),
    "complex": np.zeros((2, P), dtype=complex),
}


@pytest.mark.parametrize("bad", BAD_ROWS, ids=str)
@pytest.mark.parametrize("kind", MODEL_CASES, ids=str)
def test_every_evaluator_checks_the_rows_it_is_served(models, kind, bad):
    model = models[kind]
    for name, served in SERVED.items():
        with pytest.raises(DataError, match=r"expected 3 feature columns|must hold numbers"):
            served(model, BAD_ROWS[bad])


@pytest.mark.parametrize("bad", ["one_dimensional", "too_wide", "strings"])
def test_ite_variance_checks_its_summary_rows(models, bad):
    X = np.zeros((1, P))
    with pytest.raises(DataError, match="x_tilde_rows"):
        ite_variance(models["tree"], X, np.ones((1, 2)), BAD_ROWS[bad], z_treatment_index=1)


@pytest.mark.parametrize("kind", MODEL_CASES, ids=str)
def test_memory_layouts_and_integer_input(models, kind):
    """Views, Fortran order, integers and booleans give the values of a C-ordered float copy."""
    model = models[kind]
    rng = np.random.default_rng(30)
    X = rng.standard_normal((9, 6))
    X[:, 2] = rng.integers(0, 2, size=9)
    views = [
        np.asfortranarray(X[:, :P]),
        X[::2, ::2],
        X[::-2, :P],
        rng.integers(-3, 4, size=(7, P)),
        rng.integers(0, 2, size=(5, P)).astype(bool),
    ]
    for Xv in views:
        Xc = np.array(Xv, dtype=float, order="C")
        for name, served in SERVED.items():
            assert np.array_equal(served(model, Xv), served(model, Xc)), name


def _draw_rows(rng, ndim, dims, dtype):
    """An array of ndim dims drawn in [-10, 10], cast to dtype."""
    X = rng.uniform(-10.0, 10.0, size=dims[:ndim])
    if dtype == "int64":
        return np.round(X).astype(np.int64)
    if dtype == "bool":
        return X > 0
    return X.astype(dtype)


DTYPES = ["float64", "float32", "int64", "bool", "str", "object", "complex128"]


@settings(max_examples=150)
@given(
    kind=st.sampled_from(sorted(MODEL_CASES)),
    served=st.sampled_from(sorted(SERVED)),
    ndim=st.integers(0, 3),
    dims=st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 2, P, 4, 6]), st.integers(0, 2)),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_served_rows_give_finite_values_or_a_package_error(models, kind, served, ndim, dims, dtype, seed):
    """On random shapes and dtypes every served function returns finite values or raises
    a GBMixedError, with warnings raised as errors; a matrix of numbers of P columns
    always returns values, apart from ate over zero rows."""
    X = _draw_rows(np.random.default_rng(seed), ndim, dims, dtype)
    valid = ndim == 2 and dims[1] == P and dtype not in ("str", "object", "complex128")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = SERVED[served](models[kind], X)
        except GBMixedError:
            assert not valid or (served == "ate" and dims[0] == 0)
            return
    assert valid
    assert np.all(np.isfinite(out))


SCALAR_ARGUMENTS = {
    "predict_dataset_alpha": lambda m, ds, bg: predict_dataset(m, ds, alpha="0.1"),
    "predict_dataset_alpha_nan": lambda m, ds, bg: predict_dataset(m, ds, alpha=float("nan")),
    "interval_halfwidth_alpha": lambda m, ds, bg: interval_halfwidth(np.ones(2), "0.1"),
    "run_replications_alpha": lambda m, ds, bg: simulate.run_replications(
        simulate.expc_scenario(), 40, 1, alpha="0.1"
    ),
    "split_fraction": lambda m, ds, bg: split_by_groups(ds, "0.5", seed=0),
    # "no" is truthy: it turned the option on
    "reduced_new_group_variance": lambda m, ds, bg: predict_dataset(
        m, ds, reduced_new_group_variance="no"
    ),
    "reduced_new_group_variance_int": lambda m, ds, bg: predict_dataset(
        m, ds, reduced_new_group_variance=1
    ),
    "grid_entries": lambda m, ds, bg: partial_dependence(m, "mean", 0, bg, grid=["a"]),
    "grid_objects": lambda m, ds, bg: partial_dependence(m, "mean", 0, bg, grid=[0.5, None]),
}


@pytest.mark.parametrize("case", SCALAR_ARGUMENTS, ids=str)
def test_scalar_arguments_of_the_wrong_type_are_config_errors(models, case):
    ds = treated_dataset()
    bg = ds.stacked().X
    with pytest.raises(ConfigError):
        SCALAR_ARGUMENTS[case](models["tree"], ds, bg)


def test_well_typed_scalar_arguments_still_work(models):
    model, ds = models["tree"], treated_dataset()
    table = predict_dataset(model, ds, alpha=np.float64(0.1), reduced_new_group_variance=True)
    assert np.all(np.isfinite(table.var_total))
    assert split_by_groups(ds, 0.5, seed=0)[0].n_groups == 15
    # grid entries are numbers: integers, +inf and NaN included
    grid, values = partial_dependence(model, "mean", 0, ds.stacked().X, grid=[-1, 0, np.inf, np.nan])
    assert grid.dtype == float and values.shape == (4,)
    assert np.array_equal(grid, [-1.0, 0.0, np.inf, np.nan], equal_nan=True)


EVALUATORS = [eval_mean, eval_resid_var, eval_gcov_rows]


@pytest.mark.parametrize("evaluate", EVALUATORS, ids=lambda f: f.__name__)
def test_upto_counts_learners_within_the_ensemble(models, evaluate):
    """upto is an index in 0..best_iteration, else a ConfigError. The parent dropped
    the last learner at -1, summed one at True and all of them at 99, and raised a
    raw TypeError at 2.5 and "2"."""
    model = models["tree"]
    X = treated_dataset().stacked().X[:6]
    assert model.best_iteration == 4
    for bad in (-1, True, 5, 99, 2.5, "2", np.float64(2.0)):
        with pytest.raises(ConfigError, match="upto"):
            evaluate(model, X, upto=bad)
    assert np.array_equal(evaluate(model, X, upto=4), evaluate(model, X))
    assert np.array_equal(evaluate(model, X, upto=np.int64(2)), evaluate(model, X, upto=2))
    assert not np.array_equal(evaluate(model, X, upto=0), evaluate(model, X))


NAN_ROW = np.array([[np.nan, 0.2, 1.0]])


@pytest.mark.parametrize("served", SERVED, ids=str)
def test_a_linear_model_refuses_a_non_finite_feature_it_reads(models, served):
    """The parent returned NaN here; trees still route NaN to a value."""
    with pytest.raises(DataError, match="row 0: feature 'x1' is non-finite") as raised:
        SERVED[served](models["linear"], NAN_ROW)
    assert raised.value.exit_code == 3
    for X in (NAN_ROW, np.array([[0.3, -np.inf, np.inf]])):
        assert np.all(np.isfinite(SERVED[served](models["tree"], X)))


def test_a_served_dataset_names_the_group_of_a_non_finite_feature():
    """predict_dataset and blup name the group, not the row of their stacked rows: row 82
    of the stack is the third row of group 20."""
    ds = replace(treated_dataset(), feature_names=("a", "b", "w"))
    groups = list(ds.groups)
    X = groups[20].X.copy()
    X[2, 1] = np.nan
    groups[20] = GroupBlock(group_id=20, y=groups[20].y, X=X, Z=groups[20].Z)
    bad = replace(ds, groups=tuple(groups))
    def fitted(kind):
        spec = LearnerSpec(kind=kind, tree_min_parent=4, tree_min_child=2)
        return fit(ds, config_for_variant("grboost", spec, n_iterations=4, group_fraction=0.5,
                                          feature_fraction=1.0, early_stopping=False))

    model = fitted("linear")
    message = "group 20: feature 'b' is non-finite, which a linear mean learner cannot read"
    for serve in (lambda: predict_dataset(model, bad),
                  lambda: predict_dataset(model, ds, training_groups=bad),
                  lambda: blup(model, bad)):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$") as raised:
            serve()
        assert raised.value.exit_code == 3
    assert np.all(np.isfinite(predict_dataset(fitted("tree"), bad).mu_conditional))


def test_partial_dependence_of_a_linear_model_skips_the_plotted_column(models):
    """The plotted column of the background is overwritten, so a NaN there is never
    read; a NaN in another column is, and NaN and ±inf grid values are evaluated."""
    model = models["linear"]
    bg = treated_dataset().stacked().X[:8].copy()
    bg[3, 0] = np.nan
    _, values = partial_dependence(model, "mean", 0, bg, grid=[0.0, 1.0])
    assert np.all(np.isfinite(values))
    with np.errstate(invalid="ignore"):
        _, values = partial_dependence(model, "mean", 0, bg, grid=[np.nan, np.inf])
    assert np.all(np.isnan(values) | np.isinf(values))
    with pytest.raises(DataError, match="row 3: feature 'x1' is non-finite"):
        partial_dependence(model, "mean", 1, bg, grid=[0.0])
