"""What the engine does with generated small grouped datasets, from fit to diagnose.

The fit half of the input property: on every drawn dataset, fit,
save_model/load_model, predict_dataset over a history that holds NaN
responses, cate, ite_variance and partial_dependence on each component
return finite values or raise a GBMixedError, with numpy's warnings raised
as errors. The prediction half, random shapes and dtypes of served rows, is
in test_served_inputs.py.
"""

import os
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed import diagnostics
from gbmixed.boosting import VARIANT_COMPONENTS, config_for_variant, fit
from gbmixed.data import GroupBlock, GroupedDataset
from gbmixed.diagnostics import partial_dependence
from gbmixed.errors import GBMixedError
from gbmixed.learners import LearnerSpec
from gbmixed.model_io import load_model, save_model
from gbmixed.prediction import cate, ite_variance, predict_dataset

# extra random-effect columns besides the intercept: the treatment slope, a
# continuous slope, and a constant or a repeated column, which are collinear
Z_EXTRAS = ("treatment", "slope", "constant", "repeated")


@st.composite
def grouped_datasets(draw):
    """(dataset, index of the treatment slope in Z or None): 6-16 groups of 1-200 rows,
    each size drawn from 1-8 or from 9-200, so that small groups stay covered.

    The features are a continuous x, a constant column, a repeat of x, an
    optional categorical column and a 0/1 treatment w, the last feature.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="values seed"))
    size = st.one_of(st.integers(1, 8), st.integers(9, 200))
    sizes = draw(st.lists(size, min_size=6, max_size=16), label="group sizes")
    extras = draw(st.lists(st.sampled_from(Z_EXTRAS), max_size=2), label="Z columns")
    categorical = draw(st.booleans(), label="categorical column")
    names = ("x", "const", "x_again") + (("cat",) if categorical else ()) + ("w",)
    groups = []
    for i, n in enumerate(sizes):
        x = rng.standard_normal(n)
        w = rng.integers(0, 2, size=n).astype(float)
        cat = [rng.integers(0, 3, size=n)] if categorical else []
        cols = [x, np.full(n, 0.5), x, *cat, w]
        Z = [np.ones(n)]
        for extra in extras:
            Z.append({"treatment": w, "slope": x, "constant": np.ones(n), "repeated": Z[-1]}[extra])
        y = x + 0.5 * w + rng.standard_normal() + (0.5 + 0.5 * np.abs(x)) * rng.standard_normal(n)
        groups.append(GroupBlock(group_id=i, y=y, X=np.column_stack(cols), Z=np.column_stack(Z)))
    ds = GroupedDataset(
        groups=tuple(groups),
        feature_names=names,
        treatment_index=len(names) - 1,
        categorical_features=(3,) if categorical else (),
    )
    slope = 1 + extras.index("treatment") if "treatment" in extras else None
    return ds, slope


def finite(*arrays):
    for a in arrays:
        assert np.all(np.isfinite(a)), a


def served(call, *args, **kwargs):
    """call's value, or None when it raises a GBMixedError."""
    try:
        return call(*args, **kwargs)
    except GBMixedError:
        return None


def with_nan_responses(ds: GroupedDataset, rng) -> GroupedDataset:
    """ds with about a third of its responses NaN, and every response of its first group."""
    groups = []
    for k, g in enumerate(ds.groups):
        y = np.where((rng.random(g.n) < 1 / 3) | (k == 0), np.nan, g.y)
        groups.append(replace(g, y=y))
    return replace(ds, groups=tuple(groups))


@settings(max_examples=300)
@given(data=st.data())
def test_fits_of_generated_datasets_give_finite_values_or_a_package_error(data):
    ds, slope = data.draw(grouped_datasets(), label="dataset")
    kind = data.draw(st.sampled_from(["tree", "linear", "constant"]), label="learner kind")
    variants = ["base"] if kind == "constant" else sorted(VARIANT_COMPONENTS)
    variant = data.draw(st.sampled_from(variants), label="variant")
    spec = LearnerSpec(kind=kind, tree_min_parent=4, tree_min_child=2)
    config = config_for_variant(
        variant, spec,
        n_iterations=data.draw(st.integers(1, 4), label="iterations"),
        group_fraction=0.5,
        early_stopping=data.draw(st.booleans(), label="early stopping"),
        seed=data.draw(st.integers(0, 3), label="fit seed"),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="history seed"))
    st_data = ds.stacked()
    xt_rows = np.repeat(ds.x_tilde_matrix(), st_data.sizes, axis=0)

    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("error")
        model = served(fit, ds, config)
        if model is None:
            return
        path = os.path.join(tmp, "model.gbmixed")
        save_model(path, model)
        model = load_model(path)[0]     # a file the package wrote must load

        history = with_nan_responses(ds, rng)
        for table in (served(predict_dataset, model, ds, training_groups=history),
                      served(predict_dataset, model, history)):
            if table is not None:
                finite(*(getattr(table, f.name) for f in fields(table) if f.name != "group_ids"))
        tau = served(cate, model, st_data.X)
        if tau is not None:
            finite(tau)
        var = served(ite_variance, model, st_data.X, st_data.Z, xt_rows, z_treatment_index=slope)
        if var is not None:
            finite(var)
        for component in diagnostics.COMPONENTS:
            background = ds.x_tilde_matrix() if component == "G" else st_data.X
            entry = st.lists(st.integers(0, model.q - 1), min_size=2, max_size=2)
            g_entry = tuple(data.draw(entry, label="g_entry"))
            feature = data.draw(st.integers(0, len(ds.feature_names) - 1), label="feature")
            curve = served(partial_dependence, model, component, feature, background, g_entry=g_entry)
            if curve is not None:
                finite(*curve)
