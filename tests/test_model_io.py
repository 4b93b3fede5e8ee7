"""Model files: bit-identical round trips, byte-identical saves, version gate."""

from dataclasses import replace

import json
import math
import zlib

import numpy as np
import pytest

from gbmixed.boosting import (
    config_for_variant,
    eval_gcov_rows,
    eval_mean,
    eval_resid_var,
    fit,
)
from gbmixed.data import ColumnSchema
from gbmixed.errors import DataError
from gbmixed.learners import LearnerSpec
from gbmixed.model_io import FORMAT_VERSION, load_model, save_model
from util import clustered_dataset, deep_tree_text


def fitted(variant, kind, rng, n_iterations=4):
    learner = LearnerSpec(kind=kind, tree_min_parent=4, tree_min_child=2)
    cfg = config_for_variant(
        variant,
        learner,
        n_iterations=n_iterations,
        group_fraction=1.0,
        feature_fraction=1.0,
        early_stopping=False,
        eval_fraction=0.25,
        lr_mean=0.2,
        lr_gcov=0.05,
        lr_rvar=0.1,
    )
    ds = clustered_dataset(rng, n_groups=30, n_per=2, p=3, mean_fn=lambda X: X[:, 0])
    return fit(ds, cfg), ds


def assert_same_predictions(m1, m2, ds):
    X = ds.stacked().X
    Xt = ds.x_tilde_matrix()
    np.testing.assert_array_equal(eval_mean(m1, X), eval_mean(m2, X))
    np.testing.assert_array_equal(eval_resid_var(m1, X), eval_resid_var(m2, X))
    np.testing.assert_array_equal(eval_gcov_rows(m1, Xt), eval_gcov_rows(m2, Xt))


# a constant row learner is only legal where no variance component varies
ROUND_TRIP_CASES = [
    (v, k) for v in ("base", "rboost", "gboost", "grboost") for k in ("linear", "tree")
] + [("base", "constant")]


def round_trip_fit(variant, kind):
    """The fit of one ROUND_TRIP_CASES pair, seeded by its name."""
    return fitted(variant, kind, np.random.default_rng(zlib.crc32(f"{variant}/{kind}".encode())))


class TestRoundTrip:
    @pytest.mark.parametrize("variant,kind", ROUND_TRIP_CASES)
    def test_bit_identical_predictions(self, tmp_path, variant, kind):
        model, ds = round_trip_fit(variant, kind)
        path = tmp_path / "m.txt"
        save_model(path, model)
        back, schema = load_model(path)
        assert schema is None
        assert back.history == model.history
        assert back.best_iteration == model.best_iteration
        assert back.feature_names == model.feature_names
        assert back.config == model.config
        assert_same_predictions(model, back, ds)

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        model, _ = fitted("grboost", "tree", rng)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_model(p1, model)
        back, _ = load_model(p1)
        save_model(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_repeated_saves_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        model, _ = fitted("rboost", "tree", rng)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        model, _ = fitted("base", "tree", rng)
        schema = ColumnSchema(
            group_col="site",
            response_col="outcome",
            feature_cols=model.feature_names,
            categorical_cols=(model.feature_names[1],),
        )
        path = tmp_path / "m.txt"
        save_model(path, model, schema=schema)
        _, back = load_model(path)
        assert back.group_col == "site"
        assert back.response_col == "outcome"
        assert back.feature_cols == model.feature_names
        assert back.categorical_cols == (model.feature_names[1],)
        assert back.treatment_col is None


# The config record of one fixed FitConfig, as files of format version 2 hold it.
GOLDEN_CONFIG_LINE = (
    'config {"early_stopping":false,"eval_fraction":0.3,"feature_fraction":1.0,'
    '"force_include":[2,0],"gcov_learner":{"kind":"constant","tree_max_depth":4,'
    '"tree_min_child":5,"tree_min_parent":10},"group_fraction":0.5,"lookback":9,'
    '"lr_gcov":0.0,"lr_mean":0.25,"lr_rvar":0.125,"mean_learner":{"kind":"linear",'
    '"tree_max_depth":4,"tree_min_child":5,"tree_min_parent":10},"n_iterations":7,'
    '"rvar_learner":{"kind":"linear","tree_max_depth":4,"tree_min_child":5,'
    '"tree_min_parent":10},"seed":3,"tolerance":0.0001}'
)
# The same record as version 1 files hold it, with each learner spec's ridge_epsilon.
GOLDEN_CONFIG_LINE_V1 = (
    'config {"early_stopping":false,"eval_fraction":0.3,"feature_fraction":1.0,'
    '"force_include":[2,0],"gcov_learner":{"kind":"constant","ridge_epsilon":0.5,'
    '"tree_max_depth":4,"tree_min_child":5,"tree_min_parent":10},"group_fraction":0.5,'
    '"lookback":9,"lr_gcov":0.0,"lr_mean":0.25,"lr_rvar":0.125,"mean_learner":{"kind":'
    '"linear","ridge_epsilon":0.5,"tree_max_depth":4,"tree_min_child":5,"tree_min_parent":10},'
    '"n_iterations":7,"rvar_learner":{"kind":"linear","ridge_epsilon":0.5,"tree_max_depth":4,'
    '"tree_min_child":5,"tree_min_parent":10},"seed":3,"tolerance":0.0001}'
)


def golden_config_file(tmp_path):
    """The config of GOLDEN_CONFIG_LINE on a one-iteration model, saved; (path, config)."""
    cfg = config_for_variant(
        "rboost",
        LearnerSpec(kind="linear", tree_max_depth=4),
        n_iterations=7,
        lr_mean=0.25,
        lr_gcov=0.0,
        lr_rvar=0.125,
        group_fraction=0.5,
        feature_fraction=1.0,
        lookback=9,
        tolerance=1e-4,
        early_stopping=False,
        eval_fraction=0.3,
        seed=3,
        force_include=(2, 0),
    )
    model, _ = fitted("base", "constant", np.random.default_rng(9), n_iterations=1)
    path = tmp_path / "m.txt"
    save_model(path, replace(model, config=cfg))
    return path, cfg


def test_config_record_golden(tmp_path):
    path, cfg = golden_config_file(tmp_path)
    assert path.read_text().splitlines()[1] == GOLDEN_CONFIG_LINE
    assert load_model(path)[0].config == cfg


def test_config_record_golden_version_1(tmp_path):
    """A version 1 config record loads without its ridge_epsilon and saves as version 2."""
    path, cfg = golden_config_file(tmp_path)
    _, _, *rest = path.read_text().splitlines()
    old = tmp_path / "v1.txt"
    old.write_text("\n".join(["gbmixed-model 1", GOLDEN_CONFIG_LINE_V1, *rest]) + "\n")
    back, _ = load_model(old)
    assert back.config == cfg
    resaved = tmp_path / "resaved.txt"
    save_model(resaved, back)
    assert resaved.read_bytes() == path.read_bytes()


# A q = 2 model written out by hand: a tree mean learner, G's factor entries
# 0-2 of constant, linear and tree kind, a linear R learner, best_iteration 1
# and a schema. Every number is a dyadic fraction, so the evaluations below
# are exact.
GOLDEN_MODEL_LINES = [
    "gbmixed-model 2",
    'config {"early_stopping":false,"eval_fraction":0.25,"feature_fraction":0.7,'
    '"force_include":[],"gcov_learner":{"kind":"tree","tree_max_depth":3,'
    '"tree_min_child":5,"tree_min_parent":10},"group_fraction":0.2,"lookback":25,'
    '"lr_gcov":0.25,"lr_mean":0.5,"lr_rvar":0.125,"mean_learner":{"kind":"tree",'
    '"tree_max_depth":3,"tree_min_child":5,"tree_min_parent":10},'
    '"n_iterations":2,"rvar_learner":{"kind":"linear","tree_max_depth":3,'
    '"tree_min_child":5,"tree_min_parent":10},"seed":0,"tolerance":0.001}',
    'meta {"categorical_features":[1],"feature_names":["a","b","c"],'
    '"gcov_init":[1.0,0.0,0.5],"history":[-10.5,-9.25,-9.75],"logrvar_init":-0.5,'
    '"mean_init":1.5,"q":2,"schema":{"categorical_cols":["b"],'
    '"group_col":"site","response_col":"y","treatment_col":"c","z_cols":["intercept","b"]},'
    '"treatment_index":2}',
    'mean_learner {"kind":"tree","root":{"f":0,"l":{"v":-1.0},'
    '"r":{"f":2,"l":{"v":0.5},"r":{"v":2.0},"t":1.5},"t":0.25}}',
    'gcov_learner 0 {"kind":"constant","value":0.5}',
    'gcov_learner 1 {"coef":[0.25],"features":[1],"intercept":-0.5,"kind":"linear"}',
    'gcov_learner 2 {"kind":"tree","root":{"f":1,"l":{"v":0.0},"r":{"v":1.0},"t":0.5}}',
    'rvar_learner {"coef":[0.5,-0.25],"features":[0,2],"intercept":0.125,"kind":"linear"}',
    "end",
]
# The same model as version 1 wrote it: every tree and linear record carries the
# feature count, the meta record the iteration counts, and each learner spec its
# ridge_epsilon.
GOLDEN_MODEL_LINES_V1 = [
    "gbmixed-model 1",
    'config {"early_stopping":false,"eval_fraction":0.25,"feature_fraction":0.7,'
    '"force_include":[],"gcov_learner":{"kind":"tree","ridge_epsilon":1e-08,"tree_max_depth":3,'
    '"tree_min_child":5,"tree_min_parent":10},"group_fraction":0.2,"lookback":25,'
    '"lr_gcov":0.25,"lr_mean":0.5,"lr_rvar":0.125,"mean_learner":{"kind":"tree",'
    '"ridge_epsilon":1e-08,"tree_max_depth":3,"tree_min_child":5,"tree_min_parent":10},'
    '"n_iterations":2,"rvar_learner":{"kind":"linear","ridge_epsilon":1e-08,"tree_max_depth":3,'
    '"tree_min_child":5,"tree_min_parent":10},"seed":0,"tolerance":0.001}',
    'meta {"best_iteration":1,"categorical_features":[1],"feature_names":["a","b","c"],'
    '"gcov_init":[1.0,0.0,0.5],"history":[-10.5,-9.25,-9.75],"logrvar_init":-0.5,'
    '"mean_init":1.5,"n_iterations_run":2,"q":2,"schema":{"categorical_cols":["b"],'
    '"group_col":"site","response_col":"y","treatment_col":"c","z_cols":["intercept","b"]},'
    '"treatment_index":2}',
    'mean_learner {"kind":"tree","n_features":3,"root":{"f":0,"l":{"v":-1.0},'
    '"r":{"f":2,"l":{"v":0.5},"r":{"v":2.0},"t":1.5},"t":0.25}}',
    'gcov_learner 0 {"kind":"constant","value":0.5}',
    'gcov_learner 1 {"coef":[0.25],"features":[1],"intercept":-0.5,"kind":"linear","n_features":3}',
    'gcov_learner 2 {"kind":"tree","n_features":3,"root":{"f":1,"l":{"v":0.0},"r":{"v":1.0},'
    '"t":0.5}}',
    'rvar_learner {"coef":[0.5,-0.25],"features":[0,2],"intercept":0.125,"kind":"linear",'
    '"n_features":3}',
    "end",
]


def load_golden(tmp_path, lines):
    """Load the golden text lines and check the model and schema they spell out. The
    model is built through its file, so this reads it only through the public
    evaluators and fields."""
    path = tmp_path / "golden.txt"
    path.write_text("\n".join(lines) + "\n")
    model, schema = load_model(path)
    assert model.config == config_for_variant(
        "grboost", LearnerSpec(kind="tree"), n_iterations=2, lr_mean=0.5, lr_gcov=0.25,
        lr_rvar=0.125, early_stopping=False, rvar_learner=LearnerSpec(kind="linear"),
    )
    assert (model.q, model.feature_names, model.treatment_index) == (2, ("a", "b", "c"), 2)
    assert model.categorical_features == (1,)
    assert (model.history, model.best_iteration, model.n_iterations_run) == (
        [-10.5, -9.25, -9.75], 1, 2)
    assert schema == ColumnSchema(group_col="site", response_col="y", feature_cols=("a", "b", "c"),
                                  z_cols=("intercept", "b"), categorical_cols=("b",),
                                  treatment_col="c")

    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, -1.0, 2.0]])
    # f = 1.5 + 0.5 * tree; log r = -0.5 + 0.125 * (0.125 + 0.5 x0 - 0.25 x2)
    np.testing.assert_array_equal(eval_mean(model, X), [1.0, 1.75, 2.5])
    np.testing.assert_array_equal(eval_resid_var(model, X),
                                  np.exp([-0.484375, -0.453125, -0.515625]))
    # L entries: 1.0 + 0.25 * 0.5, 0.0 + 0.25 * (0.25 x1 - 0.5), 0.5 + 0.25 * [x1 >= 0.5]
    e0, e1, e2 = 1.125, np.array([-0.125, -0.0625, -0.1875]), np.array([0.5, 0.75, 0.5])
    G = np.stack([np.stack([np.full(3, e0 * e0), e0 * e1], -1),
                  np.stack([e0 * e1, e1 * e1 + e2 * e2], -1)], 1)
    np.testing.assert_array_equal(eval_gcov_rows(model, X), G)
    return model, schema


def saves_as_golden(tmp_path, model, schema):
    """model and schema save as the version 2 golden text, and again to the same bytes."""
    saved = tmp_path / "saved.txt"
    save_model(saved, model, schema)
    assert saved.read_text() == "\n".join(GOLDEN_MODEL_LINES) + "\n"
    again = tmp_path / "again.txt"
    save_model(again, *load_model(saved))
    assert again.read_bytes() == saved.read_bytes()


def test_model_file_golden(tmp_path):
    """The hand-written file loads into the model it spells out and saves back
    to the same bytes."""
    saves_as_golden(tmp_path, *load_golden(tmp_path, GOLDEN_MODEL_LINES))


def test_model_file_golden_version_1(tmp_path):
    """The version 1 text loads into the same model, which saves as version 2."""
    saves_as_golden(tmp_path, *load_golden(tmp_path, GOLDEN_MODEL_LINES_V1))


def test_retired_verbose_key_is_dropped_on_load(tmp_path):
    """Files written while FitConfig had verbose and variant fields end their
    config record with them, in sorted key order."""
    model, _ = fitted("rboost", "tree", np.random.default_rng(5))
    path = tmp_path / "m.txt"
    save_model(path, model)
    head, config_line, *rest = path.read_text().splitlines()
    retired = (
        ',"verbose":true',
        ',"verbose":false',
        ',"variant":"rboost"',
        ',"variant":"rboost","verbose":false',
    )
    for i, tail in enumerate(retired):
        old = tmp_path / f"old_{i}.txt"
        old.write_text("\n".join([head, config_line[:-1] + tail + "}", *rest]) + "\n")
        back, _ = load_model(old)
        assert back.config == model.config
        resaved = tmp_path / "resaved.txt"
        save_model(resaved, back)
        assert resaved.read_bytes() == path.read_bytes()


class TestFormatGuards:
    def write_model(self, tmp_path):
        rng = np.random.default_rng(8)
        model, _ = fitted("base", "constant", rng, n_iterations=2)
        path = tmp_path / "m.txt"
        save_model(path, model)
        return path

    def test_version_gate(self, tmp_path):
        path = self.write_model(tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"gbmixed-model {FORMAT_VERSION}" == "gbmixed-model 2"
        lines[0] = f"gbmixed-model {FORMAT_VERSION + 1}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match=r"unsupported model format version 3 \(supported: 1 to 2\)"):
            load_model(path)

    def test_version_not_an_integer(self, tmp_path):
        path = self.write_model(tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = "gbmixed-model 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{path.name}: bad version '2\.0'"):
            load_model(path)

    def test_a_foreign_learner_is_not_saved(self, tmp_path):
        model, _ = fitted("base", "constant", np.random.default_rng(8), n_iterations=2)
        model.ensembles["mean"].learners[0][1] = object()
        path = tmp_path / "m.txt"
        with pytest.raises(DataError, match="^cannot serialize learner of type object$"):
            save_model(path, model)
        assert not path.exists()

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello,world\n1,2\n")
        with pytest.raises(DataError):
            load_model(path)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_model(empty)

    def test_truncated_file(self, tmp_path):
        path = self.write_model(tmp_path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "end"
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    def test_content_after_end(self, tmp_path):
        path = self.write_model(tmp_path)
        path.write_text(path.read_text() + "mean_learner {}\n")
        with pytest.raises(DataError, match="after end"):
            load_model(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = self.write_model(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = "meta {not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_model(path)

    def test_unknown_record_tag(self, tmp_path):
        path = self.write_model(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(3, "surprise {}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="surprise"):
            load_model(path)

    def test_missing_meta(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("gbmixed-model 1\nend\n")
        with pytest.raises(DataError, match="missing config or meta"):
            load_model(path)


def edit_record(path, tag, change):
    """Rewrite a saved model's config or meta record through change(record)."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
    record = json.loads(lines[i][len(tag) + 1:])
    change(record)
    lines[i] = f"{tag} " + json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def with_schema(tmp_path):
    rng = np.random.default_rng(9)
    model, _ = fitted("base", "constant", rng, n_iterations=2)
    schema = ColumnSchema(
        group_col="g", response_col="y", feature_cols=model.feature_names
    )
    path = tmp_path / "m.txt"
    save_model(path, model, schema)
    return path


# each edit damages a meta record whose JSON still parses
DAMAGED_META = {
    "schema_without_group_col": lambda m: m["schema"].pop("group_col"),
    "meta_without_q": lambda m: m.pop("q"),
    "schema_failing_its_checks": lambda m: m["schema"].update(z_cols=[]),
    "schema_repeating_a_z_column": lambda m: m["schema"].update(z_cols=["intercept"] * 2),
    "schema_not_a_record": lambda m: m.update(schema=[1, 2]),
    "q_not_a_number": lambda m: m.update(q="two"),
    "meta_emptied": lambda m: m.clear(),
    "gcov_init_one_entry_short": lambda m: m.update(gcov_init=m["gcov_init"][:-1]),
    "gcov_init_one_entry_long": lambda m: m.update(gcov_init=m["gcov_init"] + [0.5]),
    "treatment_index_past_the_features": lambda m: m.update(treatment_index=7),
    "treatment_index_negative": lambda m: m.update(treatment_index=-1),
    "categorical_feature_past_the_features": lambda m: m.update(categorical_features=[3]),
    # a fitted model's indices ascend (GroupedDataset sorts them), so any other order is damage
    "categorical_features_repeated": lambda m: m.update(categorical_features=[2, 2]),
    "categorical_features_descending": lambda m: m.update(categorical_features=[2, 0]),
    # a q of 10**8 once built 5e15 per-entry ensembles before checking gcov_init
    "q_huge": lambda m: m.update(q=10**8),
    # with a gcov_init of the length they would need, so only the q check can catch them
    "q_zero": lambda m: m.update(q=0, gcov_init=[]),
    "q_fractional": lambda m: m.update(q=3.5, gcov_init=[1.0] * 6),
    # indices and counts that int() would once have truncated or coerced
    "treatment_index_fractional": lambda m: m.update(treatment_index=1.5),
    "treatment_index_boolean": lambda m: m.update(treatment_index=True),
    "treatment_index_a_string": lambda m: m.update(treatment_index="1"),
    "categorical_feature_fractional": lambda m: m.update(categorical_features=[0.5]),
    # numbers that fit always writes finite, and strings that float() would once have taken
    "mean_init_infinite": lambda m: m.update(mean_init=math.inf),
    "mean_init_a_string": lambda m: m.update(mean_init="1.5"),
    "logrvar_init_nan": lambda m: m.update(logrvar_init=math.nan),
    "gcov_init_entry_nan": lambda m: m["gcov_init"].__setitem__(0, math.nan),
    "history_entry_nan": lambda m: m["history"].__setitem__(1, math.nan),
    "history_entry_a_string": lambda m: m["history"].__setitem__(0, "-3.5"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_META))
def test_damaged_meta_is_data_error(tmp_path, damage):
    path = with_schema(tmp_path)
    assert load_model(path)[1] is not None
    edit_record(path, "meta", DAMAGED_META[damage])
    with pytest.raises(DataError, match=rf"{path.name}: malformed record at line 3"):
        load_model(path)


# each edit damages a config record whose JSON still parses
DAMAGED_CONFIG = {
    "negative_rate": lambda c: c.update(lr_mean=-0.1),
    "eval_fraction_out_of_range": lambda c: c.update(eval_fraction=1.5),
    "unknown_learner_kind": lambda c: c["mean_learner"].update(kind="forest"),
    "learner_not_a_record": lambda c: c.update(rvar_learner="tree"),
    "unknown_field": lambda c: c.update(boost_harder=True),
    "negative_seed": lambda c: c.update(seed=-1),
    "fractional_seed": lambda c: c.update(seed=2.5),
    "boolean_seed": lambda c: c.update(seed=True),
    "fractional_iterations": lambda c: c.update(n_iterations=2.5),
    "boolean_lookback": lambda c: c.update(lookback=True),
    "integer_early_stopping": lambda c: c.update(early_stopping=1),
    "fractional_tree_depth": lambda c: c["mean_learner"].update(tree_max_depth=2.5),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_CONFIG))
def test_damaged_config_is_data_error(tmp_path, damage):
    path = with_schema(tmp_path)
    edit_record(path, "config", DAMAGED_CONFIG[damage])
    with pytest.raises(DataError, match=rf"{path.name}: malformed record at line 2"):
        load_model(path)


# each edit damages one learner record of a model with 3 features: (learner kind, edit, message)
DAMAGED_LEARNER = {
    "split_feature_past_the_features": ("tree", lambda h: h["root"].update(f=9),
                                        "split feature 9 outside 0..2"),
    "split_feature_negative": ("tree", lambda h: h["root"].update(f=-1),
                               "split feature -1 outside 0..2"),
    "split_feature_fractional": ("tree", lambda h: h["root"].update(f=1.5),
                                 "split feature must be an integer, got 1.5"),
    "split_feature_boolean": ("tree", lambda h: h["root"].update(f=True),
                              "split feature must be an integer, got True"),
    "linear_feature_a_float": ("linear", lambda h: h["features"].__setitem__(0, 0.0),
                               "linear feature must be an integer, got 0.0"),
    "unknown_kind": ("tree", lambda h: h.update(kind="forest"), "unknown learner kind 'forest'"),
    "linear_feature_past_the_features": ("linear", lambda h: h["features"].__setitem__(0, 3),
                                         "linear feature 3 outside 0..2"),
    "linear_coef_one_long": ("linear", lambda h: h["coef"].append(0.5),
                             "4 linear coefficients for 3 features"),
    "linear_coef_one_short": ("linear", lambda h: h["coef"].pop(),
                              "2 linear coefficients for 3 features"),
    "tree_nested_too_deeply": ("tree", lambda h: h.update(root=DEEP_MARK),
                               "maximum recursion depth exceeded"),
    # numbers that fit always writes finite (a threshold may be +inf), and strings float() took
    "leaf_value_nan": ("tree", lambda h: h["root"].update(l={"v": math.nan}),
                       "leaf value must be a finite number, got nan"),
    "leaf_value_a_string": ("tree", lambda h: h["root"].update(l={"v": "1.5"}),
                            "leaf value must be a finite number, got '1.5'"),
    "threshold_nan": ("tree", lambda h: h["root"].update(t=math.nan),
                      "split threshold must be a finite number, got nan"),
    "threshold_minus_inf": ("tree", lambda h: h["root"].update(t=-math.inf),
                            "split threshold must be a finite number, got -inf"),
    "threshold_a_string": ("tree", lambda h: h["root"].update(t="0.5"),
                           "split threshold must be a finite number, got '0.5'"),
    "linear_coef_nan": ("linear", lambda h: h["coef"].__setitem__(1, math.nan),
                        "linear coefficient must be a finite number, got nan"),
    "linear_intercept_infinite": ("linear", lambda h: h.update(intercept=math.inf),
                                  "linear intercept must be a finite number, got inf"),
    "linear_intercept_a_string": ("linear", lambda h: h.update(intercept="1.5"),
                                  "linear intercept must be a finite number, got '1.5'"),
}
# a tree 1500 splits deep, spliced in as text where DEEP_MARK was dumped
DEEP_MARK = "<deep tree>"


@pytest.mark.parametrize("tag", ["mean_learner", "gcov_learner 0", "rvar_learner"])
@pytest.mark.parametrize("damage", sorted(DAMAGED_LEARNER))
def test_damaged_learner_names_its_line(tmp_path, damage, tag):
    kind, change, message = DAMAGED_LEARNER[damage]
    model, _ = fitted("grboost", kind, np.random.default_rng(13), n_iterations=3)
    path = tmp_path / "m.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    # the first linear record, or the first tree record whose root is a split
    i = next(i for i, line in enumerate(lines)
             if line.startswith(tag + " ") and '"root":{"v"' not in line)
    record = json.loads(lines[i][len(tag) + 1:])
    change(record)
    lines[i] = f"{tag} " + json.dumps(record).replace(json.dumps(DEEP_MARK), deep_tree_text(1500))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"malformed record at line {i + 1}: {message}"):
        load_model(path)


def test_threshold_plus_inf_loads(tmp_path):
    # fit cuts below +inf feature values at +inf, so that threshold is no damage
    model, _ = fitted("grboost", "tree", np.random.default_rng(13), n_iterations=3)
    path = tmp_path / "m.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("mean_learner ") and '"root":{"v"' not in line)
    record = json.loads(lines[i][len("mean_learner "):])
    record["root"]["t"] = math.inf
    lines[i] = "mean_learner " + json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    loaded, _ = load_model(path)
    assert loaded.ensembles["mean"].learners[0][i - 3].root.threshold == math.inf


@pytest.mark.parametrize("value", [math.nan, -math.inf, "0.5"], ids=repr)
def test_constant_value_must_be_finite(tmp_path, value):
    path = with_schema(tmp_path)
    edit_record(path, "mean_learner", lambda h: h.update(value=value))
    with pytest.raises(DataError, match="line 4: constant value must be a finite number"):
        load_model(path)


def test_learner_before_the_meta_record(tmp_path):
    model, _ = fitted("grboost", "tree", np.random.default_rng(14), n_iterations=2)
    path = tmp_path / "m.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="mean_learner at line 3 comes before the meta record"):
        load_model(path)


def test_meta_that_is_not_an_object(tmp_path):
    path = with_schema(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "meta [1, 2]"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 3"):
        load_model(path)


class TestEnsembleGuards:
    """fit cuts every ensemble, one per factor entry, to best_iteration learners, the
    mean ensemble's count, and records one more history entry than that at least."""

    def write_model(self, tmp_path):
        model, _ = fitted("grboost", "tree", np.random.default_rng(10), n_iterations=3)
        assert model.q == 1 and model.best_iteration == 3
        path = tmp_path / "m.txt"
        save_model(path, model)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("entry", [1, 4, -1])
    def test_gcov_entry_outside_the_factor(self, tmp_path, entry):
        path, lines = self.write_model(tmp_path)
        i = next(i for i, line in enumerate(lines) if line.startswith("gcov_learner 0 "))
        lines.insert(i + 1, lines[i].replace("gcov_learner 0 ", f"gcov_learner {entry} ", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"entry {entry} at line {i + 2} is outside 0\.\.0"):
            load_model(path)

    # with the mean ensemble cut short, the first other one reported is rvar's
    @pytest.mark.parametrize("tag,message", [
        ("mean_learner", "rvar ensemble has 3 learners, but the mean ensemble has 2"),
        ("gcov_learner 0", "gcov entry 0 ensemble has 2 learners, but the mean ensemble has 3"),
        ("rvar_learner", "rvar ensemble has 2 learners, but the mean ensemble has 3"),
    ], ids=["mean_learner", "gcov_learner 0", "rvar_learner"])
    def test_ensemble_shorter_than_best_iteration(self, tmp_path, tag, message):
        path, lines = self.write_model(tmp_path)
        i = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
        del lines[i]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_ensemble_longer_than_best_iteration(self, tmp_path):
        path, lines = self.write_model(tmp_path)
        i = next(i for i, line in enumerate(lines) if line.startswith("rvar_learner "))
        lines.insert(i, lines[i])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match="rvar ensemble has 4 learners, but the mean ensemble has 3"):
            load_model(path)

    # the model ran 3 iterations and kept all 3: history holds 4 log-likelihoods
    @pytest.mark.parametrize("entries", [2, 3], ids=["history_cut_short",
                                                     "best_iteration_past_the_history"])
    def test_history_disagrees_with_the_iteration_counts(self, tmp_path, entries):
        path, _ = self.write_model(tmp_path)
        edit_record(path, "meta", lambda m: m.update(history=m["history"][:entries]))
        with pytest.raises(
            DataError,
            match=rf"history at line 3 has {entries} entries, too few for ensembles of 3 learners",
        ):
            load_model(path)

    @pytest.mark.parametrize("tag,first", [("config", 2), ("meta", 3)])
    def test_repeated_record_names_both_lines(self, tmp_path, tag, first):
        path, lines = self.write_model(tmp_path)
        lines.insert(-1, lines[first - 1])
        path.write_text("\n".join(lines) + "\n")
        repeat = len(lines) - 1
        with pytest.raises(DataError, match=rf"{tag} record at line {repeat} repeats line {first}"):
            load_model(path)


def test_blank_lines_are_skipped(tmp_path):
    model, ds = fitted("grboost", "tree", np.random.default_rng(12), n_iterations=3)
    path = tmp_path / "m.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    lines[2:2] = ["", "   "]
    lines.insert(-1, "")
    path.write_text("\n".join(lines) + "\n")
    back, _ = load_model(path)
    assert_same_predictions(model, back, ds)


def test_not_utf8_is_data_error(tmp_path):
    model, _ = fitted("base", "constant", np.random.default_rng(11), n_iterations=1)
    path = tmp_path / "m.txt"
    save_model(path, model)
    path.write_bytes(path.read_bytes().replace(b"end\n", b"\xff\xfe\nend\n"))
    with pytest.raises(DataError, match=rf"{path.name}: not a UTF-8 text file"):
        load_model(path)
