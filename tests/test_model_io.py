"""Model files: bit-identical round trips, byte-identical saves, version gate."""

from dataclasses import replace

import json
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
from util import clustered_dataset


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


class TestRoundTrip:
    # a constant row learner is only legal where no variance component varies
    @pytest.mark.parametrize(
        "variant,kind",
        [(v, k) for v in ("base", "rboost", "gboost", "grboost") for k in ("linear", "tree")]
        + [("base", "constant")],
    )
    def test_bit_identical_predictions(self, tmp_path, variant, kind):
        rng = np.random.default_rng(zlib.crc32(f"{variant}/{kind}".encode()))
        model, ds = fitted(variant, kind, rng)
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


# The config record of one fixed FitConfig, as files of format version 1 hold it.
GOLDEN_CONFIG_LINE = (
    'config {"early_stopping":false,"eval_fraction":0.3,"feature_fraction":1.0,'
    '"force_include":[2,0],"gcov_learner":{"kind":"constant","ridge_epsilon":0.5,'
    '"tree_max_depth":4,"tree_min_child":5,"tree_min_parent":10},"group_fraction":0.5,'
    '"lookback":9,"lr_gcov":0.0,"lr_mean":0.25,"lr_rvar":0.125,"mean_learner":{"kind":'
    '"linear","ridge_epsilon":0.5,"tree_max_depth":4,"tree_min_child":5,"tree_min_parent":10},'
    '"n_iterations":7,"rvar_learner":{"kind":"linear","ridge_epsilon":0.5,"tree_max_depth":4,'
    '"tree_min_child":5,"tree_min_parent":10},"seed":3,"tolerance":0.0001,"variant":"rboost",'
    '"verbose":true}'
)


def test_config_record_golden(tmp_path):
    cfg = config_for_variant(
        "rboost",
        LearnerSpec(kind="linear", tree_max_depth=4, ridge_epsilon=0.5),
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
        verbose=True,
    )
    model, _ = fitted("base", "constant", np.random.default_rng(9), n_iterations=1)
    path = tmp_path / "m.txt"
    save_model(path, replace(model, config=cfg))
    assert path.read_text().splitlines()[1] == GOLDEN_CONFIG_LINE
    assert load_model(path)[0].config == cfg


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
        lines[0] = f"gbmixed-model {FORMAT_VERSION + 1}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="version"):
            load_model(path)

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


def edit_meta(path, change):
    """Rewrite a saved model's meta record through change(meta)."""
    lines = path.read_text().splitlines()
    assert lines[2].startswith("meta ")
    meta = json.loads(lines[2][len("meta "):])
    change(meta)
    lines[2] = "meta " + json.dumps(meta)
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
    "schema_not_a_record": lambda m: m.update(schema=[1, 2]),
    "q_not_a_number": lambda m: m.update(q="two"),
    "meta_emptied": lambda m: m.clear(),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_META))
def test_damaged_meta_is_data_error(tmp_path, damage):
    path = with_schema(tmp_path)
    assert load_model(path)[1] is not None
    edit_meta(path, DAMAGED_META[damage])
    with pytest.raises(DataError, match=rf"{path.name}: malformed record at line 3"):
        load_model(path)


def test_meta_that_is_not_an_object(tmp_path):
    path = with_schema(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "meta [1, 2]"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 3"):
        load_model(path)


class TestEnsembleGuards:
    """fit writes each ensemble cut to best_iteration, one per factor entry."""

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

    @pytest.mark.parametrize("tag", ["mean_learner", "gcov_learner 0", "rvar_learner"])
    def test_ensemble_shorter_than_best_iteration(self, tmp_path, tag):
        path, lines = self.write_model(tmp_path)
        i = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
        del lines[i]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="has 2 learners, but best_iteration at line 3 is 3"):
            load_model(path)

    def test_ensemble_longer_than_best_iteration(self, tmp_path):
        path, lines = self.write_model(tmp_path)
        i = next(i for i, line in enumerate(lines) if line.startswith("rvar_learner "))
        lines.insert(i, lines[i])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="rvar ensemble has 4 learners"):
            load_model(path)


def test_not_utf8_is_data_error(tmp_path):
    model, _ = fitted("base", "constant", np.random.default_rng(11), n_iterations=1)
    path = tmp_path / "m.txt"
    save_model(path, model)
    path.write_bytes(path.read_bytes().replace(b"end\n", b"\xff\xfe\nend\n"))
    with pytest.raises(DataError, match=rf"{path.name}: not a UTF-8 text file"):
        load_model(path)
