"""Flat key = value configuration parsing and FitConfig assembly."""

from dataclasses import fields

import pytest

from gbmixed import config as config_mod
from gbmixed.boosting import FitConfig
from gbmixed.config import build_run_config, load_run_config, parse_config_text
from gbmixed.errors import ConfigError


def minimal(extra=""):
    return (
        "group_col = g\n"
        "response_col = y\n"
        "feature_cols = x1, x2, w\n" + extra
    )


class TestParsing:
    def test_comments_blank_lines_and_types(self):
        text = (
            "# full line comment\n"
            "group_col = g   # trailing comment\n"
            "\n"
            "response_col = y\n"
            "feature_cols = x1,x2\n"
            "iterations = 40\n"
            "learning_rate = 0.05\n"
            "early_stopping = false\n"
        )
        values = parse_config_text(text)
        assert values["group_col"] == "g"
        assert values["feature_cols"] == ("x1", "x2")
        assert values["iterations"] == 40
        assert values["learning_rate"] == 0.05
        assert values["early_stopping"] is False

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*learning_rte"):
            parse_config_text("group_col = g\nlearning_rte = 0.1\n")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            parse_config_text("group_col = g\nresponse_col = y\ngroup_col = h\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("group_col g\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="line 1.*iterations"):
            parse_config_text("iterations = soon\n")
        with pytest.raises(ConfigError, match="early_stopping"):
            parse_config_text("early_stopping = maybe\n")

    def test_bool_spellings(self):
        for raw, expected in [("true", True), ("Yes", True), ("1", True), ("false", False), ("no", False), ("0", False)]:
            assert parse_config_text(f"verbose = {raw}\n")["verbose"] is expected


class TestBuild:
    def test_required_keys(self):
        with pytest.raises(ConfigError, match="group_col"):
            build_run_config(parse_config_text("response_col = y\nfeature_cols = x1\n"))

    def test_defaults(self):
        run = build_run_config(parse_config_text(minimal()))
        assert run.fit.variant == "grboost"
        assert run.fit.n_iterations == 500
        assert run.fit.lr_mean == run.fit.lr_gcov == run.fit.lr_rvar == 0.03
        assert run.fit.mean_learner.kind == "tree"
        assert run.fit.gcov_learner.kind == "tree"
        assert run.fit.rvar_learner.kind == "tree"
        assert run.fit.early_stopping is True
        assert run.model_out is None
        assert run.schema.z_cols == ("intercept",)
        defaults = FitConfig()
        for field in fields(FitConfig):
            assert getattr(run.fit, field.name) == getattr(defaults, field.name), field.name

    def test_variant_drives_learner_kinds(self):
        run = build_run_config(parse_config_text(minimal("variant = base\n")))
        assert run.fit.gcov_learner.kind == "constant"
        assert run.fit.rvar_learner.kind == "constant"
        run = build_run_config(parse_config_text(minimal("variant = rboost\n")))
        assert run.fit.gcov_learner.kind == "constant"
        assert run.fit.rvar_learner.kind == "tree"
        run = build_run_config(parse_config_text(minimal("variant = gboost\n")))
        assert run.fit.gcov_learner.kind == "tree"
        assert run.fit.rvar_learner.kind == "constant"

    def test_learning_rate_expansion_and_override(self):
        run = build_run_config(parse_config_text(minimal("learning_rate = 0.1\n")))
        assert run.fit.lr_mean == run.fit.lr_gcov == run.fit.lr_rvar == 0.1
        run = build_run_config(
            parse_config_text(minimal("learning_rate = 0.1\nlr_rvar = 0.02\n"))
        )
        assert run.fit.lr_mean == 0.1
        assert run.fit.lr_rvar == 0.02

    def test_tree_settings_propagate(self):
        run = build_run_config(
            parse_config_text(minimal("tree_max_depth = 5\ntree_min_child = 2\n"))
        )
        assert run.fit.mean_learner.tree_max_depth == 5
        assert run.fit.gcov_learner.tree_min_child == 2

    def test_force_include_from_names(self):
        run = build_run_config(
            parse_config_text(minimal("force_include_cols = x2, w\n"))
        )
        assert run.fit.force_include == (1, 2)

    def test_force_include_unknown_name(self):
        with pytest.raises(ConfigError, match="nope"):
            build_run_config(parse_config_text(minimal("force_include_cols = nope\n")))

    def test_treatment_forced_by_default(self):
        run = build_run_config(parse_config_text(minimal("treatment_col = w\n")))
        assert run.fit.force_include == (2,)
        run = build_run_config(
            parse_config_text(minimal("treatment_col = w\nforce_include_treatment = false\n"))
        )
        assert run.fit.force_include == ()

    def test_force_treatment_without_treatment_col(self):
        with pytest.raises(ConfigError, match="force_include_treatment"):
            build_run_config(
                parse_config_text(minimal("force_include_treatment = true\n"))
            )

    def test_invalid_variant_propagates(self):
        with pytest.raises(ConfigError, match="variant"):
            build_run_config(parse_config_text(minimal("variant = mega\n")))

    def test_schema_columns(self):
        run = build_run_config(
            parse_config_text(
                minimal("z_cols = intercept, x1\ncategorical_cols = x2\ntreatment_col = w\n")
            )
        )
        assert run.schema.z_cols == ("intercept", "x1")
        assert run.schema.categorical_cols == ("x2",)
        assert run.schema.treatment_col == "w"

    def test_model_out(self):
        run = build_run_config(parse_config_text(minimal("model_out = fit.model\n")))
        assert run.model_out == "fit.model"


FLOAT_KEYS = sorted(k for k, kind in config_mod._KEYS.items() if kind == "float")


class TestNonFiniteSettings:
    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_rejected(self, key, raw):
        with pytest.raises(ConfigError):
            build_run_config(parse_config_text(minimal(f"{key} = {raw}\n")))


class TestLoadFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(minimal("variant = rboost\nseed = 9\n"))
        run = load_run_config(path)
        assert run.fit.variant == "rboost"
        assert run.fit.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.cfg")
