"""Flat key = value run configuration for the command line.

One option per line, values after '=', '#' starts a comment anywhere.
Unknown and duplicated keys are rejected so typos cannot silently fall back
to defaults. The file both names the data columns and sets the fit
hyperparameters; learning_rate is a convenience that sets all three
component rates at once unless an individual rate overrides it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boosting import FitConfig
from .data import ColumnSchema
from .errors import ConfigError
from .learners import LearnerSpec

_STR, _INT, _FLOAT, _BOOL, _LIST = "str", "int", "float", "bool", "list"

# key -> value type; None-able strings stay None when absent
_KEYS = {
    "group_col": _STR,
    "response_col": _STR,
    "feature_cols": _LIST,
    "z_cols": _LIST,
    "categorical_cols": _LIST,
    "treatment_col": _STR,
    "variant": _STR,
    "mean_learner": _STR,
    "gcov_learner": _STR,
    "rvar_learner": _STR,
    "tree_max_depth": _INT,
    "tree_min_parent": _INT,
    "tree_min_child": _INT,
    "ridge_epsilon": _FLOAT,
    "iterations": _INT,
    "learning_rate": _FLOAT,
    "lr_mean": _FLOAT,
    "lr_gcov": _FLOAT,
    "lr_rvar": _FLOAT,
    "group_fraction": _FLOAT,
    "feature_fraction": _FLOAT,
    "lookback": _INT,
    "tolerance": _FLOAT,
    "early_stopping": _BOOL,
    "eval_fraction": _FLOAT,
    "seed": _INT,
    "force_include_cols": _LIST,
    "force_include_treatment": _BOOL,
    "verbose": _BOOL,
    "model_out": _STR,
}

_REQUIRED = ("group_col", "response_col", "feature_cols")


def _convert(key: str, raw: str, line_no: int):
    kind = _KEYS[key]
    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _BOOL:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == _LIST:
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse {raw!r} as {kind} for key {key!r}"
        ) from None


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
        values[key] = _convert(key, raw, line_no)
    return values


@dataclass(frozen=True)
class RunConfig:
    schema: ColumnSchema
    fit: FitConfig
    model_out: str | None


def build_run_config(values: dict) -> RunConfig:
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required config key {key!r}")

    schema = ColumnSchema(
        group_col=values["group_col"],
        response_col=values["response_col"],
        feature_cols=tuple(values["feature_cols"]),
        z_cols=tuple(values.get("z_cols", ("intercept",))),
        categorical_cols=tuple(values.get("categorical_cols", ())),
        treatment_col=values.get("treatment_col"),
    )

    d = FitConfig()  # the single source of defaults
    spec = LearnerSpec()

    def spec_for(key: str, default_kind: str) -> LearnerSpec:
        return LearnerSpec(
            kind=values.get(key, default_kind),
            tree_max_depth=values.get("tree_max_depth", spec.tree_max_depth),
            tree_min_parent=values.get("tree_min_parent", spec.tree_min_parent),
            tree_min_child=values.get("tree_min_child", spec.tree_min_child),
            ridge_epsilon=values.get("ridge_epsilon", spec.ridge_epsilon),
        )

    variant = values.get("variant", d.variant)
    g_default = spec.kind if variant in ("gboost", "grboost") else "constant"
    r_default = spec.kind if variant in ("rboost", "grboost") else "constant"

    feature_cols = schema.feature_cols
    force: set[int] = set()
    for name in values.get("force_include_cols", ()):
        if name not in feature_cols:
            raise ConfigError(f"force_include_cols entry {name!r} is not a feature column")
        force.add(feature_cols.index(name))
    if values.get("force_include_treatment", schema.treatment_col is not None):
        if schema.treatment_col is None:
            raise ConfigError("force_include_treatment set but no treatment_col given")
        force.add(feature_cols.index(schema.treatment_col))

    fit = FitConfig(
        variant=variant,
        n_iterations=values.get("iterations", d.n_iterations),
        lr_mean=values.get("lr_mean", values.get("learning_rate", d.lr_mean)),
        lr_gcov=values.get("lr_gcov", values.get("learning_rate", d.lr_gcov)),
        lr_rvar=values.get("lr_rvar", values.get("learning_rate", d.lr_rvar)),
        group_fraction=values.get("group_fraction", d.group_fraction),
        feature_fraction=values.get("feature_fraction", d.feature_fraction),
        mean_learner=spec_for("mean_learner", spec.kind),
        gcov_learner=spec_for("gcov_learner", g_default),
        rvar_learner=spec_for("rvar_learner", r_default),
        lookback=values.get("lookback", d.lookback),
        tolerance=values.get("tolerance", d.tolerance),
        early_stopping=values.get("early_stopping", d.early_stopping),
        eval_fraction=values.get("eval_fraction", d.eval_fraction),
        seed=values.get("seed", d.seed),
        force_include=tuple(sorted(force)),
        verbose=values.get("verbose", d.verbose),
    )
    return RunConfig(schema=schema, fit=fit, model_out=values.get("model_out"))


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return build_run_config(parse_config_text(text))
