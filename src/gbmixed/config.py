"""Flat key = value run configuration, and the one vocabulary of fit settings.

One option per line, values after '=', '#' starts a comment anywhere.
Unknown and duplicated keys are rejected so typos cannot silently fall back
to defaults. The file both names the data columns and sets the fit
hyperparameters; learning_rate is a convenience that sets all three
component rates at once unless an individual rate overrides it.

This module owns the setting keys of both commands and of the simulate
scenarios: `gbmixed fit` reads them from its config file over `FitConfig()`,
a scenario declares its fit settings as (key, value) pairs in them, and
`gbmixed simulate --set` applies the SIMULATE_KEYS subset over those. Config
lines and --set items share the item parser parse_items; all three reach a
FitConfig through apply_settings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .boosting import FitConfig, config_for_variant
from .data import ColumnSchema
from .errors import ConfigError

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

# setting key -> the FitConfig field it sets, for the keys that set one field
_FIELD_KEYS = {
    "iterations": "n_iterations",
    "lr_mean": "lr_mean",
    "lr_gcov": "lr_gcov",
    "lr_rvar": "lr_rvar",
    "group_fraction": "group_fraction",
    "feature_fraction": "feature_fraction",
    "lookback": "lookback",
    "tolerance": "tolerance",
    "early_stopping": "early_stopping",
    "eval_fraction": "eval_fraction",
    "seed": "seed",
    "verbose": "verbose",
}
_RATE_FIELDS = ("lr_mean", "lr_gcov", "lr_rvar")
_LEARNER_KEYS = ("mean_learner", "gcov_learner", "rvar_learner")
_TREE_KEYS = ("tree_max_depth", "tree_min_parent", "tree_min_child", "ridge_epsilon")

# the keys `gbmixed simulate --set` takes: a scenario fixes its columns,
# learner kinds and forced features, and --seed gives the seed
SIMULATE_KEYS = tuple(
    k for k in ("variant", "learning_rate", *_FIELD_KEYS, *_TREE_KEYS)
    if k not in ("seed", "verbose")
)


def parse_value(key: str, raw: str):
    """Convert a raw string to the value type of a known key."""
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
        raise ConfigError(f"cannot parse {raw!r} as {kind} for key {key!r}") from None


def parse_items(items, keys=_KEYS) -> dict:
    """Values of 'key = value' items, given as (location, text) pairs.

    A missing '=', a key outside keys, a repeated key and a value that does
    not parse are ConfigErrors that start with the item's location.
    """
    values: dict = {}
    for where, item in items:
        if "=" not in item:
            raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r} (allowed: {', '.join(sorted(keys))})")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return values


def parse_config_text(text: str) -> dict:
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return parse_items((f"line {n}", line) for n, line in enumerate(lines, start=1) if line)


def apply_settings(base: FitConfig, values: dict) -> FitConfig:
    """base with the fit-setting keys of values applied; other keys are ignored.

    variant re-derives the learner kinds from base's mean learner, then
    learning_rate sets all three rates, then the one-field keys (the
    per-rate ones among them) override, then the tree keys go to all three
    learners, and last the *_learner keys set their learner's kind.
    """
    cfg = base
    if "variant" in values:
        derived = config_for_variant(values["variant"], cfg.mean_learner)
        cfg = replace(cfg, **{k: getattr(derived, k) for k in ("variant", *_LEARNER_KEYS)})
    if "learning_rate" in values:
        cfg = replace(cfg, **dict.fromkeys(_RATE_FIELDS, values["learning_rate"]))
    cfg = replace(cfg, **{field: values[k] for k, field in _FIELD_KEYS.items() if k in values})
    tree = {k: values[k] for k in _TREE_KEYS if k in values}
    learners = {}
    for k in _LEARNER_KEYS:
        spec = replace(getattr(cfg, k), **tree)
        learners[k] = replace(spec, kind=values[k]) if k in values else spec
    return replace(cfg, **learners)


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
        **{f.name: values[f.name] for f in fields(ColumnSchema) if f.name in values}
    )

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

    fit = replace(apply_settings(FitConfig(), values), force_include=tuple(sorted(force)))
    return RunConfig(schema=schema, fit=fit, model_out=values.get("model_out"))


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return build_run_config(parse_config_text(text))
