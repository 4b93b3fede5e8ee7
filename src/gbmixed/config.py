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

The key table is read off the annotations of ColumnSchema (every field) and
of FitConfig and LearnerSpec (every int, float and bool field, n_iterations
as `iterations`), so a new setting is one annotated field, and the
dataclasses check their values against the same annotations. Only the keys
that set no field or several are written out here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .boosting import COMPONENTS, FitConfig, config_for_variant
from .data import ColumnSchema
from .errors import ConfigError, field_types
from .learners import LearnerSpec

_LEARNER_KEYS = tuple(c.learner for c in COMPONENTS.values())
_RATE_FIELDS = tuple(c.rate for c in COMPONENTS.values())
_SCALARS = (int, float, bool)

# the int, float and bool fields: of FitConfig, and of LearnerSpec, which the
# tree keys set on all three learners
_FIT_TYPES = {k: t for k, (t, _, many) in field_types(FitConfig).items() if t in _SCALARS and not many}
_TREE_TYPES = {k: t for k, (t, _, _) in field_types(LearnerSpec).items() if t in _SCALARS}

# setting key -> the FitConfig field it sets
_FIELD_KEYS = {"iterations" if name == "n_iterations" else name: name for name in _FIT_TYPES}
_TREE_KEYS = tuple(_TREE_TYPES)

# key -> value type (tuple for a list of names); None-able strings stay None when absent
_KEYS = {
    **{k: tuple if many else t for k, (t, _, many) in field_types(ColumnSchema).items()},
    "variant": str,
    **dict.fromkeys(_LEARNER_KEYS, str),
    **_TREE_TYPES,
    "learning_rate": float,
    **{k: _FIT_TYPES[name] for k, name in _FIELD_KEYS.items()},
    "force_include_cols": tuple,
    "force_include_treatment": bool,
    "model_out": str,
}

_REQUIRED = ("group_col", "response_col", "feature_cols")

# the keys `gbmixed simulate --set` takes: a scenario fixes its columns,
# learner kinds and forced features, and --seed gives the seed
SIMULATE_KEYS = tuple(
    k for k in ("variant", "learning_rate", *_FIELD_KEYS, *_TREE_KEYS) if k != "seed"
)


def parse_value(key: str, raw: str):
    """Convert a raw string to the value type of a known key."""
    kind = _KEYS[key]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {raw!r} as {kind.__name__} for key {key!r}") from None


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

    variant sets the two variance learners from base's mean learner, then
    learning_rate sets all three rates, then the one-field keys (the
    per-rate ones among them) override, then the tree keys go to all three
    learners, and last the *_learner keys set their learner's kind.
    """
    cfg = base
    if "variant" in values:
        derived = config_for_variant(values["variant"], cfg.mean_learner)
        cfg = replace(cfg, **{k: getattr(derived, k) for k in _LEARNER_KEYS})   # keeps cfg's mean learner
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
        with open(path, encoding="utf-8-sig") as fh:   # skips a byte-order mark
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return build_run_config(parse_config_text(text))
