"""Versioned, line-oriented textual model files.

A model file is a sequence of tagged lines:

    gbmixed-model 2
    config {...}
    meta {...}
    mean_learner {...}
    gcov_learner <entry> {...}
    rvar_learner {...}
    end

Payloads are compact JSON with sorted keys. Floats serialize through
Python's shortest round-trip repr, so a loaded model predicts bit-identically
to the one that was saved, and saving the same model twice yields identical
bytes. The version number on the first line gates loading: unknown versions
are rejected, not guessed at. Learner records follow the meta record, and
load_model checks each against it (split and linear feature indices) as it
rebuilds them.

A file states each fact once: it stores no iteration count (the ensembles'
common length and the history give them) and no constant of the package
(learners.BINS, learners.RIDGE_EPSILON). Version 1 files still load: the
readers skip their learners' n_features and their meta's best_iteration and
n_iterations_run, and _RETIRED drops their learner specs' ridge_epsilon.

Each learner tag holds one component's boosting.Ensemble (_RECORDS): the
mean, G (whose records number the factor entry, in tril_indices order) and
log r. The meta record keeps their start values under mean_init, gcov_init
(a list, one value per entry) and logrvar_init. One loop writes the records
and one branch reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

from .boosting import Ensemble, FitConfig, FittedModel
from .data import ColumnSchema
from .errors import ConfigError, DataError, check_type, field_types
from .learners import (
    ConstantLearner,
    LearnerSpec,
    LinearLearner,
    TreeLeaf,
    TreeLearner,
    TreeSplit,
)

FORMAT_NAME = "gbmixed-model"
FORMAT_VERSION = 2     # load_model reads versions 1 to FORMAT_VERSION

# learner record tag -> (component, meta key of its start values, whether the component
# has one output per factor entry, which its start values list and its records number)
_RECORDS = {
    "mean_learner": ("mean", "mean_init", False),
    "gcov_learner": ("G", "gcov_init", True),
    "rvar_learner": ("R", "logrvar_init", False),
}
# fields that records written before their removal carry, which _from_record drops
_RETIRED = {FitConfig: ("verbose", "variant"), LearnerSpec: ("ridge_epsilon",)}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _from_record(cls, record: dict):
    """Rebuild a dataclass written with asdict: JSON lists become tuples again,
    nested records the dataclasses their fields are annotated with, and the
    class's _RETIRED fields are dropped."""
    if not isinstance(record, dict):
        raise TypeError(f"expected a {cls.__name__} record, got {record!r}")
    types = field_types(cls)

    def value(key, v):
        if is_dataclass(types[key][0]):
            return _from_record(types[key][0], v)
        return tuple(v) if isinstance(v, list) else v

    retired = _RETIRED.get(cls, ())
    return cls(**{k: value(k, v) for k, v in record.items() if k not in retired})


def _node_payload(node):
    if isinstance(node, TreeLeaf):
        return {"v": node.value}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": _node_payload(node.left),
        "r": _node_payload(node.right),
    }


def _finite(name: str, value) -> float:
    """value as a float when it is a finite number, else a ConfigError naming it."""
    return float(check_type(name, value, float))


def _check_features(features, p: int, what: str) -> None:
    for f in features:
        if not 0 <= f < p:
            raise ValueError(f"{what} {f} outside 0..{p - 1}")


def _node_from(payload, p: int):
    """Rebuild a tree node, checking each split feature against the model's p features."""
    if "v" in payload:
        return TreeLeaf(value=_finite("leaf value", payload["v"]))
    feature = check_type("split feature", payload["f"])
    _check_features([feature], p, "split feature")
    # fit writes +inf for the cut below +inf feature values, and finite thresholds otherwise
    threshold = payload["t"]
    if threshold != math.inf:
        threshold = _finite("split threshold", threshold)
    return TreeSplit(
        feature=feature,
        threshold=threshold,
        left=_node_from(payload["l"], p),
        right=_node_from(payload["r"], p),
    )


def _learner_payload(h) -> dict:
    if isinstance(h, ConstantLearner):
        return {"kind": "constant", "value": h.value}
    if isinstance(h, LinearLearner):
        return {
            "kind": "linear",
            "features": list(h.features),
            "coef": [float(c) for c in h.coef],
            "intercept": h.intercept,
        }
    if isinstance(h, TreeLearner):
        return {"kind": "tree", "root": _node_payload(h.root)}
    raise DataError(f"cannot serialize learner of type {type(h).__name__}")


def _learner_from(payload: dict, p: int):
    """Rebuild a learner of a model with p features; one that does not fit them is a ValueError."""
    kind = payload["kind"]
    if kind == "constant":
        return ConstantLearner(value=_finite("constant value", payload["value"]))
    if kind == "linear":
        features = tuple(check_type("linear feature", f) for f in payload["features"])
        _check_features(features, p, "linear feature")
        coef = np.asarray([_finite("linear coefficient", c) for c in payload["coef"]])
        if coef.shape != (len(features),):
            raise ValueError(f"{coef.size} linear coefficients for {len(features)} features")
        return LinearLearner(
            features=features,
            coef=coef,
            intercept=_finite("linear intercept", payload["intercept"]),
        )
    if kind == "tree":
        return TreeLearner(root=_node_from(payload["root"], p))
    raise ValueError(f"unknown learner kind {kind!r}")


def _model_from(config, meta: dict, found: dict):
    """The model and its stored schema (or None) from the parsed records; found maps
    (tag, entry) to the line of its first learner record and its learners."""
    q = check_type("q", meta["q"])
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    T = q * (q + 1) // 2
    g_start = np.asarray([_finite("gcov_init entry", v) for v in meta["gcov_init"]])
    if g_start.shape != (T,):
        raise ValueError(f"gcov_init has {g_start.size} entries, q = {q} needs {T}")
    p = len(meta["feature_names"])
    t_idx = meta["treatment_index"]
    t_idx = None if t_idx is None else check_type("treatment_index", t_idx)
    categorical = tuple(check_type("categorical feature", c) for c in meta["categorical_features"])
    _check_features([] if t_idx is None else [t_idx], p, "treatment_index")
    _check_features(categorical, p, "categorical feature")
    if any(a >= b for a, b in zip(categorical, categorical[1:])):
        raise ValueError(f"categorical features {list(categorical)} are not strictly ascending")
    ensembles = {}
    for tag, (name, key, entries) in _RECORDS.items():
        init = g_start if entries else np.array([_finite(key, meta[key])])
        learners = tuple(found.get((tag, t), (0, []))[1] for t in range(len(init)))
        ensembles[name] = Ensemble(init, learners)
    model = FittedModel(
        config=config,
        feature_names=tuple(meta["feature_names"]),
        q=q,
        treatment_index=t_idx,
        categorical_features=categorical,
        ensembles=ensembles,
        history=[_finite("history entry", v) for v in meta["history"]],
    )
    stored = meta.get("schema")
    if stored is None:
        return model, None
    return model, _from_record(ColumnSchema, {**stored, "feature_cols": model.feature_names})


def save_model(path: str, model: FittedModel, schema: ColumnSchema | None = None) -> None:
    """Write a model file; schema, when given, lets the CLI reload data files."""
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append("config " + _dump(asdict(model.config)))
    meta = {
        "feature_names": list(model.feature_names),
        "q": model.q,
        "treatment_index": model.treatment_index,
        "categorical_features": list(model.categorical_features),
        "history": [float(v) for v in model.history],
        # the feature columns are the model's feature_names
        "schema": None
        if schema is None
        else {k: v for k, v in asdict(schema).items() if k != "feature_cols"},
    }
    for name, key, entries in _RECORDS.values():
        init = model.ensembles[name].init
        meta[key] = [float(v) for v in init] if entries else float(init[0])
    lines.append("meta " + _dump(meta))
    for tag, (name, _, entries) in _RECORDS.items():
        for t, learners in enumerate(model.ensembles[name].learners):
            head = f"{tag} {t} " if entries else f"{tag} "
            lines.extend(head + _dump(_learner_payload(h)) for h in learners)
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> tuple[FittedModel, ColumnSchema | None]:
    """Read a model file back; returns the model and the stored schema, if any."""
    try:
        with open(path, encoding="utf-8-sig") as fh:   # skips a byte-order mark
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc})") from None
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise DataError(f"{path}: not a {FORMAT_NAME} file")
    try:
        version = int(head[1])
    except ValueError:
        raise DataError(f"{path}: bad version {head[1]!r}") from None
    if not 1 <= version <= FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported model format version {version} (supported: 1 to {FORMAT_VERSION})"
        )

    config = None
    meta = None
    seen: dict[str, int] = {}          # config or meta -> the line of that record
    found: dict[tuple, tuple] = {}     # (tag, entry) -> (line of its first learner, learners)
    saw_end = False
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if saw_end:
            raise DataError(f"{path}: content after end marker at line {line_no}")
        tag, _, rest = line.partition(" ")
        if tag in seen:
            raise DataError(f"{path}: {tag} record at line {line_no} repeats line {seen[tag]}")
        try:
            if tag == "config":
                config, seen[tag] = _from_record(FitConfig, json.loads(rest)), line_no
            elif tag == "meta":
                meta, seen[tag] = json.loads(rest), line_no
                p = len(meta["feature_names"])
            elif tag in _RECORDS:
                if meta is None:
                    raise DataError(f"{path}: {tag} at line {line_no} comes before the meta record")
                entry, _, payload = rest.partition(" ") if _RECORDS[tag][2] else ("0", "", rest)
                key = tag, int(entry)
                found.setdefault(key, (line_no, []))[1].append(_learner_from(json.loads(payload), p))
            elif tag == "end":
                saw_end = True
            else:
                raise DataError(f"{path}: unknown record {tag!r} at line {line_no}")
        except (KeyError, TypeError, ValueError, RecursionError, ConfigError) as exc:
            # RecursionError: a record nested deeper than json or the tree rebuild can follow
            raise DataError(f"{path}: malformed record at line {line_no}: {exc}") from None
    if not saw_end:
        raise DataError(f"{path}: truncated model file (no end marker)")
    if config is None or meta is None:
        raise DataError(f"{path}: missing config or meta record")
    meta_line = seen["meta"]

    try:
        model, schema = _model_from(config, meta, found)
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: malformed record at line {meta_line}: {exc}") from None
    # fit cuts every ensemble, one per output, to best_iteration learners
    for (tag, t), (line_no, _) in found.items():
        n = len(model.ensembles[_RECORDS[tag][0]].learners)
        if not 0 <= t < n:
            raise DataError(f"{path}: {tag} entry {t} at line {line_no} is outside 0..{n - 1}")
    best = model.best_iteration
    # the one-output ensembles first, then G's entries: the order the loader reports in
    for tag, (name, _, entries) in sorted(_RECORDS.items(), key=lambda r: r[1][2]):
        for t, learners in enumerate(model.ensembles[name].learners):
            label = tag.removesuffix("_learner") + (f" entry {t}" if entries else "")
            if len(learners) != best:
                raise DataError(f"{path}: {label} ensemble has {len(learners)} learners, "
                                f"but the mean ensemble has {best}")
    # and records the eval log-likelihood before each iteration and after the last
    if len(model.history) <= best:
        raise DataError(f"{path}: history at line {meta_line} has {len(model.history)} entries, "
                        f"too few for ensembles of {best} learners")
    return model, schema
