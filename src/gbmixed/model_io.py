"""Versioned, line-oriented textual model files.

A model file is a sequence of tagged lines:

    gbmixed-model 1
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
are rejected, not guessed at.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from typing import get_type_hints

import numpy as np

from .boosting import FitConfig, FittedModel
from .data import ColumnSchema
from .errors import ConfigError, DataError
from .learners import (
    ConstantLearner,
    LinearLearner,
    TreeLeaf,
    TreeLearner,
    TreeSplit,
)

FORMAT_NAME = "gbmixed-model"
FORMAT_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _from_record(cls, record: dict):
    """Rebuild a dataclass written with asdict: JSON lists become tuples again
    and nested records the dataclasses their fields are annotated with."""
    if not isinstance(record, dict):
        raise TypeError(f"expected a {cls.__name__} record, got {record!r}")
    hints = get_type_hints(cls)

    def value(key, v):
        if is_dataclass(hints[key]):
            return _from_record(hints[key], v)
        return tuple(v) if isinstance(v, list) else v

    return cls(**{k: value(k, v) for k, v in record.items()})


def _node_payload(node):
    if isinstance(node, TreeLeaf):
        return {"v": node.value}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": _node_payload(node.left),
        "r": _node_payload(node.right),
    }


def _node_from(payload):
    if "v" in payload:
        return TreeLeaf(value=float(payload["v"]))
    return TreeSplit(
        feature=int(payload["f"]),
        threshold=float(payload["t"]),
        left=_node_from(payload["l"]),
        right=_node_from(payload["r"]),
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
            "n_features": h.n_features,
        }
    if isinstance(h, TreeLearner):
        return {"kind": "tree", "root": _node_payload(h.root), "n_features": h.n_features}
    raise DataError(f"cannot serialize learner of type {type(h).__name__}")


def _learner_from(payload: dict):
    kind = payload["kind"]
    if kind == "constant":
        return ConstantLearner(value=float(payload["value"]))
    if kind == "linear":
        return LinearLearner(
            features=tuple(int(f) for f in payload["features"]),
            coef=np.asarray([float(c) for c in payload["coef"]]),
            intercept=float(payload["intercept"]),
            n_features=int(payload["n_features"]),
        )
    if kind == "tree":
        return TreeLearner(root=_node_from(payload["root"]), n_features=int(payload["n_features"]))
    raise DataError(f"unknown learner kind {kind!r} in model file")


def _model_from(config, meta: dict, mean_learners, gcov_by_entry, rvar_learners):
    """The model and its stored schema (or None) from the parsed records."""
    q = int(meta["q"])
    T = q * (q + 1) // 2
    gcov_learners = tuple(gcov_by_entry.get(t, []) for t in range(T))
    t_idx = meta["treatment_index"]
    model = FittedModel(
        config=config,
        feature_names=tuple(meta["feature_names"]),
        q=q,
        treatment_index=None if t_idx is None else int(t_idx),
        categorical_features=tuple(int(c) for c in meta["categorical_features"]),
        mean_init=float(meta["mean_init"]),
        mean_learners=mean_learners,
        gcov_init=np.asarray([float(v) for v in meta["gcov_init"]]),
        gcov_learners=gcov_learners,
        logrvar_init=float(meta["logrvar_init"]),
        rvar_learners=rvar_learners,
        history=[float(v) for v in meta["history"]],
        best_iteration=int(meta["best_iteration"]),
        n_iterations_run=int(meta["n_iterations_run"]),
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
        "mean_init": model.mean_init,
        "gcov_init": [float(v) for v in model.gcov_init],
        "logrvar_init": model.logrvar_init,
        "history": [float(v) for v in model.history],
        "best_iteration": model.best_iteration,
        "n_iterations_run": model.n_iterations_run,
        # the feature columns are the model's feature_names
        "schema": None
        if schema is None
        else {k: v for k, v in asdict(schema).items() if k != "feature_cols"},
    }
    lines.append("meta " + _dump(meta))
    for h in model.mean_learners:
        lines.append("mean_learner " + _dump(_learner_payload(h)))
    for t, entry in enumerate(model.gcov_learners):
        for h in entry:
            lines.append(f"gcov_learner {t} " + _dump(_learner_payload(h)))
    for h in model.rvar_learners:
        lines.append("rvar_learner " + _dump(_learner_payload(h)))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> tuple[FittedModel, ColumnSchema | None]:
    """Read a model file back; returns the model and the stored schema, if any."""
    try:
        with open(path, encoding="utf-8") as fh:
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
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported model format version {version} (supported: {FORMAT_VERSION})"
        )

    config = None
    meta = None
    mean_learners = []
    gcov_by_entry: dict[int, list] = {}
    gcov_lines: dict[int, int] = {}    # entry -> line of its first learner
    rvar_learners = []
    saw_end = False
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if saw_end:
            raise DataError(f"{path}: content after end marker at line {line_no}")
        tag, _, rest = line.partition(" ")
        try:
            if tag == "config":
                config = _from_record(FitConfig, json.loads(rest))
            elif tag == "meta":
                meta, meta_line = json.loads(rest), line_no
            elif tag == "mean_learner":
                mean_learners.append(_learner_from(json.loads(rest)))
            elif tag == "gcov_learner":
                entry_s, _, payload = rest.partition(" ")
                gcov_by_entry.setdefault(int(entry_s), []).append(
                    _learner_from(json.loads(payload))
                )
                gcov_lines.setdefault(int(entry_s), line_no)
            elif tag == "rvar_learner":
                rvar_learners.append(_learner_from(json.loads(rest)))
            elif tag == "end":
                saw_end = True
            else:
                raise DataError(f"{path}: unknown record {tag!r} at line {line_no}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed record at line {line_no}: {exc}") from None
    if not saw_end:
        raise DataError(f"{path}: truncated model file (no end marker)")
    if config is None or meta is None:
        raise DataError(f"{path}: missing config or meta record")

    try:
        model, schema = _model_from(config, meta, mean_learners, gcov_by_entry, rvar_learners)
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: malformed record at line {meta_line}: {exc}") from None
    # fit writes every ensemble cut to best_iteration, one per factor entry
    T = model.n_factor_entries
    for t, line_no in gcov_lines.items():
        if not 0 <= t < T:
            raise DataError(
                f"{path}: gcov_learner entry {t} at line {line_no} is outside 0..{T - 1}"
            )
    ensembles = {"mean": model.mean_learners, "rvar": model.rvar_learners}
    ensembles.update({f"gcov entry {t}": e for t, e in enumerate(model.gcov_learners)})
    for name, ensemble in ensembles.items():
        if len(ensemble) != model.best_iteration:
            raise DataError(
                f"{path}: {name} ensemble has {len(ensemble)} learners, but best_iteration "
                f"at line {meta_line} is {model.best_iteration}"
            )
    return model, schema
