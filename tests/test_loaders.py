"""The three file loaders on damaged files: they return or raise their own error.

Each file starts as one that save_csv, save_model or a valid config gives,
and hypothesis damages it once: a line dropped, duplicated or swapped, the
file cut short, a byte flipped, or one value replaced by a string, nan, a
negative or a huge number. load_csv, load_model and load_run_config must
then return or raise DataError or ConfigError, never another exception.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed.boosting import config_for_variant, fit
from gbmixed.config import load_run_config
from gbmixed.data import ColumnSchema, GroupBlock, GroupedDataset, load_csv, save_csv
from gbmixed.errors import ConfigError, DataError
from gbmixed.learners import LearnerSpec
from gbmixed.model_io import load_model, save_model

VALUES = ("text", math.nan, -1, -2.5, 1.5, True, 10**8, 1e308)

CONFIG = """\
group_col = g
response_col = y
feature_cols = x1, x2, w
z_cols = intercept, x1
categorical_cols = x2
treatment_col = w
variant = grboost
iterations = 3
learning_rate = 0.1
tree_min_parent = 4
tree_min_child = 2
early_stopping = false
seed = 3
model_out = m.model
"""


def dataset():
    rng = np.random.default_rng(0)
    groups = []
    for gid in range(12):
        n = 3 + gid % 3
        X = np.column_stack([rng.standard_normal(n), rng.integers(0, 3, n), rng.integers(0, 2, n)])
        y = X[:, 0] + 0.5 * X[:, 2] + rng.standard_normal() + 0.3 * rng.standard_normal(n)
        groups.append(GroupBlock(group_id=gid, y=y, X=X, Z=np.column_stack([np.ones(n), X[:, 0]])))
    return GroupedDataset(tuple(groups), ("x1", "x2", "w"), treatment_index=2,
                          categorical_features=(1,))


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """kind -> (path to damage, the undamaged bytes, the loader)."""
    tmp = tmp_path_factory.mktemp("loaders")
    schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1", "x2", "w"),
                          z_cols=("intercept", "x1"), categorical_cols=("x2",), treatment_col="w")
    ds = dataset()
    spec = LearnerSpec(kind="tree", tree_min_parent=4, tree_min_child=2)
    model = fit(ds, config_for_variant("grboost", spec, n_iterations=3, early_stopping=False))
    save_csv(tmp / "data.csv", ds, schema)
    save_model(tmp / "m.model", model, schema)
    (tmp / "run.cfg").write_text(CONFIG)
    loaders = {
        "csv": ("data.csv", lambda p: load_csv(p, schema)),
        "model": ("m.model", load_model),
        "config": ("run.cfg", load_run_config),
    }
    return {kind: (tmp / name, (tmp / name).read_bytes(), load)
            for kind, (name, load) in loaders.items()}


def json_paths(obj, prefix=()):
    """Every key or index path into a JSON value, the value itself included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from json_paths(v, prefix + (k,))


def replace_value(data, line: str) -> str:
    """line with one value replaced: a JSON value where the line holds a record, else a token."""
    value = data.draw(st.sampled_from(VALUES))
    if "{" in line:
        head, payload = line[:line.index("{")], line[line.index("{"):]
        record = json.loads(payload)
        path = data.draw(st.sampled_from(list(json_paths(record))))
        if not path:
            return head + json.dumps(value)
        target = record
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value
        return head + json.dumps(record)
    tokens = list(re.finditer(r"[^\s,=]+", line))
    if not tokens:
        return line
    m = data.draw(st.sampled_from(tokens))
    return line[:m.start()] + str(value) + line[m.end():]


def damage(data, raw: bytes) -> bytes:
    how = data.draw(st.sampled_from(("drop", "duplicate", "swap", "cut", "flip", "value")))
    lines = raw.splitlines(keepends=True)
    at = lambda seq: data.draw(st.integers(0, len(seq) - 1))
    if how == "cut":
        return raw[:at(raw)]
    if how == "flip":
        i = at(raw)
        return raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1:]
    i = at(lines)
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = at(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        end = "\n" if lines[i].endswith(b"\n") else ""
        lines[i] = (replace_value(data, lines[i].decode().rstrip("\n")) + end).encode()
    return b"".join(lines)


@pytest.mark.parametrize("kind", ["csv", "model", "config"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_file_returns_or_raises_its_error(sources, kind, data):
    path, raw, load = sources[kind]
    path.write_bytes(damage(data, raw))
    try:
        load(path)
    except (DataError, ConfigError):
        pass
