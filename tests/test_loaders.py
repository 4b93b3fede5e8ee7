"""The three file loaders on generated files.

Damaged files: each file starts as one that save_csv, save_model or a valid
config gives, and hypothesis damages it once: a line dropped, duplicated or
swapped, the file cut short, a byte flipped, or one value replaced by a
string, nan, a negative or a huge number. load_csv, load_model and
load_run_config must then return or raise DataError or ConfigError, never
another exception, and `gbmixed fit` and `gbmixed predict` on such a file
exit 0, 2 or 3.

Round trips: save_csv then load_csv gives back a random dataset exactly
(int, float and text group ids, text ids that csv quotes, non-ASCII names,
categorical columns, nan responses), save_csv writes the bytes write_csv
writes for the rows [id, y, *x], and save_model then load_model gives back
a small fitted model of any learner kinds that predicts bit-identically and
saves to the same bytes.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed import cli
from gbmixed.boosting import (
    FitConfig, config_for_variant, eval_gcov_rows, eval_mean, eval_resid_var, fit,
)
from gbmixed.config import load_run_config
from gbmixed.data import (
    INTERCEPT, ColumnSchema, GroupBlock, GroupedDataset, load_csv, save_csv, write_csv,
)
from gbmixed.errors import ConfigError, DataError
from gbmixed.learners import LEARNER_KINDS, LearnerSpec
from gbmixed.model_io import load_model, save_model
from gbmixed.prediction import predict_dataset

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
@settings(max_examples=150)
@given(data=st.data())
def test_damaged_file_returns_or_raises_its_error(sources, kind, data):
    path, raw, load = sources[kind]
    path.write_bytes(damage(data, raw))
    try:
        load(path)
    except (DataError, ConfigError):
        pass


@pytest.fixture(scope="module")
def cli_sources(tmp_path_factory):
    """The files of one fit and one predict run: name -> undamaged bytes."""
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "run.cfg").write_text(CONFIG)
    schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1", "x2", "w"),
                          z_cols=("intercept", "x1"), categorical_cols=("x2",), treatment_col="w")
    save_csv(tmp / "data.csv", dataset(), schema)
    assert cli_run(tmp, "fit") == 0
    return tmp, {name: (tmp / name).read_bytes() for name in ("run.cfg", "data.csv", "m.model")}


def cli_run(tmp, command: str) -> int:
    if command == "fit":
        argv = ["fit", "--config", tmp / "run.cfg", "--data", tmp / "data.csv",
                "--out", tmp / "m.model"]
    else:
        argv = ["predict", "--model", tmp / "m.model", "--data", tmp / "data.csv",
                "--out", tmp / "p.csv", "--cate"]
    return cli.main([str(a) for a in argv])


@pytest.mark.parametrize("command,name", [("fit", "run.cfg"), ("fit", "data.csv"),
                                          ("predict", "m.model"), ("predict", "data.csv")])
@settings(max_examples=40)
@given(data=st.data())
def test_cli_on_a_damaged_file_exits_0_2_or_3(cli_sources, command, name, data):
    tmp, raws = cli_sources
    for other, raw in raws.items():
        (tmp / other).write_bytes(damage(data, raw) if other == name else raw)
    with pytest.MonkeyPatch.context() as mp:
        # a damaged iteration count is a valid request for a long fit: cap it at the file's 3
        mp.setattr(cli, "fit", lambda ds, cfg: fit(
            ds, dataclasses.replace(cfg, n_iterations=min(cfg.n_iterations, 3))))
        assert cli_run(tmp, command) in (0, 2, 3)


def not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# letters, non-ASCII ones included, so that no name or text id reads as a number or has spaces
WORDS = st.text(st.characters(categories=["L"]), min_size=1, max_size=6).filter(not_a_number)
# text ids that csv must quote; load_csv strips an id, so they have no surrounding whitespace
QUOTED = st.text(st.characters(categories=["L"]) | st.sampled_from(',"'), min_size=1,
                 max_size=6).filter(lambda t: "," in t or '"' in t)
GROUP_IDS = st.one_of(
    st.integers(-(2**63), 2**63),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda f: not f.is_integer()),
    WORDS,
    QUOTED,
)
VALUES_X = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_case(draw):
    """(dataset, schema): random names, ids, categorical and treatment columns, nan responses."""
    names = draw(st.lists(WORDS.filter(lambda w: w != INTERCEPT), min_size=3, max_size=6,
                          unique=True))
    group_col, response_col, *features = names
    schema = ColumnSchema(
        group_col=group_col,
        response_col=response_col,
        feature_cols=tuple(features),
        z_cols=tuple(draw(st.lists(st.sampled_from([INTERCEPT, *features]), min_size=1,
                                   max_size=2, unique=True))),
        categorical_cols=tuple(draw(st.lists(st.sampled_from(features), unique=True))),
        treatment_col=draw(st.none() | st.sampled_from(features)),
    )
    cat = set(schema.categorical_indices)
    groups = []
    for gid in draw(st.lists(GROUP_IDS, min_size=1, max_size=5, unique=True)):
        n = draw(st.integers(1, 3))
        X = np.array([[draw(st.sampled_from([0.0, 1.0, 2.0]) if j in cat else VALUES_X)
                       for j in range(len(features))] for _ in range(n)])
        y = np.array([draw(VALUES_X | st.just(math.nan)) for _ in range(n)])
        Z = np.column_stack([np.ones(n) if c == INTERCEPT else X[:, features.index(c)]
                             for c in schema.z_cols])
        groups.append(GroupBlock(group_id=gid, y=y, X=X, Z=Z))
    ds = GroupedDataset(groups=tuple(groups), feature_names=schema.feature_cols,
                        treatment_index=None if schema.treatment_col is None
                        else features.index(schema.treatment_col),
                        categorical_features=schema.categorical_indices)
    return ds, schema


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100)
@given(case=csv_case())
def test_csv_round_trip_is_the_identity(tmp_path_factory, case):
    ds, schema = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(path, ds, schema)
    table = path.with_name("table.csv")
    rows = [[g.group_id, y, *x] for g in ds.groups for y, x in zip(g.y, g.X)]
    write_csv(table, [schema.group_col, schema.response_col, *schema.feature_cols], rows)
    assert path.read_bytes() == table.read_bytes()
    back = load_csv(path, schema)
    assert [(type(i), i) for i in back.group_ids()] == [(type(i), i) for i in ds.group_ids()]
    assert back.feature_names == ds.feature_names
    assert back.treatment_index == ds.treatment_index
    assert back.categorical_features == ds.categorical_features
    for a, b in zip(ds.groups, back.groups):
        for field in ("y", "X", "Z", "x_tilde"):
            assert same_bits(getattr(a, field), getattr(b, field)), (a.group_id, field)


def spec_of(data, kind):
    return LearnerSpec(kind=kind, tree_max_depth=data.draw(st.integers(1, 3)),
                       tree_min_parent=4, tree_min_child=2)


@settings(max_examples=30)
@given(data=st.data())
def test_model_round_trip_predicts_bit_identically(tmp_path_factory, data):
    kinds = [data.draw(st.sampled_from(LEARNER_KINDS)) for _ in range(3)]
    q = data.draw(st.integers(1, 2))
    config = FitConfig(
        n_iterations=data.draw(st.integers(0, 4)),
        lr_mean=0.3, lr_gcov=0.2, lr_rvar=0.2,
        group_fraction=data.draw(st.sampled_from([0.5, 1.0])),
        feature_fraction=data.draw(st.sampled_from([0.5, 1.0])),
        mean_learner=spec_of(data, kinds[0]),
        gcov_learner=spec_of(data, kinds[1]),
        rvar_learner=spec_of(data, kinds[2]),
        early_stopping=data.draw(st.booleans()),
        lookback=1,
        seed=data.draw(st.integers(0, 1000)),
    )
    base = dataset()
    ds = dataclasses.replace(base, groups=tuple(dataclasses.replace(g, Z=g.Z[:, :q])
                                                for g in base.groups))
    schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1", "x2", "w"),
                          z_cols=("intercept", "x1")[:q], categorical_cols=("x2",),
                          treatment_col="w")
    model = fit(ds, config)
    tmp = tmp_path_factory.mktemp("model")
    save_model(tmp / "a.model", model, schema)
    back, back_schema = load_model(tmp / "a.model")
    save_model(tmp / "b.model", back, back_schema)
    assert (tmp / "a.model").read_bytes() == (tmp / "b.model").read_bytes()
    assert back.config == model.config and back_schema == schema
    X, Xt = ds.stacked().X, ds.x_tilde_matrix()
    for evaluate, rows in ((eval_mean, X), (eval_resid_var, X), (eval_gcov_rows, Xt)):
        assert same_bits(evaluate(back, rows), evaluate(model, rows))
    table, back_table = predict_dataset(model, ds), predict_dataset(back, ds)
    for field in dataclasses.fields(table):
        a, b = getattr(table, field.name), getattr(back_table, field.name)
        assert same_bits(a, b) if isinstance(a, np.ndarray) else a == b
