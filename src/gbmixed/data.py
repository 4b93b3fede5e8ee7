"""Grouped data containers and CSV I/O.

Observations are grouped by a cluster id (longitudinal subject, matched pair,
site, ...). A dataset is a list of per-group blocks in a canonical order:
groups sorted by id, rows inside a group kept in input order. All downstream
code (fitting, prediction, serialization) relies on that order being stable.

Group-level covariates x_tilde summarize each group's rows: per-feature mean
for continuous features, mode for categorical ones (ties broken toward the
smallest value). The summary vector has one entry per feature column, so
group-level learners see the same feature names as row-level learners.

Every group of a GroupedDataset carries its x_tilde: load_csv and the
simulators attach it as they build each block, and the dataset summarizes any
other block under its own categorical features. Fitting reads the summaries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

INTERCEPT = "intercept"


@dataclass(frozen=True)
class ColumnSchema:
    """Names the columns of a CSV file.

    z_cols lists the random-effect design columns; the token "intercept"
    stands for a constant 1 column. categorical_cols must be a subset of
    feature_cols and switches those features to mode aggregation.
    """

    group_col: str
    response_col: str
    feature_cols: tuple[str, ...]
    z_cols: tuple[str, ...] = (INTERCEPT,)
    categorical_cols: tuple[str, ...] = ()
    treatment_col: str | None = None

    def __post_init__(self):
        if len(self.feature_cols) == 0:
            raise ConfigError("schema needs at least one feature column")
        if len(set(self.feature_cols)) != len(self.feature_cols):
            raise ConfigError("duplicate feature column names")
        if len(self.z_cols) == 0:
            raise ConfigError("schema needs at least one z column")
        for c in self.categorical_cols:
            if c not in self.feature_cols:
                raise ConfigError(f"categorical column {c!r} is not a feature column")
        if self.treatment_col is not None and self.treatment_col not in self.feature_cols:
            raise ConfigError(f"treatment column {self.treatment_col!r} is not a feature column")
        for c in self.z_cols:
            if c != INTERCEPT and c not in self.feature_cols:
                raise ConfigError(f"z column {c!r} is not a feature column")

    @property
    def categorical_indices(self) -> tuple[int, ...]:
        return tuple(self.feature_cols.index(c) for c in self.categorical_cols)


@dataclass(frozen=True)
class GroupBlock:
    """One group's rows: responses y, features X, random-effect design Z."""

    group_id: object
    y: np.ndarray        # (n_i,)
    X: np.ndarray        # (n_i, p)
    Z: np.ndarray        # (n_i, q)
    x_tilde: np.ndarray | None = None  # (p,) group summary, or set by the dataset

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        if y.ndim != 1 or y.shape[0] == 0:
            raise DataError(f"group {self.group_id!r}: y must be a nonempty vector")
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise DataError(f"group {self.group_id!r}: X must have one row per observation")
        if Z.ndim != 2 or Z.shape[0] != y.shape[0]:
            raise DataError(f"group {self.group_id!r}: Z must have one row per observation")
        for arr in (y, X, Z):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        if self.x_tilde is not None:
            xt = np.asarray(self.x_tilde, dtype=float)
            if xt.shape != (X.shape[1],):
                raise DataError(f"group {self.group_id!r}: x_tilde must have one entry per feature")
            xt.flags.writeable = False
            object.__setattr__(self, "x_tilde", xt)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _id_sort_key(gid):
    # numeric ids sort numerically, everything else lexicographically after them
    if isinstance(gid, (int, float, np.integer, np.floating)):
        return (0, float(gid), "")
    return (1, 0.0, str(gid))


@dataclass(frozen=True)
class GroupedDataset:
    """All groups of a dataset in canonical order.

    feature_names gives the column names of X (and of x_tilde). q is the
    width of Z. treatment_index, when set, points at the feature column that
    holds the treatment indicator. Blocks without an x_tilde get
    summarize_matrix(X, categorical_features); attached ones are kept.
    """

    groups: tuple[GroupBlock, ...]
    feature_names: tuple[str, ...]
    treatment_index: int | None = None
    categorical_features: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.groups) == 0:
            raise DataError("dataset has no groups")
        p = len(self.feature_names)
        q = self.groups[0].Z.shape[1]
        ids = set()
        for g in self.groups:
            if g.X.shape[1] != p:
                raise DataError(f"group {g.group_id!r}: expected {p} feature columns")
            if g.Z.shape[1] != q:
                raise DataError(f"group {g.group_id!r}: expected {q} z columns")
            if g.group_id in ids:
                raise DataError(f"duplicate group id {g.group_id!r}")
            ids.add(g.group_id)
        if self.treatment_index is not None and not (0 <= self.treatment_index < p):
            raise DataError("treatment_index out of range")
        cat = tuple(sorted(set(int(c) for c in self.categorical_features)))
        if cat and not (0 <= cat[0] and cat[-1] < p):
            raise ConfigError(f"categorical feature indices {list(cat)} out of range")
        object.__setattr__(self, "categorical_features", cat)
        ordered = sorted(self.groups, key=lambda g: _id_sort_key(g.group_id))
        object.__setattr__(self, "groups", tuple(
            g if g.x_tilde is not None else replace(g, x_tilde=summarize_matrix(g.X, cat))
            for g in ordered
        ))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_obs(self) -> int:
        return sum(g.n for g in self.groups)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def q(self) -> int:
        return self.groups[0].Z.shape[1]

    def group_ids(self) -> list:
        return [g.group_id for g in self.groups]

    def x_tilde_matrix(self) -> np.ndarray:
        """Group summaries stacked into a (n_groups, p) matrix."""
        return np.stack([g.x_tilde for g in self.groups])

    def stacked(self) -> "StackedData":
        return StackedData.from_dataset(self)


@dataclass(frozen=True)
class StackedData:
    """Row-major view of a dataset: one big y/X/Z plus per-group row slices."""

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    starts: np.ndarray   # (n_groups,) first row of each group
    sizes: np.ndarray    # (n_groups,)

    @classmethod
    def from_dataset(cls, ds: GroupedDataset) -> "StackedData":
        sizes = np.array([g.n for g in ds.groups], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        y = np.concatenate([g.y for g in ds.groups])
        X = np.vstack([g.X for g in ds.groups])
        Z = np.vstack([g.Z for g in ds.groups])
        for arr in (y, X, Z, starts, sizes):
            arr.flags.writeable = False
        return cls(y=y, X=X, Z=Z, starts=starts, sizes=sizes)

    def rows_of(self, gi: int) -> slice:
        return slice(self.starts[gi], self.starts[gi] + self.sizes[gi])


def _parse_cell(text: str, column: str, line_no: int, allow_nan: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"line {line_no}: cannot parse {text!r} in column {column!r} as a number"
        ) from None
    if not (math.isfinite(value) or (allow_nan and math.isnan(value))):
        raise DataError(f"line {line_no}: non-finite value {text!r} in column {column!r}")
    return value


def _parse_group_id(text: str, column: str, line_no: int):
    try:
        f = float(text)
    except ValueError:
        return text
    if math.isnan(f):
        # nan != nan, so every such row would become a group of its own
        raise DataError(f"line {line_no}: group id {text!r} in column {column!r} is nan")
    if f.is_integer():
        return int(f)
    return f


def _utf8_lines(fh, path: str):
    """The lines of a text file opened as UTF-8; other bytes are a DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc})") from None


def load_csv(path: str, schema: ColumnSchema) -> GroupedDataset:
    """Load a CSV file into a GroupedDataset.

    The header must contain every column the schema names; extra columns are
    ignored. Numeric cells that fail to parse or are non-finite raise a
    DataError naming the 1-based line number and the column; the one exception
    is a nan response, which marks an unobserved row for prediction (a nan
    group id is an error). Group blocks preserve row order within each group.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}
        needed = [schema.group_col, schema.response_col, *schema.feature_cols]
        needed += [c for c in schema.z_cols if c != INTERCEPT]
        for name in needed:
            if name not in col_index:
                raise DataError(f"{path}: missing required column {name!r}")

        gi = col_index[schema.group_col]
        yi = col_index[schema.response_col]
        fis = [col_index[c] for c in schema.feature_cols]
        by_group: dict[object, list] = {}
        order: list = []
        n_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) < len(header):
                raise DataError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            gid = _parse_group_id(row[gi].strip(), schema.group_col, line_no)
            y = _parse_cell(row[yi], schema.response_col, line_no, allow_nan=True)
            x = [_parse_cell(row[j], header[j], line_no) for j in fis]
            if gid not in by_group:
                by_group[gid] = []
                order.append(gid)
            by_group[gid].append((y, x))
            n_rows += 1
        if n_rows == 0:
            raise DataError(f"{path}: no data rows")

    feat_pos = {c: k for k, c in enumerate(schema.feature_cols)}
    cat = schema.categorical_indices
    groups = []
    for gid in order:
        rows = by_group[gid]
        y = np.array([r[0] for r in rows])
        X = np.array([r[1] for r in rows])
        Z = _build_z(X, schema, feat_pos)
        groups.append(GroupBlock(group_id=gid, y=y, X=X, Z=Z, x_tilde=summarize_matrix(X, cat)))
    t_idx = feat_pos[schema.treatment_col] if schema.treatment_col is not None else None
    return GroupedDataset(
        groups=tuple(groups),
        feature_names=schema.feature_cols,
        treatment_index=t_idx,
        categorical_features=schema.categorical_indices,
    )


def _build_z(X: np.ndarray, schema: ColumnSchema, feat_pos: dict) -> np.ndarray:
    cols = []
    for c in schema.z_cols:
        if c == INTERCEPT:
            cols.append(np.ones(X.shape[0]))
        else:
            cols.append(X[:, feat_pos[c]])
    return np.column_stack(cols)


def save_csv(path: str, ds: GroupedDataset, schema: ColumnSchema) -> None:
    """Write a dataset back to CSV.

    Floats are written with repr, so finite values survive a save/load round
    trip bit-identically. Only group, response, and feature columns are
    written; Z is reconstructed from the schema on load.
    """
    if tuple(schema.feature_cols) != tuple(ds.feature_names):
        raise ConfigError("schema feature columns do not match dataset feature names")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.group_col, schema.response_col, *schema.feature_cols])
        for g in ds.groups:
            for j in range(g.n):
                writer.writerow(
                    [g.group_id, repr(float(g.y[j])), *(repr(float(v)) for v in g.X[j])]
                )


def _mode_smallest(values: np.ndarray) -> float:
    """Most frequent value; ties resolved toward the smallest value."""
    uniq, counts = np.unique(values, return_counts=True)  # uniq is sorted ascending
    return float(uniq[np.argmax(counts)])


def summarize_matrix(X: np.ndarray, categorical: Sequence[int] = ()) -> np.ndarray:
    """Summary vector of a block of rows: feature means, modes where categorical."""
    xt = np.asarray(X, dtype=float).mean(axis=0)
    for c in categorical:
        xt[c] = _mode_smallest(X[:, c])
    return xt


def summarize_groups(ds: GroupedDataset, categorical: Sequence[int] | None = None) -> GroupedDataset:
    """Recompute every group's x_tilde under a categorical set (default: the dataset's).

    Categorical features (given as feature indices) aggregate by mode with ties
    toward the smallest value, the others by mean. Idempotent.
    """
    if categorical is not None:
        ds = replace(ds, categorical_features=categorical)   # checked by the dataset
    cat = ds.categorical_features
    return replace(ds, groups=tuple(replace(g, x_tilde=summarize_matrix(g.X, cat))
                                    for g in ds.groups))


def split_by_groups(ds: GroupedDataset, fraction: float, seed: int) -> tuple[GroupedDataset, GroupedDataset]:
    """Split a dataset into two by groups, never cutting a group in half.

    The first part receives floor(fraction * n_groups) groups chosen by a
    seeded permutation; the same seed always yields the same split. Both
    parts retain canonical group order.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
    C = ds.n_groups
    n_first = int(np.floor(fraction * C))
    if n_first == 0 or n_first == C:
        raise ConfigError(
            f"split fraction {fraction} leaves an empty part for {C} groups"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(C)
    first_idx = set(perm[:n_first].tolist())
    a = [g for i, g in enumerate(ds.groups) if i in first_idx]
    b = [g for i, g in enumerate(ds.groups) if i not in first_idx]
    return replace(ds, groups=tuple(a)), replace(ds, groups=tuple(b))
