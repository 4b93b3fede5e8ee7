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
from decimal import Decimal
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_fields, check_seed, check_type, numeric_array

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
        if len(set(self.z_cols)) != len(self.z_cols):
            raise ConfigError("duplicate z column names")
        if self.response_col in self.feature_cols:
            raise ConfigError(f"response column {self.response_col!r} is also a feature column")
        if self.group_col == self.response_col:
            raise ConfigError(f"column {self.group_col!r} is both the group and the response")
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
    """One group's rows: responses y, features X, random-effect design Z.

    Each array must hold numbers (errors.numeric_array), else a DataError
    naming the group. A response may be NaN, the mark of an unobserved row as
    in load_csv, but not ±inf; Z must be finite. X keeps NaN and ±inf, which
    trees route. The block holds read-only copies of the arrays it is given
    (converted first where they are not float), so the caller's arrays stay
    writable and a later write to them cannot change a block that passed
    the rule.
    """

    group_id: object
    y: np.ndarray        # (n_i,)
    X: np.ndarray        # (n_i, p)
    Z: np.ndarray        # (n_i, q)
    x_tilde: np.ndarray | None = None  # (p,) group summary, or set by the dataset

    def __post_init__(self):
        name = f"group {self.group_id!r}"
        y = numeric_array(name + ": y", self.y)
        X = numeric_array(name + ": X", self.X)
        Z = numeric_array(name + ": Z", self.Z)
        if y.ndim != 1 or y.shape[0] == 0:
            raise DataError(f"{name}: y must be a nonempty vector")
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise DataError(f"{name}: X must have one row per observation")
        if Z.ndim != 2 or Z.shape[0] != y.shape[0]:
            raise DataError(f"{name}: Z must have one row per observation")
        if np.count_nonzero(np.isinf(y)):
            raise DataError(f"{name}: y must be finite, or NaN for an unobserved response")
        if np.count_nonzero(np.isfinite(Z)) < Z.size:
            raise DataError(f"{name}: Z must be finite")
        for field, arr in (("y", y), ("X", X), ("Z", Z)):
            object.__setattr__(self, field, _read_only(arr.copy(order="K")))
        if self.x_tilde is not None:
            object.__setattr__(self, "x_tilde", self._summary(self.x_tilde))

    def _summary(self, x_tilde) -> np.ndarray:
        xt = numeric_array(f"group {self.group_id!r}: x_tilde", x_tilde)
        if xt.shape != (self.X.shape[1],):
            raise DataError(f"group {self.group_id!r}: x_tilde must have one entry per feature")
        return _read_only(xt.copy())

    def with_summary(self, x_tilde) -> "GroupBlock":
        """A copy carrying x_tilde. Only x_tilde is checked: y, X and Z passed the rule
        when this block was built, and they are read-only."""
        return _unchecked_block(self.group_id, self.y, self.X, self.Z, self._summary(x_tilde))

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place."""
    arr.flags.writeable = False
    return arr


def _unchecked_block(group_id, y, X, Z, x_tilde) -> GroupBlock:
    """A GroupBlock of read-only arrays that already pass its rule, built without the checks."""
    block = object.__new__(GroupBlock)
    block.__dict__.update(group_id=group_id, y=y, X=X, Z=Z, x_tilde=x_tilde)
    return block


def _group_blocks(ids: Sequence, sizes: Sequence[int], y: np.ndarray, X: np.ndarray,
                  Z: np.ndarray, categorical: Sequence[int] = ()) -> list[GroupBlock]:
    """One block per id over consecutive row slices of stacked y, X and Z, each with its
    summary under categorical.

    GroupBlock's rule is applied once to the whole arrays, and the blocks share read-only
    views of them: the callers built those arrays and keep no reference, so no copy is
    needed. When the rule fails, the blocks are built one by one, so that the
    error names the first group that breaks it.
    """
    ends = np.cumsum(sizes).tolist()
    rows = [slice(start, end) for start, end in zip([0, *ends], ends)]
    if not (y.dtype == X.dtype == Z.dtype == float and y.ndim == 1 and X.ndim == Z.ndim == 2
            and X.shape[0] == Z.shape[0] == y.shape[0] == ends[-1] and min(sizes) > 0
            and not np.count_nonzero(np.isinf(y)) and np.count_nonzero(np.isfinite(Z)) == Z.size):
        return [GroupBlock(gid, y[r], X[r], Z[r], summarize_matrix(X[r], categorical))
                for gid, r in zip(ids, rows)]
    y, X, Z = _read_only(y.view()), _read_only(X.view()), _read_only(Z.view())
    blocks = []
    for gid, r in zip(ids, rows):
        xt = _read_only(summarize_matrix(X[r], categorical))
        blocks.append(_unchecked_block(gid, y[r], X[r], Z[r], xt))
    return blocks


def _id_sort_key(gid):
    # numeric ids sort by exact value (Python compares int with float exactly, so
    # ids past 2**53 that round to one float stay apart), everything else
    # lexicographically after them
    if isinstance(gid, (np.integer, np.floating)):
        gid = gid.item()
    if isinstance(gid, (int, float)):
        return (0, gid, "")
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
        check_fields(self)
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
        cat = tuple(sorted(set(self.categorical_features)))
        if cat and not (0 <= cat[0] and cat[-1] < p):
            raise ConfigError(f"categorical feature indices {list(cat)} out of range")
        object.__setattr__(self, "categorical_features", cat)
        ordered = sorted(self.groups, key=lambda g: _id_sort_key(g.group_id))
        object.__setattr__(self, "groups", tuple(
            g if g.x_tilde is not None else g.with_summary(summarize_matrix(g.X, cat))
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
        return StackedData.from_groups(self.groups)


@dataclass(frozen=True)
class StackedData:
    """Row-major view of group blocks: one big y/X/Z plus per-group row slices."""

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    starts: np.ndarray   # (n_groups,) first row of each group
    sizes: np.ndarray    # (n_groups,)

    @classmethod
    def from_groups(cls, groups: Sequence[GroupBlock]) -> "StackedData":
        """The blocks stacked in the order given."""
        sizes = np.array([g.n for g in groups], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        y = np.concatenate([g.y for g in groups])
        X = np.vstack([g.X for g in groups])
        Z = np.vstack([g.Z for g in groups])
        for arr in (y, X, Z, starts, sizes):
            arr.flags.writeable = False
        return cls(y=y, X=X, Z=Z, starts=starts, sizes=sizes)


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
        return int(Decimal(text))   # exact past 2**53, where f is rounded
    return f


def _utf8_lines(fh, path: str):
    """The lines of a text file opened as UTF-8; other bytes are a DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc})") from None


def load_csv(path: str, schema: ColumnSchema) -> GroupedDataset:
    """Load a CSV file into a GroupedDataset.

    The header must contain every column the schema names, each once; extra
    columns are ignored. Numeric cells that fail to parse or are non-finite
    raise a DataError naming the 1-based line number and the column; the one
    exception is a nan response, which marks an unobserved row for prediction
    (a nan group id is an error). A group id that parses as a number becomes
    an int or float, and every row of a group must spell it the same way (`7`
    and `7.0` in one file are a DataError naming both lines). A leading UTF-8
    byte-order mark is skipped. Group blocks preserve row order within each group.
    A file with several faults reports the first in file order.
    """
    try:
        ids, sizes, values = _read_rows(path, schema, checked=False)
        bad = np.count_nonzero(np.isinf(values[:, 0])) or (
            np.count_nonzero(np.isfinite(values[:, 1:])) < values[:, 1:].size)
    except (ValueError, DataError, csv.Error):
        bad = True
    if bad:
        # the per-cell parser raises for the first bad cell or row in file order
        ids, sizes, values = _read_rows(path, schema, checked=True)

    feat_pos = {c: k for k, c in enumerate(schema.feature_cols)}
    X = np.ascontiguousarray(values[:, 1:])
    groups = _group_blocks(ids, sizes, values[:, 0].copy(), X, _build_z(X, schema, feat_pos),
                           schema.categorical_indices)
    t_idx = feat_pos[schema.treatment_col] if schema.treatment_col is not None else None
    return GroupedDataset(
        groups=tuple(groups),
        feature_names=schema.feature_cols,
        treatment_index=t_idx,
        categorical_features=schema.categorical_indices,
    )


def _read_rows(path: str, schema: ColumnSchema, checked: bool) -> tuple[list, list, np.ndarray]:
    """(group ids, group sizes, values): the groups in canonical order, and a float
    matrix of their rows [response, *features], group after group.

    Every structural and group-id fault is a DataError. checked parses each cell with
    _parse_cell, which names the first bad one; otherwise a cell is parsed by float
    alone, so that a bad one raises a ValueError or reads as a non-finite value.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if header.count(name) > 1:
                raise DataError(f"{path}: column {name!r} appears more than once in the header")

        gi = col_index[schema.group_col]
        yi = col_index[schema.response_col]
        fis = [col_index[c] for c in schema.feature_cols]
        if checked:
            def parse(row, line_no):
                return [_parse_cell(row[yi], schema.response_col, line_no, allow_nan=True),
                        *(_parse_cell(row[j], header[j], line_no) for j in fis)]
        else:
            cells = itemgetter(yi, *fis)
            parse = lambda row, line_no: list(map(float, cells(row)))
        by_group: dict[object, list] = {}
        ids: dict[str, object] = {}                   # group id text -> parsed id
        spelled: dict[object, tuple[str, int]] = {}   # parsed id -> its text and first line
        for line_no, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):   # a blank row
                continue
            extra = row[len(header):]   # may only be empty cells, as a trailing comma writes
            if len(row) < len(header) or any(map(str.strip, extra)):
                raise DataError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            text = row[gi].strip()
            gid = ids.get(text)
            if gid is None:   # a new group, or a group already read under another spelling
                gid = _parse_group_id(text, schema.group_col, line_no)
                if gid in spelled:
                    first, first_line = spelled[gid]
                    raise DataError(
                        f"line {line_no}: group id {text!r} in column {schema.group_col!r} is "
                        f"{first!r} of line {first_line} spelled another way"
                    )
                ids[text] = gid
                spelled[gid] = (text, line_no)
                by_group[gid] = []
            by_group[gid].append(parse(row, line_no))
        if not by_group:
            raise DataError(f"{path}: no data rows")
    order = sorted(by_group, key=_id_sort_key)
    values = np.array([row for gid in order for row in by_group[gid]], dtype=float)
    return order, [len(by_group[gid]) for gid in order], values


def _build_z(X: np.ndarray, schema: ColumnSchema, feat_pos: dict) -> np.ndarray:
    cols = []
    for c in schema.z_cols:
        if c == INTERCEPT:
            cols.append(np.ones(X.shape[0]))
        else:
            cols.append(X[:, feat_pos[c]])
    return np.column_stack(cols)


def _cell(v):
    """A value as write_csv hands it to csv: a float, Python or numpy, as repr(float(v))."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a table as UTF-8 CSV in the csv module's default dialect.

    Float cells, Python or numpy, are written as repr(float(v)), the shortest
    text that reads back to the same double; any other value is written as csv
    writes it, so None is an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _check_id_reads_back(gid) -> None:
    """A DataError unless load_csv reads the id cell that save_csv writes for gid,
    stripped and parsed by _parse_group_id, back as an equal id of the same kind."""
    cell = _cell(gid)
    text = "" if cell is None else str(cell)    # the text csv writes for the cell
    try:
        back = _parse_group_id(text.strip(), "", 0)
    except DataError:   # a nan id
        raise DataError(f"group id {gid!r} would not read back: load_csv refuses {text!r}") from None
    if back != gid or isinstance(back, str) != isinstance(gid, str):
        raise DataError(f"group id {gid!r} would read back as {back!r}")


class _Echo:
    """A file whose write returns the text, so a csv writer's writerow returns its line."""

    def write(self, text: str) -> str:
        return text


def save_csv(path: str, ds: GroupedDataset, schema: ColumnSchema) -> None:
    """Write a dataset back to CSV, in the bytes write_csv writes for its rows [id, y, *x].

    Floats are written with repr, so finite values survive a save/load round
    trip bit-identically. Only group, response, and feature columns are
    written; Z is reconstructed from the schema on load. A group id that
    load_csv would not read back as an equal id of the same kind, text or
    number, is a DataError raised before the file is opened: " a" (read as
    "a"), the text "7" (read as the number 7), or a nan id.
    """
    if tuple(schema.feature_cols) != tuple(ds.feature_names):
        raise ConfigError("schema feature columns do not match dataset feature names")
    for g in ds.groups:
        _check_id_reads_back(g.group_id)
    # only an id can need quoting: repr of a float never holds a comma, quote or newline
    id_cell = csv.writer(_Echo(), lineterminator="").writerow
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([schema.group_col, schema.response_col, *schema.feature_cols])
        for g in ds.groups:
            head = id_cell([_cell(g.group_id), ""])   # the id cell and its comma
            fh.writelines(head + repr(y) + "," + ",".join(map(repr, x)) + "\r\n"
                          for y, x in zip(g.y.tolist(), g.X.tolist()))


def _mode_smallest(values: np.ndarray) -> float:
    """Most frequent value; ties resolved toward the smallest value."""
    uniq, counts = np.unique(values, return_counts=True)  # uniq is sorted ascending
    return float(uniq[np.argmax(counts)])


def summarize_matrix(X: np.ndarray, categorical: Sequence[int] = ()) -> np.ndarray:
    """Summary vector of a block of rows: feature means, modes where categorical."""
    X = np.asarray(X, dtype=float)
    xt = np.add.reduce(X, axis=0) / X.shape[0]   # what X.mean(axis=0) computes
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
    return replace(ds, groups=tuple(g.with_summary(summarize_matrix(g.X, cat))
                                    for g in ds.groups))


def split_by_groups(ds: GroupedDataset, fraction: float, seed: int) -> tuple[GroupedDataset, GroupedDataset]:
    """Split a dataset into two by groups, never cutting a group in half.

    The first part receives floor(fraction * n_groups) groups chosen by a
    seeded permutation; the same seed always yields the same split. Both
    parts retain canonical group order.
    """
    if not (0.0 < check_type("split fraction", fraction, float) < 1.0):
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
    C = ds.n_groups
    n_first = int(np.floor(fraction * C))
    if n_first == 0 or n_first == C:
        raise ConfigError(
            f"split fraction {fraction} leaves an empty part for {C} groups"
        )
    rng = np.random.default_rng(check_seed(seed))
    perm = rng.permutation(C)
    first_idx = set(perm[:n_first].tolist())
    a = [g for i, g in enumerate(ds.groups) if i in first_idx]
    b = [g for i, g in enumerate(ds.groups) if i not in first_idx]
    return replace(ds, groups=tuple(a)), replace(ds, groups=tuple(b))
