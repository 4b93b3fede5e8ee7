"""Data containers, CSV round trips, group summaries, and splits."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed.data import (
    ColumnSchema,
    GroupBlock,
    GroupedDataset,
    _group_blocks,
    _mode_smallest,
    load_csv,
    save_csv,
    split_by_groups,
    summarize_groups,
    summarize_matrix,
    write_csv,
)
from gbmixed.errors import ConfigError, DataError


def toy_dataset(rng, n_groups=6, n_per=3, p=2):
    groups = []
    for i in range(n_groups):
        groups.append(
            GroupBlock(
                group_id=i,
                y=rng.standard_normal(n_per),
                X=rng.standard_normal((n_per, p)),
                Z=np.ones((n_per, 1)),
            )
        )
    names = tuple(f"x{j + 1}" for j in range(p))
    return GroupedDataset(groups=tuple(groups), feature_names=names)


class TestSchema:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ColumnSchema(group_col="g", response_col="y", feature_cols=())
        with pytest.raises(ConfigError):
            ColumnSchema(group_col="g", response_col="y", feature_cols=("a", "a"))
        with pytest.raises(ConfigError):
            ColumnSchema(
                group_col="g", response_col="y", feature_cols=("a",), categorical_cols=("b",)
            )
        with pytest.raises(ConfigError):
            ColumnSchema(
                group_col="g", response_col="y", feature_cols=("a",), treatment_col="w"
            )
        with pytest.raises(ConfigError):
            ColumnSchema(
                group_col="g", response_col="y", feature_cols=("a",), z_cols=("b",)
            )
        # two equal Z columns leave G unidentified
        for z_cols in (("intercept", "intercept"), ("a", "a")):
            with pytest.raises(ConfigError, match="duplicate z column"):
                ColumnSchema(group_col="g", response_col="y", feature_cols=("a",), z_cols=z_cols)

    def test_response_is_neither_feature_nor_group(self):
        with pytest.raises(ConfigError, match="'y' is also a feature"):
            ColumnSchema(group_col="g", response_col="y", feature_cols=("a", "y"))
        with pytest.raises(ConfigError, match="'y' is both the group and the response"):
            ColumnSchema(group_col="y", response_col="y", feature_cols=("a",))

    def test_categorical_indices(self):
        schema = ColumnSchema(
            group_col="g",
            response_col="y",
            feature_cols=("a", "b", "c"),
            categorical_cols=("c", "a"),
        )
        assert schema.categorical_indices == (2, 0)


class TestContainers:
    def test_arrays_frozen(self):
        g = GroupBlock(group_id=1, y=np.zeros(2), X=np.zeros((2, 1)), Z=np.ones((2, 1)))
        with pytest.raises(ValueError):
            g.y[0] = 1.0

    def test_the_callers_arrays_stay_writable(self):
        # a block froze the arrays it was given, so a later y[0] = 1.0 raised
        # "assignment destination is read-only"
        y, X, Z, xt = np.zeros(3), np.zeros((3, 2)), np.ones((3, 1)), np.zeros(2)
        g = GroupBlock(0, y, X, Z, xt)
        for given, held in ((y, g.y), (X, g.X), (Z, g.Z), (xt, g.x_tilde)):
            assert given.flags.writeable and not held.flags.writeable
        y[0] = X[0, 0] = Z[0, 0] = xt[0] = 1.0
        assert not g.with_summary(xt).x_tilde.flags.writeable and xt.flags.writeable

    def test_a_later_write_to_the_callers_arrays_leaves_the_block_unchanged(self):
        # a block held views, so g.y read [inf, 0, 0] and g.Z held NaN afterwards
        y, X, Z, xt = np.zeros(3), np.zeros((3, 2)), np.ones((3, 1)), np.zeros(2)
        g = GroupBlock(0, y, X, Z, xt)
        h = g.with_summary(xt)
        y[0], X[2, 1], Z[1, 0], xt[0] = np.inf, 5.0, np.nan, 7.0
        np.testing.assert_array_equal(g.y, np.zeros(3))
        np.testing.assert_array_equal(g.X, np.zeros((3, 2)))
        np.testing.assert_array_equal(g.Z, np.ones((3, 1)))
        np.testing.assert_array_equal(g.x_tilde, np.zeros(2))
        np.testing.assert_array_equal(h.x_tilde, np.zeros(2))
        assert all(a.flags.writeable for a in (y, X, Z, xt))

    def test_group_shape_validation(self):
        with pytest.raises(DataError):
            GroupBlock(group_id=1, y=np.zeros(0), X=np.zeros((0, 1)), Z=np.zeros((0, 1)))
        with pytest.raises(DataError):
            GroupBlock(group_id=1, y=np.zeros(2), X=np.zeros((3, 1)), Z=np.ones((2, 1)))
        with pytest.raises(DataError, match="^group 1: Z must have one row per observation$"):
            GroupBlock(group_id=1, y=np.zeros(2), X=np.zeros((2, 1)), Z=np.ones((3, 1)))

    @pytest.mark.parametrize("field, value, message", [
        ("y", ["1", "2"], "group 7: y must hold numbers"),          # read as numbers before
        ("y", [0.5, None], "group 7: y must hold numbers"),         # None read as NaN before
        ("y", ["a", "b"], "group 7: y must hold numbers"),          # a raw ValueError before
        ("y", np.array([1j, 2.0]), "group 7: y must hold numbers"),  # a raw TypeError before
        ("X", [["a"], ["b"]], "group 7: X must hold numbers"),
        ("X", [[0.5], [0.5, 1.0]], "group 7: X must hold numbers, got object entries"),
        ("Z", [[1.0], [None]], "group 7: Z must hold numbers"),
        ("x_tilde", ["a"], "group 7: x_tilde must hold numbers"),
        ("y", [np.inf, 1.0], "group 7: y must be finite, or NaN"),
        ("y", [0.0, -np.inf], "group 7: y must be finite, or NaN"),
        ("Z", [[1.0], [np.nan]], "group 7: Z must be finite"),
        ("Z", [[np.inf], [1.0]], "group 7: Z must be finite"),
    ], ids=["y_numeric_strings", "y_none", "y_strings", "y_complex", "X_strings", "X_ragged",
            "Z_none", "x_tilde_strings", "y_inf", "y_minus_inf", "Z_nan", "Z_inf"])
    def test_block_arrays_are_numbers_and_responses_and_designs_finite(self, field, value, message):
        arrays = dict(y=np.zeros(2), X=np.zeros((2, 1)), Z=np.ones((2, 1)), x_tilde=None)
        arrays[field] = value
        with pytest.raises(DataError, match=message):
            GroupBlock(group_id=7, **arrays)

    def test_nan_responses_and_non_finite_features_are_kept(self):
        g = GroupBlock(group_id=7, y=[np.nan, 1], X=[[np.nan], [-np.inf]], Z=[[1], [0]],
                       x_tilde=[np.inf])
        np.testing.assert_array_equal(g.y, [np.nan, 1.0])
        np.testing.assert_array_equal(g.X, [[np.nan], [-np.inf]])
        assert g.Z.dtype == float and g.x_tilde[0] == np.inf

    def test_stacked_blocks_name_the_first_group_that_breaks_the_rule(self):
        y, X, Z = np.zeros(6), np.zeros((6, 2)), np.ones((6, 1))
        y[4] = np.inf
        with pytest.raises(DataError, match="group 'c': y must be finite"):
            _group_blocks(["a", "b", "c"], [2, 2, 2], y, X, Z)
        Z[1, 0] = np.nan
        with pytest.raises(DataError, match="group 'a': Z must be finite"):
            _group_blocks(["a", "b", "c"], [2, 2, 2], y, X, Z)

    def test_stacked_blocks_are_read_only_slices_with_summaries(self):
        y, X, Z = np.arange(6.0), np.arange(12.0).reshape(6, 2) % 5, np.ones((6, 1))
        blocks = _group_blocks([1, "b"], [4, 2], y, X, Z, categorical=(1,))
        for block, rows in zip(blocks, (slice(0, 4), slice(4, 6))):
            want = GroupBlock(block.group_id, y[rows], X[rows], Z[rows],
                              summarize_matrix(X[rows], (1,)))
            for field in ("y", "X", "Z", "x_tilde"):
                a, b = getattr(block, field), getattr(want, field)
                assert np.array_equal(a, b) and a.dtype == b.dtype and not a.flags.writeable
        assert y.flags.writeable and X.flags.writeable and Z.flags.writeable

    def test_with_summary_checks_only_the_summary(self):
        g = GroupBlock(group_id=7, y=np.zeros(2), X=np.zeros((2, 2)), Z=np.ones((2, 1)))
        h = g.with_summary([1, 2])
        assert h.y is g.y and h.X is g.X and h.Z is g.Z and h.group_id == 7
        assert h.x_tilde.dtype == float and not h.x_tilde.flags.writeable
        assert g.x_tilde is None
        with pytest.raises(DataError, match="group 7: x_tilde must have one entry per feature"):
            g.with_summary([1.0])
        with pytest.raises(DataError, match="group 7: x_tilde must hold numbers"):
            g.with_summary(["a", "b"])

    def test_canonical_order_numeric_then_string(self):
        mk = lambda gid: GroupBlock(
            group_id=gid, y=np.zeros(1), X=np.zeros((1, 1)), Z=np.ones((1, 1))
        )
        ds = GroupedDataset(
            groups=(mk("b"), mk(10), mk(2), mk("a")), feature_names=("x1",)
        )
        assert ds.group_ids() == [2, 10, "a", "b"]

    def test_duplicate_ids_rejected(self):
        mk = lambda gid: GroupBlock(
            group_id=gid, y=np.zeros(1), X=np.zeros((1, 1)), Z=np.ones((1, 1))
        )
        with pytest.raises(DataError):
            GroupedDataset(groups=(mk(1), mk(1)), feature_names=("x1",))

    @pytest.mark.parametrize("x_widths,z_widths,treatment_index,message", [
        ((), (), None, "dataset has no groups"),
        ((1, 2), (1, 1), None, "group 1: expected 1 feature columns"),
        ((1, 1), (1, 2), None, "group 1: expected 1 z columns"),
        ((1,), (1,), 1, "treatment_index out of range"),
    ], ids=["no_groups", "mixed_x_widths", "mixed_z_widths", "treatment_index_past_the_features"])
    def test_dataset_shape_rules(self, x_widths, z_widths, treatment_index, message):
        blocks = tuple(
            GroupBlock(group_id=i, y=np.zeros(2), X=np.zeros((2, p)), Z=np.ones((2, q)))
            for i, (p, q) in enumerate(zip(x_widths, z_widths))
        )
        with pytest.raises(DataError, match=f"^{message}$"):
            GroupedDataset(groups=blocks, feature_names=("x1",), treatment_index=treatment_index)

    def test_fractional_treatment_index_is_config_error(self):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng, p=2)
        with pytest.raises(ConfigError, match="treatment_index must be an integer, got 1.5"):
            GroupedDataset(groups=ds.groups, feature_names=ds.feature_names, treatment_index=1.5)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_categorical_index_not_an_integer_is_config_error(self, bad):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng, p=2)
        with pytest.raises(ConfigError, match="categorical_features entry must be an integer"):
            GroupedDataset(groups=ds.groups, feature_names=ds.feature_names,
                           categorical_features=(bad,))

    def test_stacked_slices(self):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng, n_groups=4, n_per=3)
        st_data = ds.stacked()
        assert st_data.y.shape == (12,)
        for start, size, g in zip(st_data.starts, st_data.sizes, ds.groups):
            np.testing.assert_array_equal(st_data.y[start : start + size], g.y)
            np.testing.assert_array_equal(st_data.X[start : start + size], g.X)


class TestCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = toy_dataset(rng, n_groups=5, n_per=4, p=3)
        schema = ColumnSchema(
            group_col="g", response_col="y", feature_cols=("x1", "x2", "x3")
        )
        path = tmp_path / "data.csv"
        save_csv(path, ds, schema)
        back = load_csv(path, schema)
        assert back.group_ids() == ds.group_ids()
        for a, b in zip(ds.groups, back.groups):
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.Z, b.Z)

    def test_schema_of_other_features_is_config_error(self, tmp_path):
        ds = toy_dataset(np.random.default_rng(0), p=2)
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1", "x3"))
        path = tmp_path / "d.csv"
        with pytest.raises(ConfigError,
                           match="^schema feature columns do not match dataset feature names$"):
            save_csv(path, ds, schema)
        assert not path.exists()

    def test_z_columns_from_features(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("g,y,a,w\n1,0.5,2.0,1\n1,0.25,3.0,0\n")
        schema = ColumnSchema(
            group_col="g",
            response_col="y",
            feature_cols=("a", "w"),
            z_cols=("intercept", "w"),
            treatment_col="w",
        )
        ds = load_csv(path, schema)
        np.testing.assert_array_equal(ds.groups[0].Z, [[1.0, 1.0], [1.0, 0.0]])
        assert ds.treatment_index == 1

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("g,y,x1\n1,0.5,2.0\n1,oops,3.0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        with pytest.raises(DataError, match=r"line 3.*'oops'.*'y'"):
            load_csv(path, schema)

    def test_non_finite_cells_name_line_and_column(self, tmp_path):
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        path = tmp_path / "nf.csv"
        for body, where in [
            ("1,0.5,nan\n", r"line 3.*'nan'.*'x1'"),
            ("1,0.5,-inf\n", r"line 3.*'-inf'.*'x1'"),
            ("1,inf,2.0\n", r"line 3.*'inf'.*'y'"),
        ]:
            path.write_text("g,y,x1\n1,0.5,2.0\n" + body)
            with pytest.raises(DataError, match=where):
                load_csv(path, schema)
        # a nan response marks an unobserved row and stays legal
        path.write_text("g,y,x1\n1,nan,2.0\n")
        assert np.isnan(load_csv(path, schema).groups[0].y[0])

    @pytest.mark.parametrize("body, first", [
        ("1,0.5,2,3\n1,oops,2,3\n2,0.5,2,3\n2,0.5\n",
         "line 3: cannot parse 'oops' in column 'y' as a number"),
        ("1,0.5,2,3\n1,-inf,2,3\n2,0.5,2,3\n2,0.5\n",
         "line 3: non-finite value '-inf' in column 'y'"),
        ("1,0.5,2,3\n1,0.5,inf,3\n2,0.5,2,3\n2,0.5,2,3\n2,0.5,2,x\n",
         "line 3: non-finite value 'inf' in column 'a'"),
        ("7,0.5,2,3\n1,0.5,2,3\n7.0,0.5,2,3\n2,0.5,2,3\n2,0.5,2,?\n",
         "line 4: group id '7.0' in column 'g' is '7' of line 2 spelled another way"),
        ("1,0.5,2,3\n1,0.5,nan,oops\n", "line 3: non-finite value 'nan' in column 'a'"),
    ], ids=["bad_cell_before_short_row", "non_finite_before_short_row",
            "non_finite_before_unparseable", "id_spelling_before_bad_cell",
            "non_finite_before_unparseable_in_one_row"])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, body, first):
        path = tmp_path / "faults.csv"
        path.write_text("g,y,a,b\n" + body)
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("a", "b"))
        with pytest.raises(DataError, match="^" + re.escape(first) + "$"):
            load_csv(path, schema)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("g,y\n1,0.5\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        with pytest.raises(DataError, match="x1"):
            load_csv(path, schema)

    def test_repeated_schema_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("g,y,x1,x1\n1,0.5,2.0,3.0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        with pytest.raises(DataError, match=r"dup\.csv: column 'x1' appears more than once"):
            load_csv(path, schema)
        # a repeated column the schema does not use is ignored like any extra one
        path.write_text("g,y,x1,note,note\n1,0.5,2.0,a,b\n")
        assert load_csv(path, schema).groups[0].X[0, 0] == 2.0

    def test_empty_file_and_header_only(self, tmp_path):
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(empty, schema)
        header_only = tmp_path / "h.csv"
        header_only.write_text("g,y,x1\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(header_only, schema)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("g,y,x1\n1,0.5,2.0\n1,0.5\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, schema)

    def test_cell_past_the_header_names_line(self, tmp_path):
        # an unquoted decimal comma splits one value over two cells
        path = tmp_path / "long.csv"
        path.write_text("g,y,a,b\n1,0.5,2,3\n1,0.7,1,5,4\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("a", "b"))
        with pytest.raises(DataError, match="line 3: expected 4 cells, got 5"):
            load_csv(path, schema)

    def test_trailing_empty_cells_are_accepted(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("g,y,a,b\n1,0.5,2,3,\n1,0.7,1,5, ,\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("a", "b"))
        np.testing.assert_array_equal(load_csv(path, schema).groups[0].X, [[2, 3], [1, 5]])

    def test_nan_group_id_names_line_and_column(self, tmp_path):
        path = tmp_path / "nan_ids.csv"
        path.write_text("pair,y,x1\n1,0.1,0\nnan,0.2,0\n1,0.3,0\nNaN,0.4,0\n")
        schema = ColumnSchema(group_col="pair", response_col="y", feature_cols=("x1",))
        with pytest.raises(DataError, match=r"line 3.*'nan'.*'pair'"):
            load_csv(path, schema)

    def test_group_id_parsing(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("g,y,x1\n2.0,0.1,0\nsite_a,0.2,0\n10,0.3,0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        ds = load_csv(path, schema)
        assert ds.group_ids() == [2, 10, "site_a"]

    @pytest.mark.parametrize("first,second", [("7", "7.0"), ("007", "7")])
    def test_group_id_spelled_two_ways_names_both_lines(self, tmp_path, first, second):
        path = tmp_path / "ids.csv"
        path.write_text(f"g,y,x1\n{first},0.1,0\n3,0.2,0\n{first},0.3,0\n{second},0.4,0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        with pytest.raises(
            DataError,
            match=rf"line 5: group id '{second}' in column 'g' is '{first}' of line 2 spelled",
        ):
            load_csv(path, schema)

    def test_integer_group_ids_past_2_53_stay_exact(self, tmp_path):
        # both are 9007199254740992 as floats
        path = tmp_path / "ids.csv"
        path.write_text("g,y,x1\n9007199254740993,0.1,0\n9007199254740992,0.2,0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        assert sorted(load_csv(path, schema).group_ids()) == [9007199254740992, 9007199254740993]

    def test_ids_past_2_53_load_in_one_order_from_either_file_order(self, tmp_path):
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        rows = ["9007199254740993,0.1,0\n", "9007199254740992,0.2,0\n", "3,0.3,1\n", "4,0.4,1\n"]
        loads = []
        for name, order in (("ab.csv", rows), ("ba.csv", [rows[1], rows[0], *rows[2:]])):
            path = tmp_path / name
            path.write_text("g,y,x1\n" + "".join(order))
            loads.append(load_csv(path, schema))
        want = [3, 4, 9007199254740992, 9007199254740993]
        assert [ds.group_ids() for ds in loads] == [want, want]
        splits = [[part.group_ids() for part in split_by_groups(ds, 0.5, seed=4)] for ds in loads]
        assert splits[0] == splits[1]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfg,y,x1\n1,0.1,0\n2,0.2,0\n1,0.3,0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        ds = load_csv(path, schema)
        assert ds.group_ids() == [1, 2]
        np.testing.assert_array_equal(ds.groups[0].y, [0.1, 0.3])

    def test_float_group_ids_and_blank_rows_round_trip(self, tmp_path):
        rows = "g,y,x1\r\n1.5,0.1,1.0\r\n2.5,0.2,2.0\r\n1.5,0.3,3.0\r\n"
        path = tmp_path / "f.csv"
        path.write_text(rows.replace("\r\n2.5", "\r\n\r\n , \r\n2.5"), newline="")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        ds = load_csv(path, schema)
        assert ds.group_ids() == [1.5, 2.5]
        np.testing.assert_array_equal(ds.groups[0].y, [0.1, 0.3])
        save_csv(tmp_path / "back.csv", ds, schema)
        assert (tmp_path / "back.csv").read_bytes() == rows.replace(
            "2.5,0.2,2.0\r\n1.5,0.3,3.0", "1.5,0.3,3.0\r\n2.5,0.2,2.0"
        ).encode()

    def test_rows_within_group_keep_order(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("g,y,x1\n5,0.3,0\n1,0.1,0\n5,0.4,0\n1,0.2,0\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        ds = load_csv(path, schema)
        assert ds.group_ids() == [1, 5]
        np.testing.assert_array_equal(ds.groups[0].y, [0.1, 0.2])
        np.testing.assert_array_equal(ds.groups[1].y, [0.3, 0.4])

    @staticmethod
    def with_ids(ids):
        ds = toy_dataset(np.random.default_rng(2), n_groups=len(ids), n_per=2, p=1)
        groups = tuple(GroupBlock(group_id=gid, y=g.y, X=g.X, Z=g.Z) for gid, g in zip(ids, ds.groups))
        return GroupedDataset(groups=groups, feature_names=ds.feature_names)

    @pytest.mark.parametrize("ids, message", [
        (["a", " a"], "group id ' a' would read back as 'a'"),
        ([7, "7"], "group id '7' would read back as 7"),
        (["b", "1e3 "], "group id '1e3 ' would read back as 1000"),
        ([1, float("nan")], "group id nan would not read back: load_csv refuses 'nan'"),
        ([True, 2], "group id True would read back as 'True'"),
    ])
    def test_group_id_that_would_not_read_back_as_itself(self, tmp_path, ids, message):
        """Ids that would merge with another group, change kind or fail to load are
        refused before the file is written."""
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        path = tmp_path / "ids.csv"
        with pytest.raises(DataError, match=re.escape(message)):
            save_csv(path, self.with_ids(ids), schema)
        assert not path.exists()

    def test_int_float_and_text_ids_round_trip(self, tmp_path):
        ids = [-3, 0, 2**70, np.int64(9), 1.5, np.float64(-0.25), 1e-300, "a", "a b", "x,y", 'q"t', "", "é"]
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("x1",))
        ds = self.with_ids(ids)
        save_csv(tmp_path / "ids.csv", ds, schema)
        back = load_csv(tmp_path / "ids.csv", schema)
        assert [(isinstance(i, str), i) for i in back.group_ids()] == [
            (isinstance(i, str), i) for i in ds.group_ids()]
        for a, b in zip(ds.groups, back.groups):
            np.testing.assert_array_equal(a.y, b.y)


class TestWriteCsv:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            ["café", None, np.float32(0.1)],
            [1.5, -0.0, np.float64(2e300)],
            [np.int64(3), 5e-324, 1e22],
            ["a,b", 7, ""],
        ]
        write_csv(path, ["id", "v", "w"], rows)
        assert path.read_bytes() == (
            "id,v,w\r\n"
            "café,,0.10000000149011612\r\n"
            "1.5,-0.0,2e+300\r\n"
            "3,5e-324,1e+22\r\n"
            '"a,b",7,\r\n'
        ).encode("utf-8")


class TestSummaries:
    def test_mode_tie_breaks_smallest(self):
        assert _mode_smallest(np.array([2.0, 1.0, 2.0, 1.0])) == 1.0
        assert _mode_smallest(np.array([3.0])) == 3.0
        assert _mode_smallest(np.array([5.0, 4.0, 5.0])) == 5.0

    def test_mean_and_mode_aggregation(self):
        X = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 7.0]])
        xt = summarize_matrix(X, categorical=(1,))
        np.testing.assert_allclose(xt, [3.0, 2.0])

    def test_summarize_idempotent(self):
        rng = np.random.default_rng(2)
        ds = summarize_groups(toy_dataset(rng), categorical=(0,))
        again = summarize_groups(ds)
        np.testing.assert_array_equal(ds.x_tilde_matrix(), again.x_tilde_matrix())
        assert again.categorical_features == (0,)

    def test_blocks_summarized_at_construction(self):
        rng = np.random.default_rng(3)
        groups = []
        for i in range(6):
            n = 2 + i % 3
            X = np.column_stack([rng.standard_normal(n), rng.integers(0, 3, n), rng.random(n)])
            groups.append(GroupBlock(group_id=i, y=rng.standard_normal(n), X=X, Z=np.ones((n, 1))))
        ds = GroupedDataset(groups=tuple(groups), feature_names=("a", "b", "c"),
                            categorical_features=(1,))
        for g in ds.groups:
            assert np.array_equal(g.x_tilde, summarize_matrix(g.X, (1,)))    # mean, mode, mean
        assert any(g.x_tilde[1] != g.X[:, 1].mean() for g in ds.groups)

    def test_attached_summaries_survive(self):
        rng = np.random.default_rng(7)
        # summaries that no aggregation of the rows would give
        groups = tuple(
            GroupBlock(group_id=g.group_id, y=g.y, X=g.X, Z=g.Z, x_tilde=g.X[-1] + 0.5)
            for g in toy_dataset(rng, n_groups=8).groups
        )
        ds = GroupedDataset(groups=groups, feature_names=("x1", "x2"), categorical_features=(0,))
        for a, b in zip(groups, ds.groups):
            assert b.x_tilde is a.x_tilde
        first, second = split_by_groups(ds, 0.5, seed=1)
        for part in (first, second):
            for g in part.groups:
                assert np.array_equal(g.x_tilde, g.X[-1] + 0.5)

    def test_load_csv_attaches_summaries(self, tmp_path):
        # load_csv attaches the summary it would compute, so recomputing changes nothing
        path = tmp_path / "cat.csv"
        path.write_text("g,y,a,b\n1,0.1,0.25,2\n1,0.2,0.5,1\n1,0.3,2.0,2\n2,0.4,1.5,3\n")
        schema = ColumnSchema(group_col="g", response_col="y", feature_cols=("a", "b"),
                              categorical_cols=("b",))
        ds = load_csv(path, schema)
        np.testing.assert_array_equal(ds.x_tilde_matrix(), [[0.9166666666666666, 2.0], [1.5, 3.0]])
        for g in ds.groups:
            assert np.array_equal(g.x_tilde, summarize_matrix(g.X, (1,)))
        again = summarize_groups(ds)
        assert np.array_equal(again.x_tilde_matrix(), ds.x_tilde_matrix())
        assert again.categorical_features == ds.categorical_features == (1,)

    def test_bad_categorical_index(self):
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng, p=2)
        with pytest.raises(ConfigError):
            summarize_groups(ds, categorical=(5,))
        for bad in ((2,), (-1,), (0, 5)):
            with pytest.raises(ConfigError, match="out of range"):
                GroupedDataset(groups=ds.groups, feature_names=ds.feature_names,
                               categorical_features=bad)


class TestSplit:
    def test_sizes_and_determinism(self):
        rng = np.random.default_rng(5)
        ds = toy_dataset(rng, n_groups=10)
        a1, b1 = split_by_groups(ds, 0.6, seed=9)
        a2, b2 = split_by_groups(ds, 0.6, seed=9)
        assert a1.n_groups == 6 and b1.n_groups == 4
        assert a1.group_ids() == a2.group_ids()
        assert b1.group_ids() == b2.group_ids()

    @pytest.mark.parametrize("seed,message", [
        (2.5, "seed must be an integer, got 2.5"),
        (-1, "seed must be a non-negative integer, got -1"),
    ])
    def test_seed_is_checked(self, seed, message):
        ds = toy_dataset(np.random.default_rng(6), n_groups=4)
        with pytest.raises(ConfigError, match=message):
            split_by_groups(ds, 0.5, seed=seed)

    def test_bad_fraction(self):
        rng = np.random.default_rng(6)
        ds = toy_dataset(rng, n_groups=4)
        with pytest.raises(ConfigError):
            split_by_groups(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            split_by_groups(ds, 0.1, seed=0)  # floor gives an empty first part

    @settings(max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n_groups=st.integers(min_value=3, max_value=20),
        fraction=st.floats(min_value=0.2, max_value=0.8),
    )
    def test_partition_property(self, seed, n_groups, fraction):
        n_first = int(np.floor(fraction * n_groups))
        if n_first == 0 or n_first == n_groups:
            return
        rng = np.random.default_rng(123)
        ds = toy_dataset(rng, n_groups=n_groups)
        a, b = split_by_groups(ds, fraction, seed=seed)
        ids_a, ids_b = set(a.group_ids()), set(b.group_ids())
        assert ids_a.isdisjoint(ids_b)
        assert ids_a | ids_b == set(ds.group_ids())
        assert a.n_groups == n_first
        # canonical order preserved in both parts
        assert a.group_ids() == sorted(ids_a)
        assert b.group_ids() == sorted(ids_b)
