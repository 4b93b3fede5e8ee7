"""Command line behavior: files in, files out, exit codes, determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import gbmixed
from gbmixed import config as config_mod
from gbmixed import model_io, simulate
from gbmixed.boosting import FitConfig
from gbmixed.cli import _simulate_config, main
from gbmixed.config import build_run_config, parse_config_text
from gbmixed.data import ColumnSchema, load_csv
from gbmixed.errors import ConfigError
from gbmixed.prediction import ite_variance
from util import deep_tree_text

Z90 = 1.6448536269514722
Z95 = 1.959963984540054


def write_csv(path, rng, n_groups=40, ids=None, nan_y=False):
    """Clustered toy data with a treatment column: y = 2 x1 + 0.4 w + alpha + eps."""
    ids = list(range(n_groups)) if ids is None else ids
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "y", "x1", "x2", "x3", "w"])
        for gid in ids:
            alpha = 0.5 * rng.standard_normal()
            w_first = int(rng.integers(0, 2))
            for j in range(2):
                x = rng.standard_normal(3)
                w = float(w_first if j == 0 else 1 - w_first)
                y = 2.0 * x[0] + 0.4 * w + alpha + 0.3 * rng.standard_normal()
                y_cell = "nan" if nan_y else repr(float(y))
                writer.writerow([gid, y_cell, *(repr(float(v)) for v in x), repr(w)])


def write_cfg(path, extra=""):
    path.write_text(
        "group_col = g\n"
        "response_col = y\n"
        "feature_cols = x1, x2, x3, w\n"
        "treatment_col = w\n"
        "variant = rboost\n"
        "iterations = 15\n"
        "learning_rate = 0.05\n"
        "tree_min_parent = 4\n"
        "tree_min_child = 2\n"
        "early_stopping = false\n"
        "seed = 3\n" + extra
    )


def config_leaves(cfg):
    """FitConfig as a flat dict, learner fields as 'mean_learner.kind' etc."""
    leaves = {}
    for name, value in asdict(cfg).items():
        if isinstance(value, dict):
            leaves.update({f"{name}.{k}": v for k, v in value.items()})
        else:
            leaves[name] = value
    return leaves


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {name: [r[i] for r in data] for i, name in enumerate(header)}
    return header, cols


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    # a command given no --out writes into the working directory, never the checkout's
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    write_csv(tmp_path / "train.csv", rng)
    write_cfg(tmp_path / "run.cfg")
    return tmp_path


def fit_model(workdir, name="model.txt"):
    rc = main(
        [
            "fit",
            "--config",
            str(workdir / "run.cfg"),
            "--data",
            str(workdir / "train.csv"),
            "--out",
            str(workdir / name),
        ]
    )
    assert rc == 0
    return workdir / name


class TestFit:
    def test_writes_model_and_reports(self, workdir, capsys):
        path = fit_model(workdir)
        out = capsys.readouterr().out
        assert path.exists()
        assert "best_iteration=" in out
        assert "variant=rboost" in out

    def test_rerun_byte_identical(self, workdir):
        p1 = fit_model(workdir, "m1.txt")
        p2 = fit_model(workdir, "m2.txt")
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_required_config_key(self, workdir, capsys):
        (workdir / "bad.cfg").write_text("response_col = y\nfeature_cols = x1\n")
        rc = main(
            ["fit", "--config", str(workdir / "bad.cfg"), "--data", str(workdir / "train.csv")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, workdir, capsys):
        write_cfg(workdir / "bad.cfg", extra="learning_rte = 0.1\n")
        rc = main(
            ["fit", "--config", str(workdir / "bad.cfg"), "--data", str(workdir / "train.csv")]
        )
        assert rc == 2
        assert "learning_rte" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("verbose = true\n", "unknown key 'verbose'"),
            ("feature_cols = x1, y, w\n", "'y' is also a feature"),
            ("group_col = y\n", "'y' is both the group and the response"),
            ("z_cols = intercept, intercept\n", "duplicate z column"),
            ("seed = -1\n", "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_rejected_config_exits_2(self, workdir, capsys, extra, message):
        text = (workdir / "run.cfg").read_text()
        key = extra.split(" =")[0]
        kept = [line for line in text.splitlines(keepends=True) if not line.startswith(key + " ")]
        (workdir / "bad.cfg").write_text("".join(kept) + extra)
        cfg, data, out = (str(workdir / f) for f in ("bad.cfg", "train.csv", "bad.model"))
        rc = main(["fit", "--config", cfg, "--data", data, "--out", out])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_missing_data_file(self, workdir, capsys):
        rc = main(
            ["fit", "--config", str(workdir / "run.cfg"), "--data", str(workdir / "nope.csv")]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_data_cell_is_data_error(self, workdir, capsys):
        data = (workdir / "train.csv").read_text().splitlines()
        data[3] = data[3].replace(data[3].split(",")[1], "broken", 1)
        (workdir / "corrupt.csv").write_text("\n".join(data) + "\n")
        rc = main(
            ["fit", "--config", str(workdir / "run.cfg"), "--data", str(workdir / "corrupt.csv")]
        )
        assert rc == 3

    def test_cell_past_the_header_is_data_error(self, workdir, capsys):
        data = (workdir / "train.csv").read_text().splitlines()
        data[3] += ",4"
        (workdir / "long.csv").write_text("\n".join(data) + "\n")
        cfg, out = str(workdir / "run.cfg"), str(workdir / "long.model")
        rc = main(["fit", "--config", cfg, "--data", str(workdir / "long.csv"), "--out", out])
        assert rc == 3
        assert "line 4: expected 6 cells, got 7" in capsys.readouterr().err

    def test_unobserved_training_response_is_data_error(self, workdir, capsys):
        data = (workdir / "train.csv").read_text().splitlines()
        cells = data[3].split(",")
        cells[1] = "nan"
        data[3] = ",".join(cells)
        (workdir / "gap.csv").write_text("\n".join(data) + "\n")
        rc = main(
            ["fit", "--config", str(workdir / "run.cfg"), "--data", str(workdir / "gap.csv")]
        )
        assert rc == 3
        assert f"group {int(cells[0])}" in capsys.readouterr().err

    def test_nan_group_id_is_data_error(self, workdir, capsys):
        data = (workdir / "train.csv").read_text().splitlines()
        for i in (3, 4, 7):
            data[i] = "nan" + data[i][data[i].index(","):]
        (workdir / "nan_ids.csv").write_text("\n".join(data) + "\n")
        rc = main(
            ["fit", "--config", str(workdir / "run.cfg"), "--data", str(workdir / "nan_ids.csv")]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 4" in err and "'g'" in err

    def test_group_id_spelled_two_ways_is_data_error(self, workdir, capsys):
        data = (workdir / "train.csv").read_text().splitlines()
        assert data[1].startswith("0,") and data[2].startswith("0,")
        data[2] = "0.0" + data[2][1:]
        (workdir / "ids.csv").write_text("\n".join(data) + "\n")
        cfg, out = str(workdir / "run.cfg"), str(workdir / "ids.model")
        rc = main(["fit", "--config", cfg, "--data", str(workdir / "ids.csv"), "--out", out])
        assert rc == 3
        assert "line 3: group id '0.0' in column 'g' is '0' of line 2" in capsys.readouterr().err

    def test_config_not_utf8_is_config_error(self, workdir, capsys):
        cfg = workdir / "run.cfg"
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\xfe\n")
        rc = main(["fit", "--config", str(cfg), "--data", str(workdir / "train.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "run.cfg" in err and "Traceback" not in err

    def test_data_not_utf8_is_data_error(self, workdir, capsys):
        data = workdir / "train.csv"
        data.write_bytes(data.read_bytes() + b"\xff\xfe\n")
        rc = main(["fit", "--config", str(workdir / "run.cfg"), "--data", str(data)])
        assert rc == 3
        assert "train.csv: not a UTF-8 text file" in capsys.readouterr().err


class TestPredict:
    def test_training_groups_get_conditional_means(self, workdir):
        model = fit_model(workdir)
        out = workdir / "pred.csv"
        rc = main(
            ["predict", "--model", str(model), "--data", str(workdir / "train.csv"), "--out", str(out)]
        )
        assert rc == 0
        header, cols = read_table(out)
        assert header[:6] == ["group_id", "mu_marginal", "mu_conditional", "var_total", "lo", "hi"]
        marg = np.array([float(v) for v in cols["mu_marginal"]])
        cond = np.array([float(v) for v in cols["mu_conditional"]])
        assert len(marg) == 80
        assert np.any(np.abs(cond - marg) > 1e-8)

    def test_novel_groups_fall_back_to_marginal(self, workdir):
        model = fit_model(workdir)
        rng = np.random.default_rng(1)
        write_csv(workdir / "new.csv", rng, ids=[900, 901, 902], nan_y=True)
        out = workdir / "pred_new.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(workdir / "new.csv"),
                "--train",
                str(workdir / "train.csv"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, cols = read_table(out)
        marg = np.array([float(v) for v in cols["mu_marginal"]])
        cond = np.array([float(v) for v in cols["mu_conditional"]])
        np.testing.assert_array_equal(marg, cond)

    def test_alpha_scales_interval(self, workdir):
        model = fit_model(workdir)
        outs = {}
        for alpha in ("0.1", "0.05"):
            out = workdir / f"pred_{alpha}.csv"
            rc = main(
                [
                    "predict",
                    "--model",
                    str(model),
                    "--data",
                    str(workdir / "train.csv"),
                    "--alpha",
                    alpha,
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            _, cols = read_table(out)
            hi = np.array([float(v) for v in cols["hi"]])
            lo = np.array([float(v) for v in cols["lo"]])
            outs[alpha] = hi - lo
        ratio = outs["0.05"] / outs["0.1"]
        np.testing.assert_allclose(ratio, np.full_like(ratio, Z95 / Z90), rtol=1e-10)

    def test_a_model_file_with_a_byte_order_mark(self, workdir):
        model = fit_model(workdir)
        marked = workdir / "bom_model.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        outs = []
        for path in (model, marked):
            out = workdir / f"pred_{path.stem}.csv"
            rc = main(["predict", "--model", str(path), "--data", str(workdir / "train.csv"),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_cate_columns(self, workdir):
        model = fit_model(workdir)
        out = workdir / "pred_cate.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--cate",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        header, cols = read_table(out)
        assert header[-4:] == ["cate", "ite_var", "cate_lo", "cate_hi"]
        tau = np.array([float(v) for v in cols["cate"]])
        ivar = np.array([float(v) for v in cols["ite_var"]])
        lo = np.array([float(v) for v in cols["cate_lo"]])
        hi = np.array([float(v) for v in cols["cate_hi"]])
        assert np.all(ivar > 0)
        assert np.all(lo <= tau) and np.all(tau <= hi)

    def test_cate_variance_includes_a_treatment_random_slope(self, workdir):
        write_cfg(workdir / "run.cfg", extra="z_cols = intercept, w\n")
        text = (workdir / "run.cfg").read_text().replace("variant = rboost", "variant = gboost")
        (workdir / "run.cfg").write_text(text)
        model = fit_model(workdir)
        out = workdir / "pred_cate.csv"
        data = str(workdir / "train.csv")
        rc = main(["predict", "--model", str(model), "--data", data, "--cate", "--out", str(out)])
        assert rc == 0
        _, cols = read_table(out)
        ivar = np.array([float(v) for v in cols["ite_var"]])
        fitted, schema = model_io.load_model(str(model))
        assert schema.z_cols == ("intercept", "w") and fitted.config.variant == "gboost"
        ds = load_csv(data, schema)
        st = ds.stacked()
        xt_rows = np.repeat(ds.x_tilde_matrix(), st.sizes, axis=0)
        with_slope = ite_variance(fitted, st.X, st.Z, xt_rows, z_treatment_index=1)
        assert np.array_equal(ivar, with_slope)
        assert np.all(with_slope > ite_variance(fitted, st.X, st.Z, xt_rows))

    def test_group_col_override(self, workdir):
        model = fit_model(workdir)
        text = (workdir / "train.csv").read_text()
        (workdir / "renamed.csv").write_text("cluster" + text[1:])
        out = workdir / "pred_renamed.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(workdir / "renamed.csv"),
                "--group-col",
                "cluster",
                "--out",
                str(out),
            ]
        )
        assert rc == 0

    def test_missing_model_file(self, workdir, capsys):
        rc = main(
            [
                "predict",
                "--model",
                str(workdir / "ghost.txt"),
                "--data",
                str(workdir / "train.csv"),
                "--out",
                str(workdir / "x.csv"),
            ]
        )
        assert rc == 3

    def test_alpha_checked_before_the_model_is_read(self, workdir, capsys):
        rc = main(
            [
                "predict",
                "--model",
                str(workdir / "ghost.txt"),
                "--data",
                str(workdir / "train.csv"),
                "--alpha",
                "1.5",
                "--out",
                str(workdir / "x.csv"),
            ]
        )
        assert rc == 2
        assert "alpha must be in (0, 1), got 1.5" in capsys.readouterr().err

    def predict_rc(self, workdir, model):
        return main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--out",
                str(workdir / "x.csv"),
            ]
        )

    def test_model_without_a_schema_exits_2(self, workdir, capsys):
        bare = workdir / "bare.txt"
        model_io.save_model(bare, model_io.load_model(fit_model(workdir))[0])
        assert self.predict_rc(workdir, bare) == 2
        assert ("model file carries no data schema; refit with this version or pass data "
                "through the library API") in capsys.readouterr().err

    def test_model_not_utf8_is_data_error(self, workdir, capsys):
        model = fit_model(workdir)
        model.write_bytes(model.read_bytes().replace(b"end\n", b"\xff\xfe\nend\n"))
        assert self.predict_rc(workdir, model) == 3
        assert "model.txt: not a UTF-8 text file" in capsys.readouterr().err

    def test_gcov_entry_outside_the_factor_exits_3(self, workdir, capsys):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("gcov_learner 0 "))
        lines.insert(i, lines[i].replace("gcov_learner 0 ", "gcov_learner 4 ", 1))
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        assert f"entry 4 at line {i + 1} is outside 0..0" in capsys.readouterr().err

    def test_short_ensemble_exits_3(self, workdir, capsys):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        del lines[next(i for i, line in enumerate(lines) if line.startswith("mean_learner "))]
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        err = capsys.readouterr().err
        assert "rvar ensemble has 15 learners, but the mean ensemble has 14" in err

    def test_split_feature_past_the_features_exits_3(self, workdir, capsys):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("mean_learner ")
                 and '"root":{"f":' in line)
        tree = json.loads(lines[i][len("mean_learner "):])
        tree["root"]["f"] = 9
        lines[i] = "mean_learner " + json.dumps(tree)
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        err = capsys.readouterr().err
        assert f"line {i + 1}: split feature 9 outside 0..3" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value,message", [
        ("n_iterations", 2.5, "n_iterations must be an integer, got 2.5"),
        ("lookback", True, "lookback must be an integer, got True"),
        ("early_stopping", 1, "early_stopping must be a boolean, got 1"),
        ("tree_max_depth", 2.5, "tree_max_depth must be an integer, got 2.5"),
    ])
    def test_config_record_of_the_wrong_type_exits_3(self, workdir, capsys, field, value, message):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        config = json.loads(lines[1][len("config "):])
        (config["mean_learner"] if field.startswith("tree_") else config)[field] = value
        lines[1] = "config " + json.dumps(config)
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        err = capsys.readouterr().err
        assert f"malformed record at line 2: {message}" in err and "Traceback" not in err

    def test_tree_nested_too_deeply_exits_3(self, workdir, capsys):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("mean_learner "))
        lines[i] = 'mean_learner {"kind":"tree","n_features":4,"root":' + deep_tree_text(1500) + "}"
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        err = capsys.readouterr().err
        assert f"malformed record at line {i + 1}: maximum recursion depth" in err
        assert "Traceback" not in err

    def test_repeated_meta_exits_3(self, workdir, capsys):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        lines.insert(-1, lines[2])
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        assert f"meta record at line {len(lines) - 1} repeats line 3" in capsys.readouterr().err

    def test_history_shorter_than_the_run_exits_3(self, workdir, capsys):
        model = fit_model(workdir)
        lines = model.read_text().splitlines()
        meta = json.loads(lines[2][len("meta "):])
        meta["history"] = meta["history"][:2]
        lines[2] = "meta " + json.dumps(meta)
        model.write_text("\n".join(lines) + "\n")
        assert self.predict_rc(workdir, model) == 3
        assert "history at line 3 has 2 entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [('"lr_mean":0.05', '"lr_mean":-0.1'), ('"kind":"tree"', '"kind":"forest"')],
    )
    def test_damaged_config_exits_3(self, workdir, capsys, damage):
        model = fit_model(workdir)
        text = model.read_text()
        assert damage[0] in text.splitlines()[1]
        model.write_text(text.replace(damage[0], damage[1], 1))
        assert self.predict_rc(workdir, model) == 3
        err = capsys.readouterr().err
        assert "model.txt: malformed record at line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "damage",
        [
            ('"group_col":"g",', ""),
            ('"q":1,', ""),
            ('"z_cols":["intercept"]', '"z_cols":[]'),
        ],
    )
    def test_damaged_meta_exits_3(self, workdir, capsys, damage):
        model = fit_model(workdir)
        text = model.read_text()
        assert damage[0] in text
        model.write_text(text.replace(damage[0], damage[1], 1))
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--out",
                str(workdir / "x.csv"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "malformed record at line 3" in err and "Traceback" not in err


class TestSimulate:
    def args(self, workdir, *extra):
        return [
            "simulate",
            "expB",
            "--n",
            "120",
            "--reps",
            "2",
            "--set",
            "iterations=3",
            "--out",
            str(workdir / "report.csv"),
            *extra,
        ]

    def test_report_shape(self, tmp_path, capsys):
        rc = main(self.args(tmp_path))
        assert rc == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4    # header + 2 reps + aggregate
        assert rows[3][0] == "aggregate"
        assert "coverage=" in capsys.readouterr().out

    def test_g_mse_reported_for_a_g_boosting_scenario(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        args = ["simulate", "expC", "--n", "200", "--reps", "1", "--set", "iterations=2"]
        assert main([*args, "--out", str(out)]) == 0
        assert "g_mse=" in capsys.readouterr().out
        header, cols = read_table(out)
        assert header[-1] == "g_mse"
        assert all(float(v) >= 0 for v in cols["g_mse"])

    def test_deterministic_report(self, tmp_path):
        main(self.args(tmp_path))
        first = (tmp_path / "report.csv").read_bytes()
        main(self.args(tmp_path))
        assert (tmp_path / "report.csv").read_bytes() == first

    def test_emit_data(self, tmp_path):
        rc = main(self.args(tmp_path, "--emit-data", str(tmp_path / "sim")))
        assert rc == 0
        for rep in range(2):
            assert (tmp_path / f"sim_rep{rep}.csv").exists()
            assert (tmp_path / f"sim_rep{rep}_truth.csv").exists()
        with open(tmp_path / "sim_rep0.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[:2] == ["pair", "y"] and header[-1] == "w"

    def test_emitted_data_is_the_replication_draw(self, tmp_path):
        assert main(self.args(tmp_path, "--emit-data", str(tmp_path / "sim"))) == 0
        ds, _ = simulate.replication_data(simulate.expb_scenario(), 120, 1)
        schema = ColumnSchema(
            group_col="pair", response_col="y", feature_cols=ds.feature_names, treatment_col="w"
        )
        emitted = load_csv(str(tmp_path / "sim_rep1.csv"), schema).stacked()
        assert np.array_equal(emitted.y, ds.stacked().y)
        assert np.array_equal(emitted.X, ds.stacked().X)

    def test_bad_set_key(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "expB",
                "--n",
                "120",
                "--set",
                "mystery=1",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 2
        assert "mystery" in capsys.readouterr().err

    def test_bad_set_value(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "expB",
                "--n",
                "120",
                "--set",
                "iterations=lots",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 2
        assert "--set iterations=lots: cannot parse 'lots'" in capsys.readouterr().err

    def test_variant_override(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "expB",
                "--n",
                "120",
                "--reps",
                "1",
                "--set",
                "iterations=2",
                "--set",
                "variant=base",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 0
        assert "variant=base" in capsys.readouterr().out

    def test_alpha_out_of_range(self, tmp_path, capsys):
        args = self.args(tmp_path, "--alpha", "1.5")
        args[args.index("--reps") + 1] = "1"
        rc = main(args)
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_alpha_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit reached")

        monkeypatch.setattr(simulate, "fit", no_fit)
        prefix = tmp_path / "sim"
        rc = main(self.args(tmp_path, "--alpha", "1.5", "--emit-data", str(prefix)))
        assert rc == 2
        assert "alpha must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("data drawn or model fitted")

        monkeypatch.setattr(simulate, "fit", unreachable)
        monkeypatch.setattr(simulate, "generate", unreachable)
        prefix = tmp_path / "sim"
        rc = main(self.args(tmp_path, "--seed", "-1", "--emit-data", str(prefix)))
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # a value for every --set key that differs from FitConfig() or from expB's settings
    SET_VALUES = {
        "variant": "gboost",
        "learning_rate": "0.2",
        "iterations": "7",
        "lr_mean": "0.2",
        "lr_gcov": "0.2",
        "lr_rvar": "0.2",
        "group_fraction": "0.5",
        "feature_fraction": "0.5",
        "lookback": "4",
        "tolerance": "1e-5",
        "early_stopping": "false",
        "eval_fraction": "0.1",
        "tree_max_depth": "2",
        "tree_min_parent": "12",
        "tree_min_child": "3",
    }

    def test_set_values_cover_every_set_key(self):
        assert sorted(self.SET_VALUES) == sorted(config_mod.SIMULATE_KEYS)

    @pytest.mark.parametrize("key", sorted(SET_VALUES))
    def test_set_key_means_what_the_config_key_means(self, key):
        sc = simulate.scenario_by_name("expB")
        value = self.SET_VALUES[key]
        text = f"group_col = g\nresponse_col = y\nfeature_cols = x1\n{key} = {value}\n"
        from_file = config_leaves(build_run_config(parse_config_text(text)).fit)
        from_set = config_leaves(_simulate_config(sc, [f"{key}={value}"]))
        changed = {p for p, v in config_leaves(FitConfig()).items() if from_file[p] != v}
        changed |= {p for p, v in config_leaves(sc.default_config()).items() if from_set[p] != v}
        assert changed
        assert {p: from_file[p] for p in changed} == {p: from_set[p] for p in changed}

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key", [k for k in config_mod.SIMULATE_KEYS if config_mod._KEYS[k] is float]
    )
    def test_non_finite_set_value(self, key, raw):
        with pytest.raises(ConfigError):
            _simulate_config(simulate.scenario_by_name("expB"), [f"{key}={raw}"])

    @pytest.mark.parametrize(
        "sets,message",
        [
            (["iterations"], "--set iterations: expected 'key = value'"),
            (["iterations=3", "iterations=4"], "--set iterations=4: duplicate key 'iterations'"),
            (["seed=3"], "--set seed=3: unknown key 'seed'"),
            (["ridge_epsilon=1e-4"], "--set ridge_epsilon=1e-4: unknown key 'ridge_epsilon'"),
        ],
    )
    def test_set_errors_name_the_item(self, sets, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            _simulate_config(simulate.scenario_by_name("expB"), sets)

    @pytest.mark.parametrize("name", sorted(simulate.SCENARIOS))
    def test_config_defaults_to_the_scenario(self, name):
        sc = simulate.scenario_by_name(name)
        assert _simulate_config(sc, []) == sc.default_config()

    def test_tree_keys_apply_over_the_scenario_learner(self):
        sc = simulate.scenario_by_name("expC")
        cfg = _simulate_config(sc, ["tree_min_child=7", "iterations=3", "variant=rboost"])
        assert cfg.variant == "rboost" and cfg.n_iterations == 3
        assert cfg.mean_learner == cfg.rvar_learner
        assert cfg.mean_learner.tree_min_child == 7
        scenario_learner = sc.default_config().mean_learner
        assert cfg.mean_learner.tree_min_parent == scenario_learner.tree_min_parent == 40
        assert cfg.gcov_learner.kind == "constant"
        assert cfg.lookback == sc.default_config().lookback == 60


class TestDiagnose:
    def test_importance_and_pdp(self, workdir):
        model = fit_model(workdir)
        out = workdir / "diag.csv"
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--component",
                "mean",
                "--importance",
                "--feature",
                "x1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, imp = read_table(workdir / "diag.csv.importance.csv")
        scores = [float(v) for v in imp["score"]]
        assert sum(scores) == pytest.approx(1.0)
        header, pdp = read_table(workdir / "diag.csv.pdp.csv")
        assert header == ["grid", "value"]
        assert len(pdp["grid"]) > 1

    def test_r_component_pdp_only(self, workdir):
        model = fit_model(workdir)
        out = workdir / "rpdp.csv"
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--component",
                "R",
                "--feature",
                "x2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, pdp = read_table(out)
        vals = [float(v) for v in pdp["value"]]
        assert all(v > 0 for v in vals)    # variance scale

    def test_g_component_with_entry(self, workdir):
        model = fit_model(workdir)
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--component",
                "G",
                "--feature",
                "x3",
                "--g-entry",
                "0,0",
                "--out",
                str(workdir / "g.csv"),
            ]
        )
        assert rc == 0

    def test_needs_some_request(self, workdir, capsys):
        model = fit_model(workdir)
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--out",
                str(workdir / "d.csv"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_feature(self, workdir, capsys):
        model = fit_model(workdir)
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--feature",
                "x99",
                "--out",
                str(workdir / "d.csv"),
            ]
        )
        assert rc == 2
        assert "x99" in capsys.readouterr().err

    def test_bad_g_entry(self, workdir, capsys):
        model = fit_model(workdir)
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--component",
                "G",
                "--feature",
                "x1",
                "--g-entry",
                "7",
                "--out",
                str(workdir / "d.csv"),
            ]
        )
        assert rc == 2

    def test_g_entry_not_integers(self, workdir, capsys):
        model = fit_model(workdir)
        rc = main(
            [
                "diagnose",
                "--model",
                str(model),
                "--data",
                str(workdir / "train.csv"),
                "--component",
                "G",
                "--feature",
                "x1",
                "--g-entry",
                "a,b",
                "--out",
                str(workdir / "d.csv"),
            ]
        )
        assert rc == 2
        assert "--g-entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "request_args, message",
        [
            ([], "diagnose needs --importance and/or --feature"),
            (["--feature", "x1", "--g-entry", "1"], "--g-entry expects 'row,col'"),
        ],
        ids=["no_request", "g_entry_one_number"],
    )
    def test_usage_checked_before_the_model_is_read(self, workdir, capsys, request_args, message):
        rc = main(
            [
                "diagnose",
                "--model",
                str(workdir / "ghost.txt"),
                "--data",
                str(workdir / "train.csv"),
                *request_args,
                "--out",
                str(workdir / "d.csv"),
            ]
        )
        assert rc == 2
        assert message in capsys.readouterr().err


class TestTextEncoding:
    def test_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        """A non-ASCII group id survives fit and predict when the locale encodes ASCII only."""
        rng = np.random.default_rng(0)
        write_csv(tmp_path / "train.csv", rng, ids=["café", *(f"g{i}" for i in range(39))])
        write_cfg(tmp_path / "run.cfg")
        src = str(Path(gbmixed.__file__).resolve().parent.parent)
        env = {
            **os.environ,
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
        }
        commands = [
            ["fit", "--config", "run.cfg", "--data", "train.csv", "--out", "model.txt"],
            ["predict", "--model", "model.txt", "--data", "train.csv", "--out", "pred.csv"],
        ]
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "gbmixed", *command],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, done.stderr
        text = (tmp_path / "pred.csv").read_bytes().decode("utf-8")
        assert "\ncafé," in text
