"""Command line front end: fit, predict, simulate, diagnose.

Exit codes: 0 on success, 2 for usage or configuration problems, 3 for data
problems, 4 for numerical failures. Errors print a single `error: ...` line
on stderr. All randomness flows through explicit seeds, so rerunning a
command with the same inputs writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from . import config as config_mod
from . import diagnostics, model_io, simulate
from .boosting import fit
from .data import ColumnSchema, GroupedDataset, load_csv, save_csv, write_csv
from .errors import ConfigError, DataError, GBMixedError
from .prediction import cate, check_alpha, interval_halfwidth, ite_variance, predict_dataset


def cmd_fit(args) -> int:
    run = config_mod.load_run_config(args.config)
    ds = load_csv(args.data, run.schema)
    t0 = time.perf_counter()
    model = fit(ds, run.fit)
    elapsed = time.perf_counter() - t0
    out = args.out or run.model_out or "model.gbmixed"
    model_io.save_model(out, model, schema=run.schema)
    print(
        f"fit: variant={model.config.variant} iterations_run={model.n_iterations_run} "
        f"best_iteration={model.best_iteration} "
        f"eval_loglik={model.history[model.best_iteration]:.6f} "
        f"wall_seconds={elapsed:.2f} model={out}"
    )
    return 0


def _load_for_model(path: str, schema: ColumnSchema | None, group_col: str | None):
    if schema is None:
        raise ConfigError(
            "model file carries no data schema; refit with this version or pass data "
            "through the library API"
        )
    if group_col is not None:
        schema = replace(schema, group_col=group_col)
    return load_csv(path, schema), schema


def cmd_predict(args) -> int:
    check_alpha(args.alpha)
    model, schema = model_io.load_model(args.model)
    ds, schema = _load_for_model(args.data, schema, args.group_col)
    train_ds = None
    if args.train is not None:
        train_ds, _ = _load_for_model(args.train, schema, None)
    table = predict_dataset(
        model,
        ds,
        training_groups=train_ds,
        alpha=args.alpha,
        reduced_new_group_variance=args.reduced_new_group_variance,
    )
    header = ["group_id", "mu_marginal", "mu_conditional", "var_total", "lo", "hi"]
    cols = [table.group_ids, table.mu_marginal, table.mu_conditional, table.var_total,
            table.lo, table.hi]
    if args.cate:
        st = ds.stacked()
        xt_rows = np.repeat(ds.x_tilde_matrix(), st.sizes, axis=0)
        tau = cate(model, st.X)
        # a treatment random slope adds (z1 - z0)' G (z1 - z0) to the ITE variance
        z_cols, t_col = schema.z_cols, schema.treatment_col
        z_t = z_cols.index(t_col) if t_col in z_cols else None
        ivar = ite_variance(model, st.X, st.Z, xt_rows, z_treatment_index=z_t)
        half = interval_halfwidth(ivar, args.alpha)
        cols += [tau, ivar, tau - half, tau + half]
        header += ["cate", "ite_var", "cate_lo", "cate_hi"]
    write_csv(args.out, header, zip(*cols))
    print(f"predict: rows={len(table.group_ids)} out={args.out}")
    return 0


def _simulate_config(scenario: simulate.Scenario, sets: list[str]):
    items = ((f"--set {item}", item) for item in sets)
    values = config_mod.parse_items(items, config_mod.SIMULATE_KEYS)
    return config_mod.apply_settings(scenario.default_config(), values)


def _sim_schema(ds: GroupedDataset) -> ColumnSchema:
    names = ds.feature_names
    return ColumnSchema(
        group_col="pair",
        response_col="y",
        feature_cols=names,
        treatment_col=names[ds.treatment_index],
    )


def cmd_simulate(args) -> int:
    scenario = simulate.scenario_by_name(args.scenario, seed=args.seed)
    config = _simulate_config(scenario, args.set or [])
    check_alpha(args.alpha)
    if args.emit_data:
        for rep in range(args.reps):
            ds, truth = simulate.replication_data(scenario, args.n, rep)
            save_csv(f"{args.emit_data}_rep{rep}.csv", ds, _sim_schema(ds))
            write_csv(
                f"{args.emit_data}_rep{rep}_truth.csv",
                ["tau", "y0", "y1", "resid_var"],
                zip(truth.tau, truth.y0, truth.y1, truth.resid_var),
            )
    report, _ = simulate.run_replications(
        scenario, n_obs=args.n, reps=args.reps, config=config, alpha=args.alpha
    )
    header, *rows = simulate.report_csv_rows(report)
    write_csv(args.out, header, rows)
    agg = dict(zip(header, rows[-1]))
    parts = [
        f"simulate: scenario={report.scenario} variant={report.variant} reps={args.reps}",
        f"cate_mse={agg['cate_mse']:.6f} (sd {agg['cate_mse_sd']:.6f})",
        f"coverage={agg['coverage']:.1f}% (sd {agg['coverage_sd']:.1f})",
    ]
    parts += [f"{key}={agg[key]:.6f}" for key in ("r_mse", "g_mse") if agg[key] is not None]
    print(" ".join(parts) + f" out={args.out}")
    return 0


def cmd_diagnose(args) -> int:
    if not args.importance and args.feature is None:
        raise ConfigError("diagnose needs --importance and/or --feature")
    g_entry = (0, 0)
    if args.feature is not None and args.g_entry:
        parts = args.g_entry.split(",")
        if len(parts) != 2:
            raise ConfigError("--g-entry expects 'row,col'")
        try:
            g_entry = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ConfigError(
                f"--g-entry expects integers 'row,col', got {args.g_entry!r}"
            ) from None
    model, schema = model_io.load_model(args.model)
    ds, _ = _load_for_model(args.data, schema, args.group_col)
    wrote = []
    if args.importance:
        scores = diagnostics.variable_importance(model, args.component)
        path = args.out if args.feature is None else args.out + ".importance.csv"
        write_csv(path, ["feature", "score"], scores.items())
        wrote.append(path)
    if args.feature is not None:
        background = (
            ds.x_tilde_matrix() if args.component == "G" else ds.stacked().X
        )
        grid, values = diagnostics.partial_dependence(
            model,
            args.component,
            args.feature,
            background,
            g_entry=g_entry,
        )
        path = args.out if not args.importance else args.out + ".pdp.csv"
        write_csv(path, ["grid", "value"], zip(grid, values))
        wrote.append(path)
    print(f"diagnose: component={args.component} wrote={','.join(wrote)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmixed",
        description="Gradient boosted mixed models for clustered Gaussian data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from a config and a CSV file")
    p_fit.add_argument("--config", required=True, help="key = value run configuration")
    p_fit.add_argument("--data", required=True, help="training data CSV")
    p_fit.add_argument("--out", default=None, help="model file path (overrides config)")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict rows of a CSV with a fitted model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--train", default=None, help="optional CSV supplying group history for BLUPs")
    p_pred.add_argument("--out", required=True)
    p_pred.add_argument("--alpha", type=float, default=0.1, help="interval miss probability")
    p_pred.add_argument("--cate", action="store_true", help="add treatment-effect columns")
    p_pred.add_argument("--group-col", default=None, help="override the group id column name")
    p_pred.add_argument(
        "--reduced-new-group-variance",
        action="store_true",
        help="drop the random-effect variance term for unknown groups",
    )
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a benchmark scenario end to end")
    p_sim.add_argument("scenario", choices=sorted(simulate.SCENARIOS))
    p_sim.add_argument("--n", type=int, default=10000, help="observations per replication")
    p_sim.add_argument("--reps", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha", type=float, default=0.1)
    p_sim.add_argument("--out", required=True, help="report CSV path")
    p_sim.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a fit setting"
    )
    p_sim.add_argument(
        "--emit-data", default=None, metavar="PREFIX", help="also write per-rep data CSVs"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="variable importance and partial dependence")
    p_diag.add_argument("--model", required=True)
    p_diag.add_argument("--data", required=True, help="background data CSV")
    p_diag.add_argument("--component", choices=diagnostics.COMPONENTS, default="mean")
    p_diag.add_argument("--importance", action="store_true")
    p_diag.add_argument("--feature", default=None, help="feature for a partial dependence curve")
    p_diag.add_argument("--g-entry", default=None, help="G entry as 'row,col' (default 0,0)")
    p_diag.add_argument("--group-col", default=None)
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GBMixedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
