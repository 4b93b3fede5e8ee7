"""Print the sha256 of fixed fits' model files and simulate draws, to compare two checkouts.

    PYTHONHASHSEED=0 python tests/model_digest.py

Run it from the root of a checkout; gbmixed comes from that checkout's src/.
It prints one "<sha256>  <name>" line per item, forty-five in all:

  - the perfbench/workloads.py prepare() draws of seeds 1-3 of both
    workloads, each fitted with its own config and saved with its schema;
  - for each of those six models, what the workload's infer() serves on its
    test split: the predict_dataset table (served as the workload serves it),
    cate and ite_variance;
  - every TestRoundTrip variant/learner pair (tests/test_model_io.py),
    fitted as that test fits it;
  - every simulate scenario, on two lines: its generate draw of SIM_N_OBS
    rows at seed SIM_SEED (the dataset's stacked arrays, group ids,
    summaries and feature names, and every GroundTruth field), then the
    repr of its default_config(), so that a removed or renamed setting
    changes only the config line and a changed draw only the draw line;
  - for each of the six benchmark models, what the workload's _explain
    computes over the test rows: the importance and the default-grid
    partial dependence of the mean and of R on the features of EXPLAINED;
  - for each of the six benchmark draws, the bytes save_csv writes for
    its training split, then the stacked arrays, group ids and summaries
    load_csv reads back from them;
  - last, the model files of expA and expB fitted to their generate draws of
    SUBSAMPLED_N_OBS rows with their default_config of SUBSAMPLED_ITERATIONS
    iterations, which samples features (feature_fraction 0.7 with the
    treatment forced in) as every other fit above does not.

A change that must build the same models and draws prints the same lines as
its parent. It refuses to run without PYTHONHASHSEED=0, the hash seed under
which model files are compared across checkouts. Pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import fields
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from gbmixed import boosting, data, diagnostics, simulate  # noqa: E402
from gbmixed.model_io import save_model  # noqa: E402
from test_model_io import ROUND_TRIP_CASES, round_trip_fit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# the features whose mean and R curves each workload's _explain plots
EXPLAINED = {"pairs": ("x1", "x5"), "clusters": ("x1", "x2")}


def models():
    """(name, model, schema, served, explained) of every fit, in a fixed order; served is
    the benchmark draw's infer() output and explained its explain_digest, both None for a
    round-trip fit."""
    for workload in ("pairs", "clusters"):
        for seed in (1, 2, 3):
            wl = WORKLOADS[workload]()
            prep = wl.prepare(seed)
            model = boosting.fit(prep.train, prep.config)
            served = wl.infer(model, prep, prep.train)
            explained = explain_digest(model, prep.test.stacked().X, EXPLAINED[workload])
            yield f"{workload}-seed{seed}", model, prep.schema, served, explained
    for variant, kind in ROUND_TRIP_CASES:
        yield f"roundtrip-{variant}-{kind}", round_trip_fit(variant, kind)[0], None, None, None


def array_digest(arrays, extra: str = "") -> str:
    """sha256 of each array's dtype, shape and bytes in turn, then of extra."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(extra.encode())
    return h.hexdigest()


def served_digest(served: dict) -> str:
    """sha256 of a workload's predict_dataset table, cate and ite_variance."""
    table = served["table"]
    arrays = [getattr(table, f.name) for f in fields(table) if f.name != "group_ids"]
    return array_digest(arrays + [served["tau_hat"], served["var_delta"]], repr(table.group_ids))


def explain_digest(model, X, features) -> str:
    """sha256 of the importance and default-grid partial dependence, over rows X, of the
    mean on features[0] and of R on features[1]."""
    arrays, names = [], []
    for component, feature in zip(("mean", "R"), features):
        scores = diagnostics.variable_importance(model, component)
        names.append(list(scores))
        arrays += [list(scores.values()), *diagnostics.partial_dependence(model, component, feature, X)]
    return array_digest(arrays, repr(names))


SIM_N_OBS = 400
SIM_SEED = 3


def scenario_digests():
    """(name, sha256) of each scenario's draw, then of its default config, in a fixed order."""
    for name in sorted(simulate.SCENARIOS):
        sc = simulate.scenario_by_name(name, seed=SIM_SEED)
        ds, truth = simulate.generate(sc, SIM_N_OBS)
        st = ds.stacked()
        arrays = [st.y, st.X, st.Z, st.sizes, np.asarray(ds.group_ids()), ds.x_tilde_matrix()]
        arrays += [getattr(truth, f.name) for f in fields(truth)]
        names = (ds.feature_names, ds.treatment_index, ds.categorical_features)
        yield f"simulate-{name}", array_digest(arrays, repr(names))
        yield f"simulate-{name}-config", hashlib.sha256(repr(sc.default_config()).encode()).hexdigest()


def csv_digests(tmp: Path):
    """(name, sha256) of each benchmark draw's training split through save_csv and
    load_csv, in the order of models()."""
    path = tmp / "train.csv"
    for workload in ("pairs", "clusters"):
        for seed in (1, 2, 3):
            prep = WORKLOADS[workload]().prepare(seed)
            data.save_csv(path, prep.train, prep.schema)
            ds = data.load_csv(path, prep.schema)
            st = ds.stacked()
            arrays = [np.frombuffer(path.read_bytes(), dtype=np.uint8), st.y, st.X, st.Z,
                      st.sizes, np.asarray(ds.group_ids()), ds.x_tilde_matrix()]
            names = (ds.feature_names, ds.treatment_index, ds.categorical_features)
            yield f"{workload}-seed{seed}-csv", array_digest(arrays, repr(names))


SUBSAMPLED_N_OBS = 600
SUBSAMPLED_ITERATIONS = 30


def subsampled_fits():
    """(name, model) of the feature-subsampling fits, in a fixed order."""
    for name in ("expA", "expB"):
        sc = simulate.scenario_by_name(name, seed=SIM_SEED)
        ds, _ = simulate.generate(sc, SUBSAMPLED_N_OBS)
        config = sc.default_config(n_iterations=SUBSAMPLED_ITERATIONS)
        yield f"{name}-subsampled", boosting.fit(ds, config)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("set PYTHONHASHSEED=0: model files are compared under that hash seed", file=sys.stderr)
        return 2
    explained = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.gbmixed"
        for name, model, schema, served, explain in models():
            save_model(path, model, schema=schema)
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
            if served is not None:
                print(f"{served_digest(served)}  {name}-served")
                explained.append(f"{explain}  {name}-explained")
    for name, digest in scenario_digests():
        print(f"{digest}  {name}")
    # after the lines of the script's earlier versions, which keep their order
    print("\n".join(explained))
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in csv_digests(Path(tmp)):
            print(f"{digest}  {name}")
        path = Path(tmp) / "model.gbmixed"
        for name, model in subsampled_fits():
            save_model(path, model)
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
