"""Print the sha256 of fixed fits' model files and simulate draws, to compare two checkouts.

    PYTHONHASHSEED=0 python tests/model_digest.py

Run it from the root of a checkout; gbmixed comes from that checkout's src/.
It prints one "<sha256>  <name>" line per item, twenty in all:

  - the perfbench/workloads.py prepare() draws of seeds 1-3 of both
    workloads, each fitted with its own config and saved with its schema;
  - every TestRoundTrip variant/learner pair (tests/test_model_io.py),
    fitted as that test fits it;
  - every simulate scenario: its generate draw of SIM_N_OBS rows at seed
    SIM_SEED (the dataset's stacked arrays, group ids and summaries, and
    every GroundTruth field) and its default_config().

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

from gbmixed import boosting, simulate  # noqa: E402
from gbmixed.model_io import save_model  # noqa: E402
from test_model_io import ROUND_TRIP_CASES, round_trip_fit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def models():
    """(name, model, schema) of every fit, in a fixed order."""
    for workload in ("pairs", "clusters"):
        for seed in (1, 2, 3):
            prep = WORKLOADS[workload]().prepare(seed)
            yield f"{workload}-seed{seed}", boosting.fit(prep.train, prep.config), prep.schema
    for variant, kind in ROUND_TRIP_CASES:
        yield f"roundtrip-{variant}-{kind}", round_trip_fit(variant, kind)[0], None


SIM_N_OBS = 400
SIM_SEED = 3


def scenario_digests():
    """(name, sha256) of each scenario's draw and default config, in a fixed order."""
    for name in sorted(simulate.SCENARIOS):
        sc = simulate.scenario_by_name(name, seed=SIM_SEED)
        ds, truth = simulate.generate(sc, SIM_N_OBS)
        st = ds.stacked()
        arrays = [st.y, st.X, st.Z, st.sizes, np.asarray(ds.group_ids()), ds.x_tilde_matrix()]
        arrays += [getattr(truth, f.name) for f in fields(truth)]
        h = hashlib.sha256()
        for a in arrays:
            h.update(f"{a.dtype} {a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        names = (ds.feature_names, ds.treatment_index, ds.categorical_features)
        h.update(repr((names, sc.default_config())).encode())
        yield f"simulate-{name}", h.hexdigest()


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("set PYTHONHASHSEED=0: model files are compared under that hash seed", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.gbmixed"
        for name, model, schema in models():
            save_model(path, model, schema=schema)
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
    for name, digest in scenario_digests():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
