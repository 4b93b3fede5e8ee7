"""Model inspection: selection-frequency importance and partial dependence.

Importance counts how often each feature gets picked across an ensemble
(tree split nodes, nonzero linear coefficients) and normalizes the counts to
sum to one.

Partial dependence is Friedman's brute-force average: at each grid value v
it sets the plotted feature f to v in every background row and averages the
component over the rows. For the residual variance the curve lives on the
variance scale; for the group covariance it traces one entry of G(x~) over
group-level backgrounds. The component evaluators take grid = (f, values)
and evaluate each learner once per run of grid values that cannot change
its output (boosting._ensemble_grid_sum): a tree once per interval between
its sorted thresholds on f that the grid hits, so a tree that never splits
on f is walked once; a linear learner that reads f once per value; any other
learner once. A tree's walk at a grid value settles each split on f by the
scalar test value < threshold and walks only the side it picks, so it reads
only the other features' columns. The curves of trees and constants are the
brute-force average bit for bit.

Grid values are processed in chunks of at most _CHUNK_CELLS accumulator
cells (grid values x background rows), so memory stays bounded for large
backgrounds.
"""

from __future__ import annotations

import numpy as np

from . import boosting
from .boosting import FittedModel, eval_gcov_rows, eval_mean, eval_resid_var
from .errors import ConfigError, check_index, check_rows, numeric_array

COMPONENTS = tuple(boosting.COMPONENTS)
DEFAULT_GRID_SIZE = 25
GRID_PERCENTILES = (2.0, 98.0)
# Partial dependence evaluates as many grid values per call as fit in this many
# accumulator cells (grid values x background rows, 2 MB of float64).
_CHUNK_CELLS = 2**18


def _check_component(component: str) -> None:
    if component not in COMPONENTS:
        raise ConfigError(f"unknown component {component!r}; expected one of {COMPONENTS}")


def variable_importance(model: FittedModel, component: str) -> dict:
    """Normalized selection frequencies per feature name.

    Returns an empty dict when the component's ensemble never selected any
    feature (constant learners, or no learners at all).
    """
    _check_component(component)
    p = len(model.feature_names)
    counts = np.zeros(p)
    for learners in model.ensembles[component].learners:
        for h in learners:
            counts += h.split_counts(p)
    total = counts.sum()
    if total == 0.0:
        return {}
    return {name: float(c / total) for name, c in zip(model.feature_names, counts)}


def _resolve_feature(model: FittedModel, feature) -> int:
    if isinstance(feature, str):
        try:
            return model.feature_names.index(feature)
        except ValueError:
            raise ConfigError(f"unknown feature {feature!r}") from None
    f = check_index("feature", feature)
    if not (0 <= f < len(model.feature_names)):
        raise ConfigError(f"feature index {f} out of range")
    return f


def _default_grid(background: np.ndarray, feature: int) -> np.ndarray:
    """DEFAULT_GRID_SIZE even steps between the 2nd and 98th percentile of a column's finite values.

    partial_dependence checks background and feature first. NaN and ±inf
    entries are left out, since a percentile taken over them is NaN; a
    column with no finite value is a ConfigError.
    """
    col = background[:, feature]
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ConfigError(f"feature {feature} has no finite background value to place a default grid")
    lo, hi = np.percentile(col, GRID_PERCENTILES)
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, DEFAULT_GRID_SIZE)


def partial_dependence(
    model: FittedModel,
    component: str,
    feature,
    background: np.ndarray,
    grid: np.ndarray | None = None,
    g_entry: tuple[int, int] = (0, 0),
) -> tuple[np.ndarray, np.ndarray]:
    """Partial dependence curve of one component on one feature.

    background holds observation rows for the mean and R components and
    group summary rows for G, whose entry (row, column) g_entry picks. The
    feature and g_entry's entries are indices (ints or NumPy integers, not
    bools) and the grid's entries numbers (NaN and ±inf too), else a ConfigError;
    background is a served matrix (errors.check_rows). Returns (grid, values).
    """
    _check_component(component)
    f = _resolve_feature(model, feature)
    bg = check_rows(background, len(model.feature_names), "background")
    if bg.shape[0] == 0:
        raise ConfigError("background has no rows")
    if grid is None:
        grid = _default_grid(bg, f)
    grid = numeric_array("grid", grid, ConfigError)
    if grid.ndim != 1:
        raise ConfigError(f"grid must be 1-dimensional, got shape {grid.shape}")
    try:
        a, b = g_entry
    except (TypeError, ValueError):
        raise ConfigError(f"g_entry must be a pair of indices, got {g_entry!r}") from None
    a, b = check_index("g_entry row", a), check_index("g_entry column", b)
    if component == "G" and not (0 <= a < model.q and 0 <= b < model.q):
        raise ConfigError(f"g_entry {g_entry} out of range for q={model.q}")

    values = np.empty(grid.shape[0])
    step = max(1, _CHUNK_CELLS // bg.shape[0])
    for lo in range(0, grid.shape[0], step):
        at = (f, grid[lo : lo + step])
        if component == "mean":
            out = eval_mean(model, bg, grid=at)
        elif component == "R":
            out = eval_resid_var(model, bg, grid=at)
        else:
            out = eval_gcov_rows(model, bg, grid=at)[..., a, b]
        values[lo : lo + step] = out.mean(axis=1)
    return grid, values
