"""Gradient boosted mixed models for clustered Gaussian data.

Fits a nonparametric mean together with covariate-dependent random-effect
covariance and residual variance by likelihood-gradient boosting, then
serves conditional predictions with calibrated intervals and heterogeneous
treatment-effect estimates.
"""

from .boosting import FitConfig, FittedModel, config_for_variant, fit
from .data import ColumnSchema, GroupBlock, GroupedDataset, load_csv, save_csv, split_by_groups, summarize_groups
from .diagnostics import partial_dependence, variable_importance
from .errors import ConfigError, DataError, GBMixedError, NumericalError, SingularCovarianceError
from .learners import LearnerSpec
from .model_io import load_model, save_model
from .prediction import PredictionTable, ate, blup, cate, ite_variance, predict_dataset
from .simulate import ReplicationReport, Scenario, generate, run_replications, scenario_by_name

__version__ = "0.1.0"

__all__ = [
    "ColumnSchema",
    "ConfigError",
    "DataError",
    "FitConfig",
    "FittedModel",
    "GBMixedError",
    "GroupBlock",
    "GroupedDataset",
    "LearnerSpec",
    "NumericalError",
    "PredictionTable",
    "ReplicationReport",
    "Scenario",
    "SingularCovarianceError",
    "ate",
    "blup",
    "cate",
    "config_for_variant",
    "fit",
    "generate",
    "ite_variance",
    "load_csv",
    "load_model",
    "partial_dependence",
    "predict_dataset",
    "run_replications",
    "save_csv",
    "save_model",
    "scenario_by_name",
    "split_by_groups",
    "summarize_groups",
    "variable_importance",
    "__version__",
]
