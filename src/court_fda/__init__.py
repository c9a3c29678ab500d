"""Shot-chart functional data analysis.

Turns made/missed shot locations into smoothed densities on a shared
grid, decomposes the player population with a Gram-matrix multivariate
functional PCA, clusters players on the component scores with PAM
k-medoids, and provides partition metrics plus a bootstrap stability
check.
"""

from court_fda.bootstrap import StabilityReport, stability_study
from court_fda.cluster import Clustering, WeightScheme, distance_matrix, kmedoids, standardize_scores
from court_fda.density import DensityStack, build_samples, kde, kde_raw, silverman_bandwidth
from court_fda.fda import (
    MfpcaModel,
    ScoreMatrix,
    covariance_oracle,
    fit_mfpca,
    inner_product,
    load_model,
    mean_function,
    project_scores,
    reconstruct,
    save_model,
)
from court_fda.grids import GridSpec, grid_integral, trapezoid_weights
from court_fda.ingest import (
    CourtSpec,
    PlayerRecord,
    Position,
    ShotTable,
    exclude_impossible,
    filter_players,
    load_events,
)
from court_fda.metrics import Partition, adjusted_rand_index, confusion_matrix, silhouette
from court_fda.pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "CourtSpec",
    "Clustering",
    "DensityStack",
    "GridSpec",
    "MfpcaModel",
    "Partition",
    "PipelineConfig",
    "PlayerRecord",
    "Position",
    "ScoreMatrix",
    "ShotTable",
    "StabilityReport",
    "WeightScheme",
    "adjusted_rand_index",
    "build_samples",
    "confusion_matrix",
    "covariance_oracle",
    "distance_matrix",
    "exclude_impossible",
    "filter_players",
    "fit_mfpca",
    "grid_integral",
    "inner_product",
    "kde",
    "kde_raw",
    "kmedoids",
    "load_events",
    "load_model",
    "mean_function",
    "project_scores",
    "reconstruct",
    "run_pipeline",
    "save_model",
    "silhouette",
    "silverman_bandwidth",
    "stability_study",
    "standardize_scores",
    "trapezoid_weights",
]
