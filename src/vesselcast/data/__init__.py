from .types import VesselSample, WaterwayConfig, DENSITY_LEVELS
from .generate import (
    ProjectionError,
    project_geo_to_pixels,
    plan_vessels,
    generate_scenario,
    apply_dark_vessels,
)
from .io import DatasetFormatError, parse_dataset, read_dataset, write_dataset

__all__ = [
    "VesselSample",
    "WaterwayConfig",
    "DENSITY_LEVELS",
    "ProjectionError",
    "project_geo_to_pixels",
    "plan_vessels",
    "generate_scenario",
    "apply_dark_vessels",
    "DatasetFormatError",
    "parse_dataset",
    "read_dataset",
    "write_dataset",
]
