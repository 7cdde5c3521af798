"""fovlab: field-of-view estimation workbench for LiDAR-equipped agents."""

from .types import BevImage, FilterSpec, FovMask, GridSpec, PointCloud, Pose, ProbMap

__version__ = "0.1.0"

__all__ = [
    "BevImage", "FilterSpec", "FovMask", "GridSpec", "PointCloud", "Pose", "ProbMap",
    "__version__",
]
