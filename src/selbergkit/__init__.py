"""selbergkit: exact symmetric-function engine and Selberg/AFLT verification harness."""

from .errors import PoleError
from .partitions import Bipartition, P, Partition

__version__ = "0.1.0"

__all__ = ["PoleError", "Partition", "Bipartition", "P"]
