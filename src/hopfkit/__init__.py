"""hopfkit: exact verification kernel for finite-dimensional Hopf algebra extensions."""

from ._kernel import KERNEL_NAME
from .exact_math import Cyclotomic, Matrix, root_of_unity

__version__ = "0.1.0"

__all__ = [
    "KERNEL_NAME",
    "Cyclotomic",
    "Matrix",
    "root_of_unity",
    "__version__",
]
