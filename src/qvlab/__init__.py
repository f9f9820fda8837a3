"""qvlab: a pathwise quadratic-variation laboratory.

Simulates cadlag semimartingale-type paths on finite grids, measures
covariation along refining partitions, builds left-point Ito-sum
decompositions of nondifferentiable functions of the path, and runs the
call-surface and grid-calculus identity checks.  Every partition sum is
accumulated by one compensated (Kahan) loop in `qvlab._kernels`, in
ascending cell order, so results are deterministic bit for bit.
"""

from .calculus import ito_integral, jump_sum, qv_partition, zcqv_statistic
from .decomposition import decompose, run_suite, verify_zcqv
from .functions import builtin_library, make_function
from .generators import GeneratorSpec, generate, make_path
from .partitions import ExclusionSet, Partition, RefinementLadder, dyadic_partition, hitting_partition
from .paths import PathEnsemble, SamplePath, path_from_csv

__version__ = "0.1.0"

__all__ = [
    "SamplePath",
    "PathEnsemble",
    "path_from_csv",
    "GeneratorSpec",
    "generate",
    "make_path",
    "Partition",
    "ExclusionSet",
    "RefinementLadder",
    "dyadic_partition",
    "hitting_partition",
    "qv_partition",
    "jump_sum",
    "zcqv_statistic",
    "ito_integral",
    "decompose",
    "verify_zcqv",
    "run_suite",
    "builtin_library",
    "make_function",
    "__version__",
]
