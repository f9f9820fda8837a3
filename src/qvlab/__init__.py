"""qvlab: a pathwise quadratic-variation laboratory.

Simulates cadlag semimartingale-type paths on finite grids, measures
covariation along dyadic refinements of the path grid (every level's cuts
are grid columns, and an exclusion set S is a mask on the grid), builds
left-point Ito-sum decompositions of nondifferentiable functions of the
path, and runs the call-surface and grid-calculus identity checks.  Each
quantity has one implementation, which works on a block of paths (a
PathEnsemble) at once; one path is a one-row block.  The suites'
included-cell and Ito sums are faithfully rounded by one error-free
summation kernel in `qvlab._kernels`, from each path's own terms, so
results are deterministic bit for bit.  The call-surface sums come from the
same kernel's prefix sums over each time's sorted values, so they depend on
the set of values, not on the path order.  qv's stopped, included and jump
sums are plain running sums in time order, one rule for all three, so the
continuous part of a pure-jump path is exactly zero once each cell holds at
most one jump.  Each named suite is one record in one table,
`decomposition.suites(cfg)`: the generator specs it draws, the measure it
takes on each block of them and its report keys.  `run_suite(name, cfg)`
runs a record from a `qvlab.config.ExperimentConfig`, and the call-surface
pass (`call_surface.run_identity`) takes its test function theta as a
`generators.Box` and its function as a `make_function` expression.

Importing the package loads none of its layers.  Each public name is
resolved from its submodule on first access (PEP 562), so a `qvlab`
process loads only the modules its command runs: where bytecode writing is
off, every imported source line is compiled again on every run.  For the
same reason no module uses the standard library's data classes (PEP 557),
whose decorator execs generated methods for each class at import (1.3 to
2.1 ms a class under Python 3.11, 15 to 24 ms of a command's start-up).  A
record is a typing.NamedTuple, one per quantity; the plain classes
PathEnsemble, RefinementLadder and GridFunction2D are the records that
check their fields.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "PathEnsemble": "paths",
    "GeneratorSpec": "generators",
    "generate": "generators",
    "make_path": "generators",
    "RefinementLadder": "partitions",
    "run_suite": "decomposition",
    "make_function": "functions",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
