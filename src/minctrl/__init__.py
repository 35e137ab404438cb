"""Sparse actuator selection for linear time-invariant systems.

Find small sets of state variables to drive so that ``dx/dt = Ax + Bu``
becomes controllable: greedy rank-maximization solvers with exact and
numeric rank backends, an exact compiler from hitting-set instances to
controllability instances, brute-force oracles for small problems, and a
seeded random-graph experiment harness.

Importing the package executes none of its modules. ``_lazy_module`` is the
one lazy loader: numpy (bound here as ``np``), ``_kernels`` and every
submodule named in ``_EXPORTS`` are registered in ``sys.modules``, and the
submodules as attributes of the package, and each runs on its first
attribute use. The
public names resolve through ``__getattr__``, so a process executes only the
modules its work touches: ``minctrl reduce`` runs ``matrices`` and
``reductions`` and never runs numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The CLI's parser reads these without executing ``greedy`` or ``experiments``,
# which take them from here.
RANK_BACKENDS = ("exact", "pbh")
DEFAULT_SEED = 1729

# public name -> the submodule that defines it
_EXPORTS = {
    "BackendPreconditionError": "errors",
    "EnumerationGuardError": "errors",
    "InternalVerificationError": "errors",
    "InvalidInputError": "errors",
    "MinctrlError": "errors",
    "NumericBackendError": "errors",
    "ExperimentConfig": "experiments",
    "ExperimentReport": "experiments",
    "TrialRecord": "experiments",
    "eigen_gap_filter": "experiments",
    "run_experiment": "experiments",
    "sample_er_digraph": "experiments",
    "SolveResult": "greedy",
    "TraceStep": "greedy",
    "controllability_rank": "greedy",
    "deterministic_greedy_vector": "greedy",
    "greedy_diagonal": "greedy",
    "randomized_greedy_vector": "greedy",
    "EigenSystem": "linalg",
    "left_eigensystem": "linalg",
    "pbh_controllability_rank": "linalg",
    "rank_exact": "linalg",
    "DenseMatrix": "matrices",
    "RationalMatrix": "matrices",
    "load_matrix": "matrices",
    "save_matrix": "matrices",
    "OracleResult": "oracles",
    "brute_force_hitting_set": "oracles",
    "brute_force_min_vector_support": "oracles",
    "HittingSetInstance": "reductions",
    "ReductionOutput": "reductions",
    "SymmetricExtensionOutput": "reductions",
    "build_reduction": "reductions",
    "build_symmetric_extension": "reductions",
    "load_instance": "reductions",
    "orthogonal_extension": "reductions",
}
_SUBMODULES = tuple(dict.fromkeys(_EXPORTS.values()))

__all__ = [*_EXPORTS, *_SUBMODULES]


def _lazy_module(name: str):
    """The module ``name``, executed on its first attribute use.

    After that use it is a plain module again, so later lookups cost
    nothing extra. A module that is already loaded is returned as it is.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


# Looked up now, so that a missing numpy fails ``import minctrl``.
np = _lazy_module("numpy")

# ``_kernels`` exports no public name but stays bound as ``minctrl._kernels``.
for _name in ("_kernels", *_SUBMODULES):
    globals()[_name] = _lazy_module(f"{__name__}.{_name}")
del _name


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
