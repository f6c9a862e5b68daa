"""1D viscous heat-conducting gas dynamics in Lagrangian mass coordinates.

Subpackages: grid/problem (data model), calculus (primitive and averaging
operators), norms (computable norms and dual-norm majorants), dsl (field
expression language), solver (semi-implicit time stepper), twoscale
(oscillating data and cell averaging), homogenize (averaged problem and the
closed-form specific-volume reconstruction), studies (continuous-dependence
and homogenization-error rate studies), config and cli.
"""

from .grid import Grid, GasParams
from .problem import (BoundaryData, PerturbationSpec, ProblemSpec,
                      SolutionBundle, validate)
from .solver import SchemeParams, solve, diagnostics
from .twoscale import OscillationSpec
from .homogenize import TwoScaleProblem, solve_homogenized
from .studies import (ConvergenceTable, compute_delta, compute_E0, fit_rate,
                      run_homog_study, run_lipschitz_study, write_report)

__all__ = [
    "Grid", "GasParams", "BoundaryData", "PerturbationSpec", "ProblemSpec",
    "SolutionBundle", "validate", "SchemeParams", "solve", "diagnostics",
    "OscillationSpec",
    "TwoScaleProblem", "solve_homogenized", "ConvergenceTable",
    "compute_delta", "compute_E0", "fit_rate",
    "run_homog_study", "run_lipschitz_study", "write_report",
]
