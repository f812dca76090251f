"""Exact computation of E-series and conjectural mixed Poincare series of
character stacks of orientable and non-orientable surfaces, with brute-force
finite-field verification."""

from .exactalg import MPoly, RatFunc, u_to_q
from .symfunc import SymFunc, ple_exp, ple_log
from .macdonald import macdonald_P, modified_H, specialized_H
from .hlvkernel import hook_H, omega, hlv_HH
from .charstack import (OrbitSpec, SurfaceSpec, nonorientable, orientable,
                        is_generic, d_mu, eseries, mixed_series,
                        SeriesReport, CounterexampleReport,
                        counterexample_report)
from .ffcount import (FqOrbit, CountReport, EnumerationTooLarge,
                      count_nonorientable, count_orientable, gl_order)

__all__ = [
    "MPoly", "RatFunc", "u_to_q",
    "SymFunc", "ple_exp", "ple_log",
    "macdonald_P", "modified_H", "specialized_H",
    "hook_H", "omega", "hlv_HH",
    "OrbitSpec", "SurfaceSpec", "nonorientable", "orientable",
    "is_generic", "d_mu", "eseries", "mixed_series",
    "SeriesReport", "CounterexampleReport", "counterexample_report",
    "FqOrbit", "CountReport", "EnumerationTooLarge",
    "count_nonorientable", "count_orientable", "gl_order",
]
