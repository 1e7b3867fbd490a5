"""Spectra and finite sections of one-dimensional discrete Schrodinger
operators with integer, rational and Sturmian potentials.

Exact band structure, Dirichlet point spectra and invertibility certificates
over Q; observed finite-section behaviour over floats; the two stay separate
so that every numerical claim has an exact counterpart to check against.
"""

from .fsm import (CutoffSequence, FsmReport, GridVector, ReferenceInconclusive,
                  SectionScheme, SectionSingularError, reference_solution,
                  run_fsm, solve_section, stability_scan)
from .limitops import (ApplicabilityReport, EssentialSpectrum, FredholmResult,
                       LimitOperator, essential_spectrum, fsm_applicability,
                       halfline_invertible, is_fredholm, limit_operators)
from .potential import (EventuallyPeriodicPotential, PeriodicPotential,
                        RandomPotential, SturmianPotential,
                        eventually_periodic, explicit, fibonacci_value,
                        periodic, potential_from_json, random_values, sturmian)
from .prng import CounterRng, counter_value
from .rings import RingSpec, RingValidation, validate_ring
from .scalars import FLOAT, INTEGER, RATIONAL, RegimeError, regime_of
from .spectral import (BandSet, DirichletSpectrum, SpectralStructureError,
                       bands, dirichlet_eigenvalues, smallest_singular_value,
                       truncation_spectrum)
from .transfer import (Discriminant, DirichletOrbit, TransferMatrix,
                       dirichlet_orbit, discriminant,
                       finite_section_determinant, monodromy,
                       monodromy_dirichlet_test, symbolic_monodromy,
                       transfer_product)
from .reproduce import REPRODUCTIONS, run_reproduction

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityReport", "BandSet", "CounterRng", "CutoffSequence",
    "DirichletOrbit", "DirichletSpectrum", "Discriminant",
    "EssentialSpectrum", "EventuallyPeriodicPotential", "FLOAT",
    "FredholmResult", "FsmReport", "GridVector", "INTEGER", "LimitOperator",
    "PeriodicPotential", "RATIONAL", "REPRODUCTIONS", "RandomPotential",
    "ReferenceInconclusive", "RegimeError", "RingSpec", "RingValidation",
    "SectionScheme", "SectionSingularError", "SpectralStructureError",
    "SturmianPotential", "TransferMatrix", "bands", "counter_value",
    "dirichlet_eigenvalues", "dirichlet_orbit", "discriminant",
    "essential_spectrum", "eventually_periodic", "explicit",
    "fibonacci_value", "finite_section_determinant", "fsm_applicability",
    "halfline_invertible", "is_fredholm",
    "limit_operators", "monodromy",
    "monodromy_dirichlet_test", "periodic",
    "potential_from_json", "random_values", "reference_solution",
    "regime_of", "run_fsm", "run_reproduction",
    "smallest_singular_value", "solve_section", "stability_scan", "sturmian",
    "symbolic_monodromy", "transfer_product", "truncation_spectrum",
    "validate_ring",
]
