"""Exact tangent data of schemes of graded ideals in truncated coordinate
rings, with the Harrison/operadic machinery behind the derived structure
and independent sheaf-cohomology oracles."""

__version__ = "0.1.0"

from .cicech import CIData, ci_normal_cohomology, ci_twist_cohomology
from .complexes import ChainMap, CochainComplex, mapping_fiber
from .errors import (BudgetError, IdealTangentError, InternalCheckError,
                     NotAHomomorphismError, NotASubschemeError,
                     ValidationError)
from .fields import QQ, PrimeField, RationalField, field_from_spec
from .graded import (AlgebraModule, FiniteGradedAlgebra, HilbertData,
                     HomIdealPresentation, TruncatedCoordinateRing,
                     coordinate_ring_truncation, hilbert_data,
                     ideal_degree_piece, nilpotent_algebra, product_algebra,
                     veronese_truncation, zero_multiplication_algebra)
from .harrison import (HarrisonComplex, harrison_cohomology,
                       module_via_homomorphism)
from .idealpoints import (GradedSubspace, IdealPoint, QuotientData,
                          classical_tangent_dim, is_graded_ideal,
                          subscheme_to_point)
from .linalg import Echelon, Matrix
from .tangent import (SweepTable, TangentReport, derived_tangent, rmap_tangent,
                      segre_presentation, stabilization_sweep,
                      tangent_at_subscheme)

__all__ = [name for name in dir() if not name.startswith("_")]
