"""Computational verification of simultaneous shift invariance and near
invariance for subspaces of the Hardy space on the disc.

The package models Hardy-space elements by degree-capped Taylor
coefficients: coefficient arrays from parse to report, and a subspace is
its orthonormal frame matrix.  ``TaylorPoly`` and ``VectorPoly`` are
built with their constructors and serve only the few one-element
functions that remain (the ``series`` arithmetic, ``t_m_apply``,
``vec_inner``, ``toeplitz_apply``, ``u_apply`` and ``hitt_decompose``).
It provides:

* the interleaving lift between vector-valued and scalar elements, one
  row permutation of column matrices (``veclift``),
* finite-band Laurent matrix algebra with inner-ness and analyticity
  verdicts, including the block shift matrices that realise higher shift
  powers under the lift (``laurent``),
* capped span frames and exact monomial exponent-set models with
  projections, intersections and complements (``subspaces``),
* operators as (power, star, symbol), definition-based invariance /
  near-invariance checkers and the pipelines (``invariance``),
* kernel-column extraction as one matrix, the whole-frame peel and its
  certification pipeline (``hitt``),
* finite products of disc automorphisms, their Toeplitz operators, model
  space bases, layer coordinates and subspace transfer (``blaschke``),
* deterministic report payloads from coefficient arrays (``report``) and a
  batch CLI over JSON problem files (``cli``).

Every verdict is computed from the definitions at an explicit tolerance
and carries a machine-checkable witness on FAIL; claimed results from the
literature are audited, not assumed.
"""

from .errors import (BudgetExceeded, DepthExhausted, DimensionMismatch,
                     HardyShiftError, NoConvergence, NotAMember, NotAnalytic,
                     NotASubspaceOf, OutOfCap, ParamOutOfRange, ZeroOnCircle)
from .series import TaylorPoly, coshift_pow, inner_product, mul, shift_pow
from .veclift import VectorPoly, lift, t_m_apply
from .laurent import (LaurentMatrix, adjoint_on_circle, build_sigma, diag_polys,
                      from_poly_grid, identity, is_analytic, is_inner, matmul,
                      toeplitz_adjoint_apply)
from .subspaces import (MonomialSubspace, SpanSubspace, intersect,
                        intersect_shifted, monomial_membership,
                        ortho_complement_within, orthonormalize, project)
from .invariance import (CheckReport, OperatorSpec, PipelineReport,
                         build_model_space, build_theta_range,
                         check_invariance, check_near_invariance,
                         verify_theorem_multi)
from .hitt import (CertifyReport, HittDecomposition, JMapResult, build_j_map,
                   certify_theta, extract_kernels, hitt_decompose)
from .blaschke import (BlaschkeProduct, WoldFrame, build_wold_frame,
                       power_expansion, tail_bound, taylor_expand,
                       toeplitz_apply, transfer_subspace, u_apply)

__version__ = "0.1.0"
