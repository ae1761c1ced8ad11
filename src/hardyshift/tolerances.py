"""Default tolerances.

Coefficients are double-precision complex, so every verdict is taken
relative to an explicit tolerance.  The defaults below are deliberate
module-level constants: membership tests are the loosest, rank decisions
sit below them, and analyticity checks are the tightest since they compare
against exact zeros.
"""

from __future__ import annotations

MEMBERSHIP_TOL = 1e-8
RANK_TOL = 1e-9
ANALYTICITY_TOL = 1e-10

# Spacing of doubles at 1: rounding moves a direction kept with the fraction
# r of a generator's norm by about EPS / r (Higham, ch. 19; see subspaces).
EPS = 2.0 ** -52

# Used where a quantity is zero in exact arithmetic and only rounding noise
# is admissible.
EXACT_TOL = 1e-12

# is_inner never tests Θ*Θ = I more tightly than the rounding of its products.
INNER_TOL_FLOOR = 1e-14

# Reports print a value within this fraction of its scale as 0.0 (see
# report.py); no verdict reads it.
PRINT_FLOOR = 1e-13
