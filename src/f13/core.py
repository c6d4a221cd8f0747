"""Conventions of the package, and the spatial permutation symbol.

Conventions used throughout the package:

* geometric units, G = c = 1; every quantity is a dimensionless 64-bit real;
* frame metric diag(-1, +1, +1, +1), so spatial frame indices (1..3) are
  raised and lowered with the Kronecker delta;
* spatial permutation symbol fixed by eps_{123} = +1;
* symmetrisation X_(ab) = (X_ab + X_ba)/2, antisymmetrisation
  X_[ab] = (X_ab - X_ba)/2.

A state is held as a jet, ``frame_equations.JetArrays``, single or batched;
the command line rejects every non-finite number it reads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EPS"]

# spatial permutation symbol, eps_{123} = +1
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0
EPS.setflags(write=False)
