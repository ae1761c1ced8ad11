"""Reference code for the tests: plain formulas that do not import the code
they check."""

from __future__ import annotations

import numpy as np

from hardyshift.tolerances import EPS, EXACT_TOL


def cgs2(rows: np.ndarray, threshold) -> tuple:
    """CGS2 over the rows in order, every row projected twice, w -= Q (Qᴴ w):
    the loop of ``subspaces._cgs2`` before it skipped the rows whose products
    are exact zeros.  Returns the frame matrix, the dropped row indices and r;
    when r < EPS/EXACT_TOL the pass is done again in extended precision, and r
    becomes the least singular value of the kept rows over their norms, if smaller."""
    threshold = np.broadcast_to(threshold, len(rows)).tolist()
    norms = np.linalg.norm(rows, axis=1)
    for dtype in (np.complex128, np.clongdouble):
        Q = np.empty(rows.shape, dtype)  # kept vectors as rows
        r, dropped, least = 0, [], 1.0
        for idx, g in enumerate(rows.astype(dtype, copy=False)):
            w = g.copy()
            for _ in range(2):
                w -= (Q[:r] @ w.conj()).conj() @ Q[:r]
            nrm = float(np.linalg.norm(w))
            if nrm < threshold[idx] or nrm == 0.0:
                dropped.append(idx)
            else:
                Q[r] = w / nrm
                least = min(least, nrm / norms[idx])
                r += 1
        if least >= EPS / EXACT_TOL:
            break
    else:
        kept = np.delete(np.arange(len(rows)), dropped)
        unit = rows[kept] / norms[kept, None]
        least = min(least, float(np.linalg.svd(unit, compute_uv=False)[-1]))
    return np.ascontiguousarray(Q[:r].T, dtype=np.complex128), tuple(dropped), least
