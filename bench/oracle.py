"""Reference certificate: the pairwise alpha and lambda sweeps, written
independently of nlmarkov and run in fixed-size blocks so memory stays
bounded (tens of MB at 5 states, R=10).

    alpha_hat  = 1 - max over grid measures mu, nu and states x, y of
                 ||P_mu(x, .) - P_nu(y, .)||_1 / 2
    lambda_hat = max over grid measures mu != nu and states x of
                 ||P_mu(x, .) - P_nu(x, .)||_1 / ||mu - nu||_1

The kernels are rebuilt here from their formulas, so a later rewrite of
either the sweeps or kernel evaluation is checked against arithmetic it
does not share.
"""

from __future__ import annotations

import numpy as np

from workloads import MIX_LAM, Q2, birth_death_q5, blended_q5

ROW_BLOCK = 256
MEASURE_BLOCK = 32
NEGLIGIBLE = 1e-9


def grid(n: int, r: int) -> np.ndarray:
    """Every probability vector on n states with weights k/r."""
    def parts(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in parts(total - first, k - 1):
                yield (first, *rest)
    return np.array(list(parts(r, n)), dtype=float) / r


def _mixture(q, lam):
    return lambda w: (1.0 - lam) * q[None] + (lam / w.sum(1))[:, None, None] * w[:, None, :]


def _spec5(w):
    n = 5
    mats = np.empty((w.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                k = (i + j) % n
                mats[:, i, j] = np.maximum(np.minimum(0.1 + 0.2 * w[:, k], 0.3), 0.1)
        off = [j for j in range(n) if j != i]
        mats[:, i, i] = 1.0 - mats[:, i, off].sum(1)
    return mats


def _no_invariant(alpha, lam, m):
    def mats(w):
        cum = np.maximum(lam * np.cumsum(w, axis=1), alpha)
        base = np.concatenate([cum[:, :1], np.diff(cum, axis=1)], axis=1)
        out = np.repeat(base[:, None, :], m, axis=1)
        shift = 1.0 - cum[:, -1]
        idx = np.arange(m - 1)
        out[:, idx, idx + 1] += shift[:, None]
        out[:, m - 1, m - 1] += shift
        return out
    return mats


KERNELS = {
    "markov2": (2, lambda w: np.repeat(Q2[None], w.shape[0], axis=0)),
    "mixture2": (2, _mixture(Q2, MIX_LAM)),
    "mixture5": (5, _mixture(birth_death_q5(), MIX_LAM)),
    "blend5": (5, _mixture(blended_q5(), MIX_LAM)),
    "spec5": (5, _spec5),
    "noinv30": (30, _no_invariant(0.2, 0.8, 30)),
}


def certificate(kernel: str, resolution: int) -> tuple:
    """(alpha_hat, lambda_hat) of a named kernel by the pairwise sweep."""
    n, build = KERNELS[kernel]
    w = grid(n, resolution)
    mats = build(w)
    rows = mats.reshape(-1, n)
    worst = 0.0
    for s in range(0, rows.shape[0], ROW_BLOCK):
        d = np.abs(rows[s:s + ROW_BLOCK, None, :] - rows[None, :, :]).sum(axis=2)
        worst = max(worst, float(d.max()))
    lam = 0.0
    for s in range(0, w.shape[0], MEASURE_BLOCK):
        move = np.abs(mats[s:s + MEASURE_BLOCK, None] - mats[None]).sum(axis=3).max(axis=2)
        base = np.abs(w[s:s + MEASURE_BLOCK, None, :] - w[None, :, :]).sum(axis=2)
        ok = base > NEGLIGIBLE
        if ok.any():
            lam = max(lam, float((move[ok] / base[ok]).max()))
    return 1.0 - worst / 2.0, lam
