"""Cross-correlation bounds of a misaligned same-SF interferer.

An interfering transmitter that is not symbol-synchronized with the target
contributes two partial symbols per target-symbol window: `i1` for the
first `tau` samples and `i2` for the rest.  After dechirping, the
interferer leaks into every bin; the leakage decomposes into two geometric
partial sums whose magnitudes follow Dirichlet-kernel (sine-ratio) laws.

The analysis works with a triangle-inequality upper bound `chi` on the
leaked magnitude, concentrated at its peak bin and parameterized by the
symbol difference I = i2 - i1 and the offset tau; the per-bin bound and
the explicit partial sums that check it are oracles in `reference`.  The
Monte Carlo never imports these bounds, which keeps the routes independent.
"""

from __future__ import annotations

import numpy as np

from .lora_phy import LoRaParams


def _sine_ratios(k: np.ndarray, length, K: int) -> np.ndarray:
    """|sin(pi*k*length/K) / sin(pi*k/K)| elementwise (k and length
    broadcast), with its limit `length` at k = 0 mod K."""
    num = np.sin(np.pi * k * length / K)
    den = np.sin(np.pi * k / K)
    ratio = np.abs(np.divide(num, den, out=np.zeros_like(num), where=den != 0))
    return np.where(k % K == 0, length, ratio)


def chi_of_I_table(params: LoRaParams) -> np.ndarray:
    """Peak-bin bound on the full (tau, I) grid, I = i2 - i1 mod K; shape
    (K/2 + 1, K), read-only.

    Evaluated at the dominant bin (the one carrying the longer of the two
    partial symbols), where the second sine ratio sits at its maximum
    K - tau.
    """
    K = params.K
    taus = np.arange(K // 2 + 1)[:, None]
    shifts = np.arange(K)[None, :]
    table = (_sine_ratios(shifts, taus, K) + (K - taus)) / K
    table.flags.writeable = False
    return table
