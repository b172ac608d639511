"""Misaligned same-SF interferer frames and their cross-correlation bounds.

An interfering transmitter that is not symbol-synchronized with the target
contributes two partial symbols per target-symbol window: `i1` for the
first `tau` samples and `i2` for the rest.  After dechirping, the
interferer leaks into every bin; the leakage decomposes into two geometric
partial sums whose magnitudes follow Dirichlet-kernel (sine-ratio) laws.

The analysis works with a triangle-inequality upper bound `chi` on the
leaked magnitude, concentrated at its peak bin and parameterized by the
symbol difference I = i2 - i1 and the offset tau.  The Monte Carlo
simulator never touches these bounds; it runs the exact frames through the
demodulator, which keeps the two routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lora_phy import LoRaParams, _check_symbols, _chirps


@dataclass(frozen=True)
class InterfererState:
    """Two interfering symbols and the integer sample offset between them."""

    i1: int
    i2: int
    tau: int


def _check_state(state: InterfererState, params: LoRaParams) -> None:
    K = params.K
    if not (0 <= state.i1 < K and 0 <= state.i2 < K):
        raise ValueError("interferer symbols out of range")
    if not 0 <= state.tau <= K // 2:
        raise ValueError(f"offset must be in [0, {K // 2}], got {state.tau}")


def build_interferer_frames(
    i1: np.ndarray, i2: np.ndarray, tau: np.ndarray, params: LoRaParams
) -> np.ndarray:
    """Samples of misaligned interferers over one target-symbol window, one
    row per (i1, i2, tau); offsets may span the full symbol, [0, K)."""
    _check_symbols(i1, params.K)
    _check_symbols(i2, params.K)
    tau = np.asarray(tau)
    if tau.size and (tau.min() < 0 or tau.max() >= params.K):
        raise ValueError("offsets out of range")
    i1 = np.asarray(i1, dtype=np.int32)[:, None]
    i2 = np.asarray(i2, dtype=np.int32)[:, None]
    n = np.arange(params.K)
    return _chirps(np.where(n < tau[:, None], i1, i2), params.sf)


def psi_partial_sums(
    bin_index: int, state: InterfererState, params: LoRaParams
) -> tuple[complex, complex]:
    """The two geometric partial sums of the interferer's leakage into a bin.

    Computed by explicit summation; chi_bound_all_bins evaluates the
    matching closed-form sine-ratio magnitudes, so the two can cross-check
    each other.
    """
    K = params.K
    if not 0 <= bin_index < K:
        raise ValueError("bin index out of range")
    _check_state(state, params)
    head = np.arange(state.tau)
    tail = np.arange(state.tau, K)
    first = np.exp(2j * np.pi * head * (bin_index - state.i1) / K).sum() / K
    second = np.exp(2j * np.pi * tail * (bin_index - state.i2) / K).sum() / K
    return complex(first), complex(second)


def _sine_ratios(k: np.ndarray, length, K: int) -> np.ndarray:
    """|sin(pi*k*length/K) / sin(pi*k/K)| elementwise (k and length
    broadcast), with its limit `length` at k = 0 mod K."""
    num = np.sin(np.pi * k * length / K)
    den = np.sin(np.pi * k / K)
    ratio = np.abs(np.divide(num, den, out=np.zeros_like(num), where=den != 0))
    return np.where(k % K == 0, length, ratio)


def chi_bound_all_bins(state: InterfererState, params: LoRaParams) -> np.ndarray:
    """Triangle-inequality upper bound on the leaked magnitude at every bin."""
    _check_state(state, params)
    K = params.K
    bins = np.arange(K)
    return (
        _sine_ratios(bins - state.i1, state.tau, K)
        + _sine_ratios(bins - state.i2, K - state.tau, K)
    ) / K


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
