"""Chirp-spread-spectrum waveforms, dechirp demodulation, and detectors.

Conventions used throughout the package:

- one symbol is K = 2**sf complex baseband samples, each of magnitude
  1/sqrt(K), so the symbol energy is exactly 1;
- demodulation multiplies by the conjugate base chirp and takes a plain,
  unnormalized DFT.  A unit-gain channel then puts exactly 1.0 in the
  transmitted symbol's bin, and per-sample noise of variance N0 yields
  per-bin noise of variance N0.  (A library FFT with 1/K or 1/sqrt(K)
  scaling would silently break every SNR calibration in the package.)
- detector ties are broken toward the lowest bin index, and the
  detectors and `modulate_many` work on any batch shape, a single
  symbol included, with symbols or bins on the last axis.

Synthesis rounds no phase before reducing it.  Sample n of symbol c is
sqrt(1/K) * exp(2*pi*i*(n**2/(2K) - n/2 + c*n/K)), and that phase is pi/K
times the integer j = n**2 - K*n + 2*c*n.  Since the phase is a multiple
of pi/K, j only matters mod 2K, so `_chirps` reduces j mod 2K in exact
integer arithmetic and evaluates sqrt(1/K) * exp(i*pi*j/K) from it.  Every
symbol, interferer frame and the base chirp itself come out of this one
kernel.  Only the time-domain oracle synthesises chirps, so nothing of it
is cached.

The Monte Carlo builds its bins in the dechirped domain instead (the
dechirp-then-DFT view of Vangelista, IEEE SPL 24(12), 2017).  Sample n of
symbol c times the conjugate base chirp is exactly (1/K) *
exp(2*pi*i*c*n/K): the quadratic phase cancels, so a symbol dechirps to a
pure tone that the DFT puts, with weight 1, in bin c alone.  `_tones` reads
these from a cached table of the K roots of unity scaled by 1/K, at the
intp index c*n & (K - 1); it is the dechirped counterpart of `_chirps`.
Since per-sample noise of variance N0 gives per-bin noise of variance N0
(see above), and white circular Gaussian noise keeps its law under the
dechirp and the DFT, the Monte Carlo draws its receiver noise directly in
the bins and transforms only the interferer's tones.  It builds them in
the target's phase frame (rotated by exp(-i*angle(h_eff))), which is what
`detect_coherent` expects.  `reference` runs `dechirp_dft(_chirps(...))`,
with the same bin noise taken to the time domain by `np.fft.ifft`, as its
time-domain oracle, and rotates its bins into the same frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_POPCOUNT_DTYPE = np.int64


@dataclass(frozen=True)
class LoRaParams:
    """Spreading factor of one chirp-spread-spectrum link."""

    sf: int

    def __post_init__(self):
        if not 2 <= self.sf <= 12:
            raise ValueError(f"spreading factor must be in [2, 12], got {self.sf}")

    @property
    def K(self) -> int:
        """Symbol length in samples, 2**sf."""
        return 1 << self.sf


def _chirps(symbols: np.ndarray, sf: int) -> np.ndarray:
    """Modulated samples for symbol indices that broadcast against the
    sample axis: shape (..., 1) gives whole symbols, (..., K) gives a
    symbol per sample.  Indices must already lie in [0, K)."""
    K = 1 << sf
    n = np.arange(K)
    # 2n is int64 before it meets the symbols, so a narrow dtype cannot wrap
    j = (n * n - K * n + 2 * n * np.asarray(symbols)) % (2 * K)
    return np.sqrt(1.0 / K) * np.exp(1j * np.pi * j / K)


@lru_cache(maxsize=16)
def _tone_table(sf: int) -> np.ndarray:
    """The K roots of unity scaled by 1/K; entry j is exp(2*pi*i*j/K) / K."""
    K = 1 << sf
    roots = np.exp(2j * np.pi * np.arange(K) / K) / K
    roots.flags.writeable = False
    return roots


def _tones(symbols: np.ndarray, sf: int) -> np.ndarray:
    """Dechirped samples (1/K) * exp(2*pi*i*c*n/K) for intp symbol indices
    that broadcast against the sample axis, as in `_chirps`.  Indices must
    already lie in [0, K)."""
    K = 1 << sf
    index = symbols * np.arange(K)
    index &= K - 1
    return _tone_table(sf).take(index)


def _check_symbols(symbols, K: int) -> None:
    symbols = np.asarray(symbols)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= K):
        raise ValueError(f"symbol values must be in [0, {K})")


def _base_chirp(sf: int) -> np.ndarray:
    return _chirps(0, sf)


def modulate_many(symbols: np.ndarray, params: LoRaParams) -> np.ndarray:
    """Baseband samples of integer symbol values, one (K,) row per symbol
    (a single symbol gives one row); every sample has magnitude 1/sqrt(K)."""
    symbols = np.asarray(symbols)
    _check_symbols(symbols, params.K)
    return _chirps(symbols[..., None], params.sf)


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
    i1 = np.asarray(i1)[:, None]
    i2 = np.asarray(i2)[:, None]
    n = np.arange(params.K)
    return _chirps(np.where(n < tau[:, None], i1, i2), params.sf)


def dechirp_dft(received: np.ndarray, params: LoRaParams) -> np.ndarray:
    """Dechirp and DFT; returns one complex value per candidate symbol bin.

    Accepts a single length-K vector or a batch with symbols on the last
    axis.  The DFT is a plain sum (no normalization), see module docstring.
    """
    received = np.asarray(received)
    if received.shape[-1] != params.K:
        raise ValueError(
            f"expected {params.K} samples on the last axis, got {received.shape[-1]}"
        )
    return np.fft.fft(received * np.conj(_base_chirp(params.sf)), axis=-1)


def detect_noncoherent(bins: np.ndarray):
    """Index of the largest bin magnitude (lowest index wins ties).

    Compares squared magnitudes re**2 + im**2, which order the bins as
    their magnitudes do, so no square root is taken.
    """
    bins = np.asarray(bins)
    power = np.square(bins.real)
    power += np.square(bins.imag)
    return power.argmax(axis=-1)


def detect_coherent(bins: np.ndarray):
    """Index of the largest real part (lowest index wins ties).

    The bins must be in the target's phase frame: rotated by the negated
    target-channel phase, which is coherent detection with perfect phase
    compensation.  `montecarlo.block_bins` builds them in that frame.
    """
    return np.asarray(bins).real.argmax(axis=-1)


def count_bit_errors_many(sent: np.ndarray, detected: np.ndarray, sf: int) -> np.ndarray:
    """Hamming distances between the sf-bit representations of paired symbols."""
    sent = np.asarray(sent, dtype=_POPCOUNT_DTYPE)
    detected = np.asarray(detected, dtype=_POPCOUNT_DTYPE)
    K = 1 << sf
    if sent.size and (
        sent.min() < 0 or sent.max() >= K or detected.min() < 0 or detected.max() >= K
    ):
        raise ValueError("symbols out of range for the given spreading factor")
    return np.bitwise_count(np.bitwise_xor(sent, detected)).astype(np.int64)
