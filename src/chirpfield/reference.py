"""Slow references that the production paths are checked against.

Every function here is an oracle: `validation` and the test suite call it,
and no production path does, so each computation keeps one production
path in its own module.  Each oracle recomputes a production result by an
independent route:

- `noise_ser_numeric`: adaptive quadrature of the noise-driven error over
  the target gain's Gamma fit, the twin of analytic_ber's
  cylinder-function closed forms; its `q_mode` picks the closed form's
  two-exponential tail fit or the exact Gaussian tail.
- `interf_ser_conditional`: the full Gauss-Hermite double sum at one peak
  bound, with no interpolant, pruning or compressed chi rule, and
  `interf_ser_conditional_numeric`, its adaptive double integral over both
  gain amplitudes.  The interference sums always take the exact tail.
- `pieces_given_up`: the mass each piece of the interference interpolant
  gives up by leaving out or saturating terms, bounded afresh at the
  piece's ends over every term instead of inherited down the bisection.
- `psi_partial_sums`: the interferer's two partial sums by explicit
  summation, against `chi_bound_all_bins`, the closed-form sine-ratio
  bound at every bin, whose peak bin the production table
  `interference.chi_of_I_table` holds.
- `pcf_d`: the parabolic cylinder function itself, for identities that
  the log-domain `specfun.log_pcf_d` must meet.
- `dechirp_dft_direct`: a direct-sum DFT, the twin of
  `lora_phy.dechirp_dft`.
- `time_domain_bins`: the time-domain chain (chirps, interferer frames,
  noise taken to the time domain by an inverse FFT, dechirp and FFT) that
  `montecarlo.block_bins` replaces.

The analytic oracles share analytic_ber's private model helpers (the
noise slope and offset, the interferer fit, the staircase and the
double-sum terms), so each one tests the same model as the closed form.
This is the only module that imports scipy.integrate, inside the
functions that need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_ber import (
    AnalyticConfig,
    _conditional_sums,
    _double_sum_terms,
    _interferer_fit,
    _noise_slope_offset,
    _staircase,
)
from .interference import _sine_ratios
from .lora_phy import (
    LoRaParams,
    _base_chirp,
    build_interferer_frames,
    dechirp_dft,
    modulate_many,
)
from .montecarlo import BlockDraws, noise_std, target_frame
from .specfun import log_pcf_d, q_approx, q_exact

# ---------------------------------------------------------------------------
# Noise-driven branch
# ---------------------------------------------------------------------------


def _q_function(q_mode: str):
    if q_mode == "exact":
        return q_exact
    if q_mode == "approx":
        return q_approx
    raise ValueError(f"unknown q_mode {q_mode!r}")


def noise_ser_numeric(
    cfg: AnalyticConfig, detection: str, q_mode: str = "approx"
) -> float:
    """Adaptive-quadrature twin of the noise-driven closed forms.

    With q_mode="approx" (default) the integrand embeds the same
    two-exponential tail fit as the closed form, so the comparison
    isolates the cylinder-function reduction.  q_mode="exact" uses the
    true Gaussian tail to expose the modeling error of the fit itself.
    """
    from scipy import integrate

    slope, offset = _noise_slope_offset(cfg, detection)
    q_fn = _q_function(q_mode)
    fit = cfg.target_fit
    log_norm = fit.shape * math.log(fit.rate) - math.lgamma(fit.shape)

    def integrand(t):
        if t <= 0.0:
            return 0.0
        log_pdf = log_norm + (fit.shape - 1.0) * math.log(t) - fit.rate * t
        if log_pdf < -745.0:
            return 0.0
        return float(q_fn(slope * t - offset)) * math.exp(log_pdf)

    mid = fit.mean
    lo, _ = integrate.quad(integrand, 0.0, mid, epsabs=1e-14, epsrel=1e-10, limit=200)
    hi, _ = integrate.quad(integrand, mid, np.inf, epsabs=1e-14, epsrel=1e-10, limit=200)
    return lo + hi


# ---------------------------------------------------------------------------
# Interference-driven branch
# ---------------------------------------------------------------------------


def interf_ser_conditional(
    cfg: AnalyticConfig, case: str, detection: str, chi: float
) -> float:
    """Conditional interference-driven error probability at one peak bound.

    Non-coherent: the plain double sum.  Coherent: additionally averaged
    over the uniformly distributed phase mismatch by the cosine staircase.
    """
    cosines, shares = _staircase(detection, cfg.staircase_m)
    terms = _double_sum_terms(cfg, case)
    return float(shares @ np.clip(_conditional_sums(terms, chi * cosines), 0.0, 1.0))


def interf_ser_conditional_numeric(
    cfg: AnalyticConfig, case: str, detection: str, chi: float, phase_nodes: int = 64
) -> float:
    """Adaptive-quadrature twin of interf_ser_conditional.

    The double integral runs over both gain amplitudes; the coherent phase
    average uses Gauss-Legendre on a half period instead of the staircase,
    so every approximation of the closed-form path is replaced by an
    independent one.
    """
    from scipy import integrate

    scale = math.sqrt(cfg.snr_linear * cfg.params.K)
    target = cfg.target_fit
    interf_fit, power_domain = _interferer_fit(cfg, case)

    log_norm_t = target.shape * math.log(target.rate) - math.lgamma(target.shape)
    log_norm_i = interf_fit.shape * math.log(interf_fit.rate) - math.lgamma(
        interf_fit.shape
    )

    def target_pdf(u):
        return math.exp(log_norm_t + (target.shape - 1.0) * math.log(u) - target.rate * u)

    if power_domain:
        # amplitude density of a power-domain Gamma fit
        def interf_pdf(v):
            return 2.0 * v * math.exp(
                log_norm_i
                + (interf_fit.shape - 1.0) * math.log(v * v)
                - interf_fit.rate * v * v
            )

        interf_mean_amp = math.sqrt(interf_fit.mean)
    else:
        def interf_pdf(v):
            return math.exp(
                log_norm_i
                + (interf_fit.shape - 1.0) * math.log(v)
                - interf_fit.rate * v
            )

        interf_mean_amp = interf_fit.mean

    def conditional(multiplier: float) -> float:
        def inner(u, v):
            return float(q_exact(scale * (u - v * multiplier))) * target_pdf(u) * interf_pdf(v)

        # split each axis at the density mean so the adaptive rule sees the peak
        u_cut = target.mean
        v_cut = interf_mean_amp
        total = 0.0
        for u_lo, u_hi in ((0.0, u_cut), (u_cut, np.inf)):
            for v_lo, v_hi in ((0.0, v_cut), (v_cut, np.inf)):
                part, _ = integrate.dblquad(
                    inner, v_lo, v_hi, u_lo, u_hi, epsabs=1e-14, epsrel=1e-8
                )
                total += part
        return total

    if detection == "noncoherent":
        return conditional(chi)
    if detection == "coherent":
        nodes, weights = np.polynomial.legendre.leggauss(phase_nodes)
        theta = 0.5 * np.pi * (nodes + 1.0)
        vals = np.array([conditional(chi * math.cos(t)) for t in theta])
        return float((weights * vals).sum() * 0.5)  # mean over the half period
    raise ValueError(f"unknown detection {detection!r}")


def pieces_given_up(terms, pieces) -> tuple[np.ndarray, float]:
    """The mass each piece of `analytic_ber._interpolant` gives up, and the
    full double sum at its top multiplier, which the budget is a share of.

    terms are the point's _double_sum_terms.  A piece [left, right] that
    kept (live, saturated) gives up, for each term it left out, its value
    at right and, for each term it saturated, its shortfall from its
    weight at left: Q grows with the multiplier, so these bound what the
    piece drops anywhere on it.  Nothing cancels in the sum.
    """
    target, interf, weight = terms
    given_up = np.empty(len(pieces))
    for k, (left, right, _, (live, saturated)) in enumerate(pieces):
        left_out = np.ones(weight.size, dtype=bool)
        left_out[live] = left_out[saturated] = False
        given_up[k] = weight[left_out] @ q_exact(
            target[left_out] - interf[left_out] * right
        ) + weight[saturated] @ q_exact(interf[saturated] * left - target[saturated])
    top = float(_conditional_sums(terms, np.array([pieces[-1][1]]))[0])
    return given_up, top


# ---------------------------------------------------------------------------
# Interferer leakage and peak bounds
# ---------------------------------------------------------------------------


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


def chi_bound_all_bins(state: InterfererState, params: LoRaParams) -> np.ndarray:
    """Triangle-inequality upper bound on the leaked magnitude at every bin."""
    _check_state(state, params)
    K = params.K
    bins = np.arange(K)
    return (
        _sine_ratios(bins - state.i1, state.tau, K)
        + _sine_ratios(bins - state.i2, K - state.tau, K)
    ) / K


# ---------------------------------------------------------------------------
# Special functions and waveforms
# ---------------------------------------------------------------------------


def pcf_d(neg_order: float, argument: float) -> float:
    """Parabolic cylinder function D_{-omega}(z) for omega > 0, real z."""
    return math.exp(log_pcf_d(neg_order, argument))


def dechirp_dft_direct(received: np.ndarray, params: LoRaParams) -> np.ndarray:
    """Direct-sum DFT of the dechirped signal; slow reference for dechirp_dft."""
    received = np.asarray(received)
    if received.shape[-1] != params.K:
        raise ValueError("length mismatch")
    K = params.K
    n = np.arange(K)
    twiddle = np.exp(-2j * np.pi * np.outer(n, n) / K)
    return (received * np.conj(_base_chirp(params.sf))) @ twiddle


def time_domain_bins(
    draws: BlockDraws, params: LoRaParams, rng: np.random.Generator, snr_linear: float
) -> np.ndarray:
    """The bins of montecarlo.block_bins at one SNR, all rows at once, by
    the time-domain chain; the slow oracle for it.

    `rng` must stand where block_bins starts, e.g. a copy of the block's
    generator taken after `draw_block`: the whole (size, K) bin noise B is
    drawn from it in one call.  block_bins reads B as noise already in the
    target's phase frame, so the physical bin noise is B * exp(i*angle(h_eff)).
    Synthesises h_eff * chirp(c) + h_int * interferer frame + w, with the
    receiver noise w = K * base chirp * ifft(B * exp(i*angle(h_eff)))
    (per-sample variance 1/(snr * K)), then dechirps, transforms and
    rotates each row by exp(-i*angle(h_eff)) into the target's frame.  It
    holds up to five (size, K) complex arrays at once: 42 MB of peak for
    4,096 trials at SF 7, so it is for small blocks only.
    """
    K = params.K
    _, derotation = target_frame(draws.h_eff)
    bin_noise = rng.standard_normal((draws.c.size, 2 * K))
    bin_noise *= noise_std(snr_linear, K)
    received = np.fft.ifft(bin_noise.view(np.complex128) * derotation.conj()[:, None], axis=-1)
    received *= K * modulate_many(0, params)  # base chirp
    received += draws.h_eff[:, None] * modulate_many(draws.c, params)
    if draws.h_int is not None:
        frames = build_interferer_frames(draws.i1, draws.i2, draws.tau, params)
        received += draws.h_int[:, None] * frames
    bins = dechirp_dft(received, params)
    bins *= derotation[:, None]
    return bins
