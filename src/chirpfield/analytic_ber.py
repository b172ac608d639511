"""Closed-form symbol- and bit-error rates for the surface-assisted link.

Two error mechanisms are evaluated separately and combined by a union
bound, then scaled by (K/2)/(K-1) to convert symbol errors to bit errors:

- noise-driven errors (a noise bin beating the signal bin): a Gamma-weighted
  Gaussian-tail integral with the two-exponential tail fit baked in, which
  reduces in closed form to parabolic cylinder functions;
- interference-driven errors (the interferer's peak bin beating the signal
  bin): a double Gauss-Hermite sum over log-domain grids of the two fitted
  gain distributions, with an additional cosine staircase for coherent
  detection, averaged over the interferer symbol difference and offset.

The Gauss-Hermite grids are centered and scaled to each fit's log-domain
peak (same rule order, numerically equivalent change of variables); plain
uncentered grids lose 1-3% accuracy once the target fit's shape parameter
reaches ~100, which the element counts used here routinely produce.

The interference term averages the conditional double sum f(x) over every
multiplier x: chi on the (offset, difference) grid, 8,320 values at SF 7
and 8.4 M at SF 12, and for coherent detection chi*cos of each staircase
angle as well.  f is smooth in x, so the double sum is evaluated only at
the Chebyshev points of an adaptive piecewise interpolant on
[min x, max x], and the interpolant is applied to every multiplier.  Each
piece is bisected until its trailing Chebyshev coefficients fall below a
fixed fraction of the largest |f| sampled (Trefethen, Approximation Theory
and Approximation Practice, ch. 3 and 8); a piece that cannot get there
raises NumericError.  The interpolant has to be piecewise: at -12 dB f
can span more than 200 decades over the range, and one global polynomial of
degree 64 misses the mean by up to 4e-4.

The double sum's terms are built once per point, as one list sorted by
weight with a running total, and each interpolant sample leaves out the
lightest terms whose total weight is at most _PRUNE_FRACTION *
_CHEB_TOL = 1e-16 of the largest |f| sampled so far (Jaeckel, "A note on
multivariate Gauss-Hermite quadrature", 2005, prunes product-rule nodes
of negligible weight the same way).  Every weight is >= 0 and Q lies in
[0, 1], so a sample falls short of the full sum by at most that mass,
1000 times below the tolerance the interpolant accepts; the first piece,
sampled before any |f| is known, keeps every term.

Every closed form has a `*_numeric` twin evaluated by adaptive quadrature
on the source integral, used as the test-suite oracle; only those twins
import scipy.integrate, inside the function.  The interference sums always
take the exact tail `q_exact`; only `noise_ser_numeric` has a `q_mode`,
whose "exact" measures the error of the two-exponential fit.

The two-exponential fit is only valid for positive tail arguments.  The
noise closed forms warn when more than UNCALIBRATED_MASS_LIMIT of the
target gain's Gamma fit lies below the fit's zero (`uncalibrated_mass`),
that is at SNRs below the calibrated range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts1, chebval
from scipy.special import gammainc

from .channel import (
    FadingConfig,
    GammaFit,
    fit_gamma_interferer_caseA,
    fit_gamma_interferer_caseB,
    fit_gamma_target,
)
from .interference import chi_of_I_table
from .lora_phy import LoRaParams
from .specfun import (
    NumericError,
    gauss_hermite,
    harmonic_approx,
    log_pcf_d,
    q_approx,
    q_exact,
)

# Weights and exponent coefficients of the two-exponential Gaussian-tail fit.
_TAIL_TERMS = ((1.0 / 12.0, 0.5), (0.25, 2.0 / 3.0))

_MULTIPLIER_CHUNK = 512

# Piecewise Chebyshev interpolant of the conditional interference error in
# its multiplier: degree of each piece, the relative size its last
# _CHEB_TAIL coefficients must fall below, and the bisection depth at
# which a piece that still misses it is a numeric failure.  The tolerance
# must stay above the double sum's roundoff floor (about 1e-15), or
# bisection never ends.
_CHEB_DEGREE = 32
_CHEB_TOL = 1e-13
_CHEB_TAIL = 3
_CHEB_MAX_DEPTH = 24
# Share of that acceptance level that the double sum may give up by
# leaving out its lightest terms (see _conditional_sums): 1e-16 of the
# largest |f|, below even the sum's own rounding (about 1e-15 of it).
_PRUNE_FRACTION = 1e-3
# Multipliers per interpolant evaluation; blocks that fit in cache run
# several times faster than one pass over a large table.
_EVAL_CHUNK = 32768

# Largest share of the target gain's Gamma fit that may lie where the
# tail fit's argument is negative (`uncalibrated_mass`) before the noise
# closed form warns.  Ratios of the closed form to the exact-tail numeric
# integral, measured at SF 7, 9 and 12, N = 15, 25 and 64, m = 2, both
# detections, -60..-16 dB: 1.05-1.29 up to a share of 1e-3 (the fit's own
# overshoot), 0.94-1.12 up to 0.03, 0.91 at 0.033, 0.79-0.83 at 0.056,
# 0.86-0.89 at 0.07-0.08, 0.78-0.79 at 0.15 and 0.63 or less from 0.3 on.
# 0.05 is where the underestimate passes 10%.  (A bare link, N = 0, is
# already below 0.84 at a share of 0.002: that is the fit's own error at
# small positive arguments, which this share does not measure.)
UNCALIBRATED_MASS_LIMIT = 0.05

CASE_SHARED = "case_a"
CASE_PAIRED = "case_b"


@dataclass(frozen=True)
class AnalyticConfig:
    """Inputs of one closed-form evaluation at a single average SNR.

    `snr_linear` is the average SNR  E_c / (N0 * K)  in linear units.  The
    interferer fit for the shared topology lives in the power domain, the
    paired-topology fit in the amplitude domain.
    """

    params: LoRaParams
    snr_linear: float
    target_fit: GammaFit
    interferer_power_fit: GammaFit | None = None
    interferer_amp_fit: GammaFit | None = None
    quadrature_order_v1: int = 70
    quadrature_order_v2: int = 70
    staircase_m: int = 20

    def __post_init__(self):
        if self.snr_linear <= 0:
            raise ValueError("average SNR must be positive")
        if self.quadrature_order_v1 < 1 or self.quadrature_order_v2 < 1:
            raise ValueError("quadrature orders must be >= 1")
        if self.staircase_m < 1:
            raise ValueError("staircase resolution must be >= 1")

    @classmethod
    def from_fading(
        cls,
        params: LoRaParams,
        fading: FadingConfig,
        snr_linear: float,
        paper_literal_estimator: bool = False,
        **kwargs,
    ) -> "AnalyticConfig":
        """Build the three Gamma fits from a fading configuration."""
        return cls(
            params=params,
            snr_linear=snr_linear,
            target_fit=fit_gamma_target(fading, paper_literal_estimator),
            interferer_power_fit=fit_gamma_interferer_caseA(
                fading, paper_literal_estimator
            ),
            interferer_amp_fit=fit_gamma_interferer_caseB(
                fading, paper_literal_estimator
            ),
            **kwargs,
        )


@dataclass(frozen=True)
class BerBreakdown:
    """Noise / interference error split and the combined bit error rate."""

    p_noise: float
    p_interf: float
    ber: float
    clamp_events: int = 0


# ---------------------------------------------------------------------------
# Noise-driven branch
# ---------------------------------------------------------------------------


def _coherent_threshold_terms(sf: int) -> tuple[float, float]:
    """Linear-fit constants of the max-of-Gaussians detection threshold."""
    eps1 = math.sqrt(0.5) * (1.161 + 0.2074 * sf)
    eps2 = math.sqrt(0.5 + 0.5 * (0.2775 - 0.0153 * sf))
    return eps1, eps2


def _noise_slope_offset(cfg: AnalyticConfig, detection: str) -> tuple[float, float]:
    """(slope, offset) of the tail argument slope*|H| - offset per detection."""
    snr_k = cfg.snr_linear * cfg.params.K
    if detection == "noncoherent":
        return math.sqrt(2.0 * snr_k), math.sqrt(
            2.0 * harmonic_approx(cfg.params.K - 2)
        )
    if detection == "coherent":
        if cfg.params.sf < 7:
            warnings.warn(
                "the coherent noise approximation is fitted for sf >= 7; "
                f"sf={cfg.params.sf} is outside its calibration range",
                stacklevel=4,
            )
        eps1, eps2 = _coherent_threshold_terms(cfg.params.sf)
        return math.sqrt(snr_k) / eps2, eps1 / eps2
    raise ValueError(f"unknown detection {detection!r}")


def _gamma_tail_closed(fit: GammaFit, slope: float, offset: float) -> float:
    """Closed form of  E[ q_approx(slope*T - offset) ]  for T ~ Gamma(fit).

    Each exponential tail term turns the expectation into
    int t^(shape-1) exp(-curv*t^2 - lin*t) dt, which is a parabolic
    cylinder function; evaluated in log space so the huge-exponent /
    tiny-cylinder-value products stay finite.
    """
    total = 0.0
    for weight, a in _TAIL_TERMS:
        curv = a * slope * slope
        lin = fit.rate - 2.0 * a * slope * offset
        root = math.sqrt(2.0 * curv)
        # lin^2/(8*curv) = z^2/4 for z = lin/root cancels the cylinder
        # function's exp(-z^2/4); the scaled form drops both, which keeps
        # the term accurate for the huge z of very low SNRs.
        log_term = (
            fit.shape * math.log(fit.rate)
            - fit.shape * math.log(root)
            - a * offset * offset
            + log_pcf_d(fit.shape, lin / root, scaled=True)
        )
        if log_term < 700.0:  # exp underflow to 0 is fine; overflow is not
            total += weight * math.exp(log_term)
        else:  # pragma: no cover - probabilities never reach here
            total += weight
    return min(max(total, 0.0), 1.0)


def uncalibrated_mass(fit: GammaFit, slope: float, offset: float) -> float:
    """Probability that the tail argument slope*T - offset is negative.

    The two-exponential fit q_approx is only valid for positive arguments;
    the closed form leans on it wherever T ~ Gamma(fit) lies below
    offset/slope, and this is the Gamma mass there.
    """
    return float(gammainc(fit.shape, fit.rate * offset / slope))


def _noise_ser(cfg: AnalyticConfig, detection: str) -> float:
    """Noise closed form of one detector; warns outside the calibrated domain."""
    slope, offset = _noise_slope_offset(cfg, detection)
    mass = uncalibrated_mass(cfg.target_fit, slope, offset)
    if mass > UNCALIBRATED_MASS_LIMIT:
        warnings.warn(
            "the noise closed form is outside its calibrated domain: "
            f"a share of {mass:.3g} of the target gain lies where the tail fit's "
            f"argument is negative (limit {UNCALIBRATED_MASS_LIMIT}); "
            f"sf={cfg.params.sf}, detection={detection}, "
            f"SNR={10.0 * math.log10(cfg.snr_linear):.10g} dB",
            stacklevel=3,
        )
    return _gamma_tail_closed(cfg.target_fit, slope, offset)


def noise_ser_noncoherent(cfg: AnalyticConfig) -> float:
    """Noise-driven symbol error rate of the envelope detector."""
    return _noise_ser(cfg, "noncoherent")


def noise_ser_coherent(cfg: AnalyticConfig) -> float:
    """Noise-driven symbol error rate of the phase-compensated detector."""
    return _noise_ser(cfg, "coherent")


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


def _log_grid(fit: GammaFit, order: int, power_domain: bool):
    """Gauss-Hermite grid of one fitted gain in the log domain.

    Returns (amplitudes, log_weights) such that
    E[g(amplitude)] ~= sum(exp(log_weights) * g(amplitudes)).  The grid is
    centered on the log-domain density peak and scaled to its curvature.
    For a power-domain fit the returned values are square roots, i.e.
    always amplitudes.
    """
    rule = gauss_hermite(order)
    center = math.log(fit.shape / fit.rate)
    width = math.sqrt(2.0 / fit.shape)
    logv = center + width * rule.nodes
    log_w = (
        np.log(rule.weights)
        + rule.nodes * rule.nodes
        + fit.shape * logv
        - fit.rate * np.exp(logv)
        + math.log(width)
        + fit.shape * math.log(fit.rate)
        - math.lgamma(fit.shape)
    )
    amplitude = np.exp(0.5 * logv) if power_domain else np.exp(logv)
    return amplitude, log_w


def _interferer_fit(cfg: AnalyticConfig, case: str) -> tuple[GammaFit, bool]:
    """(fit, power_domain) of the interferer gain for the requested topology."""
    if case == CASE_SHARED:
        if cfg.interferer_power_fit is None:
            raise ValueError("shared-surface evaluation needs the power-domain fit")
        return cfg.interferer_power_fit, True
    if case == CASE_PAIRED:
        if cfg.interferer_amp_fit is None:
            raise ValueError("paired-surface evaluation needs the amplitude fit")
        return cfg.interferer_amp_fit, False
    raise ValueError(f"unknown case {case!r}")


@lru_cache(maxsize=8)
def _sorted_chi(params: LoRaParams) -> np.ndarray:
    """Every peak bound of the (offset, difference) grid, ascending."""
    table = np.sort(chi_of_I_table(params), axis=None)
    table.flags.writeable = False
    return table


def _staircase(detection: str, staircase_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of the phase staircase and the share of the mean each carries.

    Non-coherent detection has the single multiplier chi itself.  The
    coherent staircase angles 2*pi*j/M, j = 1..M, are folded onto
    j = 0..M/2, since cos(2*pi*j/M) = cos(2*pi*(M-j)/M).
    """
    if detection == "noncoherent":
        return np.ones(1), np.ones(1)
    if detection == "coherent":
        j = np.arange(staircase_m // 2 + 1)
        shares = np.where((j == 0) | (2 * j == staircase_m), 1.0, 2.0) / staircase_m
        return np.cos(2.0 * np.pi * j / staircase_m), shares
    raise ValueError(f"unknown detection {detection!r}")


@dataclass(frozen=True)
class _DoubleSum:
    """Terms of the Gauss-Hermite double sum, lightest weight first.

    At multiplier x the sum is  sum_t weight[t] * Q(target[t] - interf[t]*x),
    with target and interferer amplitudes already scaled by sqrt(snr*K);
    mass[t] is the total weight of terms 0..t.
    """

    target: np.ndarray
    interf: np.ndarray
    weight: np.ndarray
    mass: np.ndarray


def _double_sum_terms(cfg: AnalyticConfig, case: str) -> _DoubleSum:
    """The product grid of the two fitted gains as one flat list of terms."""
    scale = math.sqrt(cfg.snr_linear * cfg.params.K)
    target_amp, target_logw = _log_grid(
        cfg.target_fit, cfg.quadrature_order_v1, power_domain=False
    )
    interf_fit, power_domain = _interferer_fit(cfg, case)
    interf_amp, interf_logw = _log_grid(
        interf_fit, cfg.quadrature_order_v2, power_domain=power_domain
    )
    weight = np.exp(target_logw[:, None] + interf_logw[None, :]).ravel()
    order = np.argsort(weight, kind="stable")
    row, col = np.divmod(order, interf_amp.size)
    weight = weight[order]
    return _DoubleSum(
        scale * target_amp[row], scale * interf_amp[col], weight, np.cumsum(weight)
    )


def _conditional_sums(
    terms: _DoubleSum, multipliers: np.ndarray, drop_mass: float = 0.0
) -> np.ndarray:
    """Gauss-Hermite double sum of P(interferer bin beats signal bin).

    One value per effective interferer multiplier (chi, or chi*cos for the
    coherent staircase), evaluated in chunks to bound memory, with Q
    written over its own arguments (a fresh array per pass costs more than
    the pass at these sizes).  The longest
    prefix of lightest terms whose total weight is at most drop_mass is
    left out: every weight is >= 0 and Q lies in [0, 1], so the result
    falls short of the full sum by at most drop_mass.  With drop_mass = 0
    it is the full sum.
    """
    first = int(np.searchsorted(terms.mass, drop_mass, side="right"))
    target = terms.target[first:, None]
    interf = terms.interf[first:, None]
    weight = terms.weight[first:]
    out = np.empty(len(multipliers))
    for start in range(0, len(multipliers), _MULTIPLIER_CHUNK):
        args = np.multiply(interf, multipliers[start : start + _MULTIPLIER_CHUNK])
        np.subtract(target, args, out=args)
        out[start : start + _MULTIPLIER_CHUNK] = weight @ q_exact(args, out=args)
    return out


def _piecewise_chebyshev(fn, lo: float, hi: float, where: str):
    """Adaptive piecewise Chebyshev interpolant of fn on [lo, hi].

    A piece is bisected until its trailing coefficients fall below
    _CHEB_TOL times the largest |fn| sampled so far.  fn(x, slack) may
    return values up to slack away from the true ones; slack is
    _PRUNE_FRACTION of that acceptance level, so 0 on the first piece.
    Returns the pieces as (left, right, coefficients) in ascending order,
    and every sampled value of fn.
    """
    nodes = chebpts1(_CHEB_DEGREE + 1)
    pieces, samples = [], []
    scale = 0.0
    stack = [(lo, hi, 0)]
    while stack:
        left, right, depth = stack.pop()
        values = fn(
            0.5 * (left + right) + 0.5 * (right - left) * nodes,
            _PRUNE_FRACTION * _CHEB_TOL * scale,
        )
        samples.append(values)
        scale = max(scale, float(np.max(np.abs(values))))
        coeffs = chebfit(nodes, values, _CHEB_DEGREE)
        tail = float(np.max(np.abs(coeffs[-_CHEB_TAIL:])))
        if tail <= _CHEB_TOL * scale:
            pieces.append((left, right, coeffs))
        elif depth == _CHEB_MAX_DEPTH:
            raise NumericError(
                f"conditional-sum interpolant did not converge ({where}): "
                f"piece [{left!r}, {right!r}] still has trailing coefficients "
                f"{tail:.3g} against a scale of {scale:.3g}"
            )
        else:
            mid = 0.5 * (left + right)
            stack.append((mid, right, depth + 1))
            stack.append((left, mid, depth + 1))
    return pieces, np.concatenate(samples)


def _piecewise_sum(pieces, x: np.ndarray) -> float:
    """Sum of the piecewise interpolant, clipped to [0, 1], over ascending x."""
    rights = np.array([right for _, right, _ in pieces[:-1]])
    bounds = [0, *np.searchsorted(x, rights, side="right"), len(x)]
    total = 0.0
    for (left, right, coeffs), start, stop in zip(pieces, bounds, bounds[1:]):
        for lo in range(start, stop, _EVAL_CHUNK):
            chunk = x[lo : min(lo + _EVAL_CHUNK, stop)]
            t = (2.0 * chunk - left - right) / (right - left)
            total += float(np.clip(chebval(t, coeffs), 0.0, 1.0).sum())
    return total


def _interf_ser_diag(
    cfg: AnalyticConfig, case: str, detection: str
) -> tuple[float, int]:
    """Mean conditional interference error over the (offset, difference)
    grid and the staircase, and the number of sampled double sums that
    left [0, 1].

    The double sum is evaluated only at the Chebyshev points of the
    interpolant's pieces; the interpolant is applied to every multiplier.
    """
    cosines, shares = _staircase(detection, cfg.staircase_m)
    chi = _sorted_chi(cfg.params)
    ends = np.outer(cosines, chi[[0, -1]])
    where = (
        f"case={case}, detection={detection}, "
        f"SNR={10.0 * math.log10(cfg.snr_linear):.10g} dB"
    )
    terms = _double_sum_terms(cfg, case)
    pieces, samples = _piecewise_chebyshev(
        lambda x, slack: _conditional_sums(terms, x, slack),
        float(ends.min()), float(ends.max()), where,
    )
    clamped = int(np.count_nonzero(samples > 1.0) + np.count_nonzero(samples < 0.0))
    total = 0.0
    for cosine, share in zip(cosines, shares):
        x = cosine * chi
        total += share * _piecewise_sum(pieces, x if cosine >= 0.0 else x[::-1])
    return total / chi.size, clamped


def interf_ser(cfg: AnalyticConfig, case: str, detection: str) -> float:
    """Interference-driven symbol error rate, averaged over offset and
    symbol difference (both uniform)."""
    return _interf_ser_diag(cfg, case, detection)[0]


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


# ---------------------------------------------------------------------------
# Combined bit error rate
# ---------------------------------------------------------------------------


def _bit_scale(params: LoRaParams) -> float:
    """Symbol-to-bit conversion factor (K/2)/(K-1)."""
    return (params.K / 2.0) / (params.K - 1.0)


def _combine(params: LoRaParams, p_noise: float, p_interf: float, clamps: int) -> BerBreakdown:
    ber = _bit_scale(params) * (1.0 - (1.0 - p_interf) * (1.0 - p_noise))
    return BerBreakdown(p_noise=p_noise, p_interf=p_interf, ber=ber, clamp_events=clamps)


def ber(cfg: AnalyticConfig, case: str, detection: str) -> BerBreakdown:
    """Closed-form bit error rate for one topology and detector."""
    if detection == "noncoherent":
        p_noise = noise_ser_noncoherent(cfg)
    elif detection == "coherent":
        p_noise = noise_ser_coherent(cfg)
    else:
        raise ValueError(f"unknown detection {detection!r}")
    p_interf, clamps = _interf_ser_diag(cfg, case, detection)
    return _combine(cfg.params, p_noise, p_interf, clamps)


def ber_no_interference(cfg: AnalyticConfig, detection: str) -> BerBreakdown:
    """Closed-form bit error rate with the interferer absent."""
    if detection == "noncoherent":
        p_noise = noise_ser_noncoherent(cfg)
    elif detection == "coherent":
        p_noise = noise_ser_coherent(cfg)
    else:
        raise ValueError(f"unknown detection {detection!r}")
    return _combine(cfg.params, p_noise, 0.0, 0)
