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

Both branches take moment-matched Gamma fits of the combined target
amplitude and the combined interferer gain.  The default estimator matches
mean and variance; `paper_literal_estimator` switches the denominator from
(mu2 - mu1^2) to (mu2 - mu1) for side-by-side comparison with a published
variant of the fit.  A moment whose Gamma functions overflow (from m = 99.1
on) raises NumericError.

The Gauss-Hermite grids are centered and scaled to each fit's log-domain
peak (same rule order, numerically equivalent change of variables); plain
uncentered grids lose 1-3% accuracy once the target fit's shape parameter
reaches ~100, which the element counts used here routinely produce.

The interference term averages the conditional double sum f(x) over every
multiplier x: chi on the (offset, difference) grid, 8,320 values at SF 7
and 8.4 M at SF 12, and for coherent detection chi*cos of each staircase
angle as well.  f is smooth in x, so the double sum is evaluated only at
the Chebyshev points of an adaptive piecewise interpolant on
[min x, max x].  Every weight and interferer amplitude is >= 0, so f does
not decrease in x and its largest value on the range is f(max x), one
full double sum taken before any piece is sampled.  Each piece is
bisected until its trailing Chebyshev coefficients fall below the fixed
tolerance _CHEB_TOL * f(max x) (Trefethen, Approximation Theory and
Approximation Practice, ch. 3 and 8); a piece that cannot get there
raises NumericError.  The interpolant has to be piecewise: at -12 dB f
can span more than 200 decades over the range, and one global polynomial
of degree 64 misses the mean by up to 4e-4.

The interpolant is then averaged over a compressed quadrature of the chi
table rather than over every multiplier (Sommariva and Vianello,
"Compression of multivariate discrete measures and applications", Numer.
Funct. Anal. Optim. 36, 2015).  The table's distinct values, weighted by
their counts, are split into equal-width bins; a bin with more than
_RULE_NODES distinct values is replaced by the Gauss rule of its discrete
measure (Stieltjes recurrence, then Golub and Welsch, Math. Comp. 23,
1969), exact for polynomials of degree 2 * _RULE_NODES - 1 on the bin,
with positive weights and nodes inside it.  The bin count is the smallest
power of two whose bins are at most _RULE_BIN_SHARE of the interpolant's
narrowest piece wide, so each bin sees a near-polynomial; once every bin
is raw, the rule is the distinct table itself.  A staircase cosine only
scales the nodes, so one rule serves every angle, and the mean is one
pass per piece over the merged nodes of all angles.

The double sum's terms are built once per point, sorted by weight, and
the lightest of them, up to a total weight of _PRUNE_FRACTION *
_CHEB_TOL = 1e-16 of f(max x), are left out of every interpolant sample
(Jaeckel, "A note on multivariate Gauss-Hermite quadrature", 2005, prunes
product-rule nodes of negligible weight the same way).  Every weight is
>= 0 and Q lies in [0, 1], so a sample falls short of the full sum by at
most that mass, 1000 times below the tolerance the interpolant accepts.

Every closed form has an adaptive-quadrature twin in `reference`, the
oracle of `validate` and the tests.  The interference sums always take
the exact tail `q_exact`.

The two-exponential fit is only valid for positive tail arguments.  The
result of `ber` and `ber_no_interference` notes when more than
UNCALIBRATED_MASS_LIMIT of the target gain's Gamma fit lies below the fit's
zero (`uncalibrated_mass`), that is at SNRs below the calibrated range, and
when coherent detection runs below SF 7, where its threshold is not fitted.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebval, chebvander
from scipy.special import gammainc

from .channel import FadingConfig
from .interference import chi_of_I_table
from .lora_phy import LoRaParams
# q_approx only so that perfbench/spans.py can wrap it in this namespace
from .specfun import (
    NumericError,
    gamma_fn,
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
# its multiplier: degree of each piece, the share of the error's largest
# value its last _CHEB_TAIL coefficients must fall below, and the
# bisection depth at which a piece that still misses it is a numeric
# failure.  The tolerance must stay above the double sum's roundoff floor
# (about 1e-15), or bisection never ends.
_CHEB_DEGREE = 32
_CHEB_TOL = 1e-13
_CHEB_TAIL = 3
_CHEB_MAX_DEPTH = 24
# Share of that acceptance level that the double sum may give up by
# leaving out its lightest terms (see _double_sum_terms): 1e-16 of the
# largest value, below even the sum's own rounding (about 1e-15 of it).
_PRUNE_FRACTION = 1e-3
# Compressed quadrature of the peak-bound table: Gauss nodes per
# equal-width bin, and the bin width's largest share of the narrowest
# interpolant piece (see _chi_rule).  Bin edges sit on a fixed-point grid
# of _POSITION_BITS bits over [min chi, max chi].
_RULE_NODES = 8
_RULE_BIN_SHARE = 0.25
_POSITION_BITS = 62
_RULE_GROUP = 1 << 15

# Largest share of the target gain's Gamma fit that may lie where the
# tail fit's argument is negative (`uncalibrated_mass`) before the noise
# closed form gets a note.  Ratios of the closed form to the exact-tail numeric
# integral, measured at SF 7, 9 and 12, N = 15, 25 and 64, m = 2, both
# detections, -60..-16 dB: 1.05-1.29 up to a share of 1e-3 (the fit's own
# overshoot), 0.94-1.12 up to 0.03, 0.91 at 0.033, 0.79-0.83 at 0.056,
# 0.86-0.89 at 0.07-0.08, 0.78-0.79 at 0.15 and 0.63 or less from 0.3 on.
# 0.05 is where the underestimate passes 10%.  (A bare link, N = 0, m = 2,
# falls much further below a seeded simulation without a note, to 0.30
# at 0 dB and a share of 7e-4 at SF 7.  There the closed form is still 0.89
# of the exact-tail integral over the same fit: the error is the Gamma fit
# of the target's Nakagami gain law, which this share does not measure.)
UNCALIBRATED_MASS_LIMIT = 0.05

CASE_SHARED = "case_a"
CASE_PAIRED = "case_b"


# ---------------------------------------------------------------------------
# Moment formulas and Gamma fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaFit:
    """Shape/rate pair of a moment-matched Gamma distribution."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError("Gamma fit parameters must be positive and finite")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)


def _finite(moment: float, what: str) -> float:
    if not math.isfinite(moment):
        raise NumericError(f"{what} is not finite (Gamma function overflow)")
    return moment


def nakagami_moment(shape: float, order: float) -> float:
    """order-th raw moment of a Nakagami(shape, 1) magnitude."""
    if shape <= 0:
        raise ValueError("shape must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        moment = float(gamma_fn(shape + order / 2.0) / gamma_fn(shape) * shape ** (-order / 2.0))
    return _finite(moment, f"the order-{order} Nakagami moment at m = {shape}")


def cascade_moment(m_h: float, m_g: float, order: float) -> float:
    """order-th raw moment of the product of two independent Nakagami magnitudes."""
    delta = math.sqrt(m_h * m_g)
    with np.errstate(over="ignore", invalid="ignore"):
        moment = float(
            delta ** (-order)
            * gamma_fn(m_h + order / 2.0)
            * gamma_fn(m_g + order / 2.0)
            / (gamma_fn(m_h) * gamma_fn(m_g))
        )
    return _finite(moment, f"the order-{order} cascade moment at m = {m_h}, {m_g}")


def combined_amplitude_moments(
    m_direct: float, m_h: float, m_g: float, n_elements: int
) -> tuple[float, float]:
    """First two raw moments of |sum of co-phased reflections| + |direct|.

    The reflected sum is N i.i.d. per-element magnitude products; the
    cross-term count in the second moment is N*(N-1).
    """
    z1 = cascade_moment(m_h, m_g, 1)
    z2 = cascade_moment(m_h, m_g, 2)
    j1 = n_elements * z1
    j2 = n_elements * z2 + n_elements * (n_elements - 1) * z1 * z1
    d1 = nakagami_moment(m_direct, 1)
    d2 = nakagami_moment(m_direct, 2)
    return d1 + j1, d2 + j2 + 2.0 * d1 * j1


def incoherent_power_moments(m_direct: float, n_elements: int) -> tuple[float, float]:
    """First two raw moments of |direct + incoherent reflected sum|^2.

    The randomly phased reflected sum of N unit-power terms is treated as
    complex Gaussian with power N (central limit), i.e. its magnitude is
    Rayleigh with second moment N and fourth moment 2*N^2.  Mixed terms
    with an odd power of the Gaussian vanish by phase symmetry.
    """
    n = float(n_elements)
    mu1 = nakagami_moment(m_direct, 2) + n
    mu2 = nakagami_moment(m_direct, 4) + 2.0 * n * n + 4.0 * nakagami_moment(
        m_direct, 2
    ) * n
    return mu1, mu2


def _fit_from_moments(mu1: float, mu2: float, paper_literal: bool) -> GammaFit:
    denom = (mu2 - mu1) if paper_literal else (mu2 - mu1 * mu1)
    if denom <= 0:
        raise ValueError(
            f"moment-matching denominator is not positive (mu1={mu1}, mu2={mu2})"
        )
    return GammaFit(shape=mu1 * mu1 / denom, rate=mu1 / denom)


def fit_gamma_target(
    config: FadingConfig, paper_literal_estimator: bool = False
) -> GammaFit:
    """Gamma fit of the combined target amplitude (optimally phased surface)."""
    mu1, mu2 = combined_amplitude_moments(
        config.m1, config.m_ht, config.m_gt, config.n_elements
    )
    return _fit_from_moments(mu1, mu2, paper_literal_estimator)


def fit_gamma_interferer_caseA(
    config: FadingConfig, paper_literal_estimator: bool = False
) -> GammaFit:
    """Gamma fit of the squared interferer gain under the shared surface.

    Power-domain fit: the interferer's reflections are incoherent, so the
    squared aggregate is close to exponential for large N.
    """
    mu1, mu2 = incoherent_power_moments(config.m2, config.n_elements)
    return _fit_from_moments(mu1, mu2, paper_literal_estimator)


def fit_gamma_interferer_caseB(
    config: FadingConfig, paper_literal_estimator: bool = False
) -> GammaFit:
    """Gamma fit of the combined interferer amplitude under paired surfaces.

    Same construction as the target fit, with the interferer's shape
    parameters; identical to fit_gamma_target when all shapes are equal.
    """
    mu1, mu2 = combined_amplitude_moments(
        config.m2, config.m_hi, config.m_gi, config.n_elements
    )
    return _fit_from_moments(mu1, mu2, paper_literal_estimator)


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
    """Noise / interference error split and the combined bit error rate;
    `notes` names each calibration range of the noise part it lies outside."""

    p_noise: float
    p_interf: float
    ber: float
    clamp_events: int = 0
    notes: tuple[str, ...] = ()


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
        eps1, eps2 = _coherent_threshold_terms(cfg.params.sf)
        return math.sqrt(snr_k) / eps2, eps1 / eps2
    raise ValueError(f"unknown detection {detection!r}")


def _gamma_tail_closed(fit: GammaFit, slope: float, offset: float) -> float:
    """Closed form of  E[ q_approx(slope*T - offset) ]  for T ~ Gamma(fit).

    Each exponential tail term turns the expectation into
    int t^(shape-1) exp(-curv*t^2 - lin*t) dt, which is a parabolic
    cylinder function; evaluated in log space so the huge-exponent /
    tiny-cylinder-value products stay finite.  Each term is
    weight * E[exp(-a*(slope*T - offset)^2)], at most its weight, so the
    sum lies in [0, 1/3].
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
        total += weight * math.exp(log_term)
    return total


def uncalibrated_mass(fit: GammaFit, slope: float, offset: float) -> float:
    """Probability that the tail argument slope*T - offset is negative.

    The two-exponential fit q_approx is only valid for positive arguments;
    the closed form leans on it wherever T ~ Gamma(fit) lies below
    offset/slope, and this is the Gamma mass there.
    """
    return float(gammainc(fit.shape, fit.rate * offset / slope))


def _noise_ser(cfg: AnalyticConfig, detection: str) -> float:
    """Noise closed form of one detector."""
    return _gamma_tail_closed(cfg.target_fit, *_noise_slope_offset(cfg, detection))


def noise_ser_noncoherent(cfg: AnalyticConfig) -> float:
    """Noise-driven symbol error rate of the envelope detector."""
    return _noise_ser(cfg, "noncoherent")


def noise_ser_coherent(cfg: AnalyticConfig) -> float:
    """Noise-driven symbol error rate of the phase-compensated detector."""
    return _noise_ser(cfg, "coherent")


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


def _built_once(maxsize: int):
    """`lru_cache(maxsize)` that builds each key once when threads ask for
    it together: the first caller builds, and later callers of that key
    wait for its result instead of building a copy of their own (at SF 12
    the distinct table alone is 92 MB).  Callers of different keys build at
    the same time.  Keeps `cache_clear`.
    """

    def decorate(build):
        cached = lru_cache(maxsize)(build)
        guard = threading.Lock()
        key_locks: dict[tuple, threading.Lock] = {}

        @wraps(build)
        def get(*key):
            with guard:
                lock = key_locks.setdefault(key, threading.Lock())
            with lock:
                return cached(*key)

        get.cache_clear = cached.cache_clear
        return get

    return decorate


def _run_starts(ascending: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal elements."""
    return np.flatnonzero(np.r_[True, ascending[1:] != ascending[:-1]])


def _bin_positions(values: np.ndarray) -> np.ndarray:
    """Fixed-point positions of ascending values on [values[0], values[-1]].

    The bin of a value among 2**level equal-width bins is its position
    shifted right by _POSITION_BITS - level; the top value joins the last
    bin.  Bins of successive levels nest exactly.
    """
    unit = values - values[0]
    unit /= values[-1] - values[0]
    unit *= 2.0**_POSITION_BITS
    positions = unit.astype(np.int64)
    return np.minimum(positions, 2**_POSITION_BITS - 1, out=positions)


@_built_once(maxsize=8)
def _distinct_chi(params: LoRaParams) -> tuple[np.ndarray, np.ndarray]:
    """The distinct peak bounds of the (offset, difference) grid, ascending,
    and their counts in the table.  The sorted table is a temporary."""
    table = np.sort(chi_of_I_table(params), axis=None)
    starts = _run_starts(table)
    values = table[starts]
    counts = np.diff(starts, append=table.size)
    del table, starts
    values.flags.writeable = counts.flags.writeable = False
    return values, counts


def _bin_gauss_rules(t: np.ndarray, mass: np.ndarray, starts: np.ndarray):
    """_RULE_NODES-point Gauss rules of discrete measures, one per bin.

    t holds the points of every bin in [-1, 1] and mass their masses; bin b
    is t[starts[b]:starts[b + 1]] and has more than _RULE_NODES points.  The
    orthonormal Stieltjes recurrence gives each bin's Jacobi matrix, and
    its eigenvalues and first eigenvector components give the nodes and
    weights (Golub and Welsch).  Returns (nodes, weights), each
    (bins, _RULE_NODES).
    """
    sizes = np.diff(starts, append=t.size)
    total = np.add.reduceat(mass, starts)
    jacobi = np.zeros((starts.size, _RULE_NODES, _RULE_NODES))
    beta = np.zeros(starts.size)
    prev = np.zeros_like(t)
    cur = np.repeat(1.0 / np.sqrt(total), sizes)
    for k in range(_RULE_NODES):
        t_cur = t * cur
        alpha = np.add.reduceat(mass * t_cur * cur, starts)
        jacobi[:, k, k] = alpha
        if k + 1 == _RULE_NODES:
            break
        nxt = t_cur - np.repeat(alpha, sizes) * cur - np.repeat(beta, sizes) * prev
        beta = np.sqrt(np.add.reduceat(mass * nxt * nxt, starts))
        jacobi[:, k, k + 1] = jacobi[:, k + 1, k] = beta
        prev, cur = cur, nxt / np.repeat(beta, sizes)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, total[:, None] * vectors[:, 0, :] ** 2


def _binned_rule(values, counts, bins, lo: float, width: float):
    """Nodes and unnormalized weights of the rule for consecutive whole bins:
    bin b spans [lo + b*width, lo + (b+1)*width]."""
    starts = _run_starts(bins)
    sizes = np.diff(starts, append=values.size)
    rich = sizes > _RULE_NODES
    in_rich = np.repeat(rich, sizes)
    centers = lo + width * (bins[starts[rich]] + 0.5)
    t = (values[in_rich] - np.repeat(centers, sizes[rich])) / (0.5 * width)
    rich_starts = np.cumsum(sizes[rich]) - sizes[rich]
    t_nodes, rich_weights = _bin_gauss_rules(t, counts[in_rich].astype(float), rich_starts)
    return (
        np.concatenate([values[~in_rich], (centers[:, None] + 0.5 * width * t_nodes).ravel()]),
        np.concatenate([counts[~in_rich], rich_weights.ravel()]),
    )


@_built_once(maxsize=16)
def _chi_rule(params: LoRaParams, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Compressed quadrature of the peak-bound table on 2**level bins.

    Returns (nodes, weights), nodes ascending and weights summing to 1,
    such that the mean of a polynomial of degree < 2 * _RULE_NODES on each
    bin over the table equals sum(weights * g(nodes)).  A bin with at most
    _RULE_NODES distinct values keeps them, weighted by their counts.  The
    bins are taken in groups of about _RULE_GROUP values, which keeps the
    recurrence's arrays in cache.
    """
    values, counts = _distinct_chi(params)
    bins = _bin_positions(values)
    bins >>= _POSITION_BITS - level
    starts = _run_starts(bins)
    cuts = [*starts[np.flatnonzero(np.diff(starts // _RULE_GROUP, prepend=-1))], values.size]
    width = (values[-1] - values[0]) / 2**level
    parts = [
        _binned_rule(values[a:b], counts[a:b], bins[a:b], values[0], width)
        for a, b in zip(cuts, cuts[1:])
    ]
    nodes = np.concatenate([part[0] for part in parts])
    weights = np.concatenate([part[1] for part in parts]) / counts.sum()
    order = np.argsort(nodes, kind="stable")
    nodes, weights = nodes[order], weights[order]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _rule_level(pieces, chi_lo: float, chi_hi: float) -> int:
    """Bin level of the chi rule for an interpolant: the smallest whose bins
    are at most _RULE_BIN_SHARE of its narrowest piece wide.

    A staircase cosine scales a bin by at most 1, so the bound holds for
    every angle.  Bisection stops at depth _CHEB_MAX_DEPTH, so every piece
    is at least 2**-24 of the interpolant's range wide, and that range
    covers [chi_lo, chi_hi]; with _RULE_BIN_SHARE = 1/4 the level is at
    most 26, well inside the _POSITION_BITS of the bin positions.
    """
    narrowest = min(right - left for left, right, _ in pieces)
    level = math.ceil(math.log2((chi_hi - chi_lo) / (_RULE_BIN_SHARE * narrowest)))
    return max(level, 0)


def _rule_mean(pieces, nodes, weights, cosines, shares) -> float:
    """Mean of the piecewise interpolant, clipped to [0, 1], over the rule
    (nodes, weights) scaled by every staircase cosine and weighted by its
    share; one pass per piece over the merged, sorted multipliers."""
    x = np.multiply.outer(cosines, nodes).ravel()
    w = np.multiply.outer(shares, weights).ravel()
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    rights = [right for _, right, _ in pieces[:-1]]
    bounds = [0, *np.searchsorted(x, rights, side="right"), x.size]
    total = 0.0
    for (left, right, coeffs), start, stop in zip(pieces, bounds, bounds[1:]):
        t = (2.0 * x[start:stop] - left - right) / (right - left)
        total += float(w[start:stop] @ np.clip(chebval(t, coeffs), 0.0, 1.0))
    return total


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


def _double_sum_terms(cfg: AnalyticConfig, case: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The product grid of the two fitted gains as one flat list of terms.

    At multiplier x the double sum is
    sum_t weight[t] * Q(target[t] - interf[t]*x), with target and
    interferer amplitudes already scaled by sqrt(snr*K).  Returns
    (target, interf, weight), lightest weight first.
    """
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
    return scale * target_amp[row], scale * interf_amp[col], weight[order]


def _prune(terms, drop_mass: float):
    """The terms of _double_sum_terms without the longest prefix of lightest
    terms whose total weight is at most drop_mass: every weight is >= 0 and
    Q lies in [0, 1], so the pruned sum falls short of the full one by at
    most drop_mass."""
    first = int(np.searchsorted(np.cumsum(terms[2]), drop_mass, side="right"))
    return tuple(column[first:] for column in terms)


def _conditional_sums(terms, multipliers: np.ndarray) -> np.ndarray:
    """Gauss-Hermite double sum of P(interferer bin beats signal bin).

    One value per effective interferer multiplier (chi, or chi*cos for the
    coherent staircase), over the terms of _double_sum_terms, evaluated in
    chunks to bound memory, with Q written over its own arguments (a fresh
    array per pass costs more than the pass at these sizes).
    """
    target, interf, weight = terms
    target, interf = target[:, None], interf[:, None]
    out = np.empty(len(multipliers))
    for start in range(0, len(multipliers), _MULTIPLIER_CHUNK):
        args = np.multiply(interf, multipliers[start : start + _MULTIPLIER_CHUNK])
        np.subtract(target, args, out=args)
        out[start : start + _MULTIPLIER_CHUNK] = weight @ q_exact(args, out=args)
    return out


@lru_cache(maxsize=1)
def _chebyshev_transform() -> tuple[np.ndarray, np.ndarray]:
    """The interpolant's first-kind Chebyshev points on [-1, 1] and the
    matrix that maps values there to Chebyshev coefficients.

    Interpolation at these n points is a cosine transform: row k of the
    matrix holds (2 / n) * T_k at the points, and row 0 is halved.
    """
    nodes = chebpts1(_CHEB_DEGREE + 1)
    transform = chebvander(nodes, _CHEB_DEGREE).T * (2.0 / nodes.size)
    transform[0] *= 0.5
    nodes.flags.writeable = transform.flags.writeable = False
    return nodes, transform


def _piecewise_chebyshev(fn, lo: float, hi: float, tol: float, where: str):
    """Adaptive piecewise Chebyshev interpolant of fn on [lo, hi].

    A piece is bisected until its trailing coefficients fall below tol.
    Returns the pieces as (left, right, coefficients) in ascending order,
    and every sampled value of fn.
    """
    nodes, transform = _chebyshev_transform()
    pieces, samples = [], []
    stack = [(lo, hi, 0)]
    while stack:
        left, right, depth = stack.pop()
        values = fn(0.5 * (left + right) + 0.5 * (right - left) * nodes)
        samples.append(values)
        coeffs = transform @ values
        tail = float(np.max(np.abs(coeffs[-_CHEB_TAIL:])))
        if tail <= tol:
            pieces.append((left, right, coeffs))
        elif depth == _CHEB_MAX_DEPTH:
            raise NumericError(
                f"conditional-sum interpolant did not converge ({where}): "
                f"piece [{left!r}, {right!r}] still has trailing coefficients "
                f"{tail:.3g} against a tolerance of {tol:.3g}"
            )
        else:
            mid = 0.5 * (left + right)
            stack.append((mid, right, depth + 1))
            stack.append((left, mid, depth + 1))
    return pieces, np.concatenate(samples)


def _interpolant(cfg: AnalyticConfig, case: str, detection: str):
    """Pieces of the conditional sum's interpolant over every multiplier of
    one point, and the number of sampled double sums that left [0, 1]."""
    cosines, _ = _staircase(detection, cfg.staircase_m)
    values, _ = _distinct_chi(cfg.params)
    ends = np.outer(cosines, values[[0, -1]])
    where = (
        f"case={case}, detection={detection}, "
        f"SNR={10.0 * math.log10(cfg.snr_linear):.10g} dB"
    )
    lo, hi = float(ends.min()), float(ends.max())
    # f does not decrease in x, so f(hi) is its largest value on [lo, hi]
    full = _double_sum_terms(cfg, case)
    scale = float(_conditional_sums(full, np.array([hi]))[0])
    terms = _prune(full, _PRUNE_FRACTION * _CHEB_TOL * scale)
    pieces, samples = _piecewise_chebyshev(
        lambda x: _conditional_sums(terms, x), lo, hi, _CHEB_TOL * scale, where
    )
    clamped = int(np.count_nonzero(samples > 1.0) + np.count_nonzero(samples < 0.0))
    return pieces, clamped


def _interf_ser_diag(
    cfg: AnalyticConfig, case: str, detection: str
) -> tuple[float, int]:
    """Mean conditional interference error over the (offset, difference)
    grid and the staircase, and the number of sampled double sums that
    left [0, 1].

    The double sum is evaluated only at the Chebyshev points of the
    interpolant's pieces; the interpolant is averaged over the chi rule
    its narrowest piece calls for.
    """
    pieces, clamped = _interpolant(cfg, case, detection)
    values, _ = _distinct_chi(cfg.params)
    level = _rule_level(pieces, float(values[0]), float(values[-1]))
    nodes, weights = _chi_rule(cfg.params, level)
    mean = _rule_mean(pieces, nodes, weights, *_staircase(detection, cfg.staircase_m))
    return mean, clamped


# ---------------------------------------------------------------------------
# Combined bit error rate
# ---------------------------------------------------------------------------


def _bit_scale(params: LoRaParams) -> float:
    """Symbol-to-bit conversion factor (K/2)/(K-1)."""
    return (params.K / 2.0) / (params.K - 1.0)


def _calibration_notes(cfg: AnalyticConfig, detection: str) -> tuple[str, ...]:
    """The calibration ranges of the noise closed form that cfg lies outside."""
    notes = []
    if detection == "coherent" and cfg.params.sf < 7:
        notes.append(
            "the coherent noise approximation is fitted for sf >= 7; "
            f"sf={cfg.params.sf} is outside its calibration range"
        )
    mass = uncalibrated_mass(cfg.target_fit, *_noise_slope_offset(cfg, detection))
    if mass > UNCALIBRATED_MASS_LIMIT:
        notes.append(
            "the noise closed form is outside its calibrated domain: "
            f"a share of {mass:.3g} of the target gain lies where the tail fit's "
            f"argument is negative (limit {UNCALIBRATED_MASS_LIMIT}); "
            f"sf={cfg.params.sf}, detection={detection}, "
            f"SNR={10.0 * math.log10(cfg.snr_linear):.10g} dB"
        )
    return tuple(notes)


def _noise_part(cfg: AnalyticConfig, detection: str) -> float:
    # by the public names, which the benchmark's trace spans
    # (perfbench/spans.py) wrap in this namespace
    if detection == "noncoherent":
        return noise_ser_noncoherent(cfg)
    if detection == "coherent":
        return noise_ser_coherent(cfg)
    raise ValueError(f"unknown detection {detection!r}")


def _combine(
    cfg: AnalyticConfig, detection: str, p_noise: float, p_interf: float, clamps: int
) -> BerBreakdown:
    ber = _bit_scale(cfg.params) * (1.0 - (1.0 - p_interf) * (1.0 - p_noise))
    return BerBreakdown(p_noise, p_interf, ber, clamps, _calibration_notes(cfg, detection))


def ber(cfg: AnalyticConfig, case: str, detection: str) -> BerBreakdown:
    """Closed-form bit error rate for one topology and detector."""
    p_noise = _noise_part(cfg, detection)
    return _combine(cfg, detection, p_noise, *_interf_ser_diag(cfg, case, detection))


def ber_no_interference(cfg: AnalyticConfig, detection: str) -> BerBreakdown:
    """Closed-form bit error rate with the interferer absent."""
    return _combine(cfg, detection, _noise_part(cfg, detection), 0.0, 0)
