"""Nakagami-m fading links, RIS phase configuration, and Gamma moment fits.

Every link magnitude is Nakagami(m, 1) (unit mean-square power) with an
independent uniform phase.  Two surface topologies are supported:

- shared surface ("a"): the surface is phased for the target user, so the
  interferer's reflections add incoherently;
- paired surfaces ("b"): each user has its own optimally phased surface.

`n_elements = 0` degenerates to the surface-free link everywhere, which
keeps the baselines on one code path: `ris_free` is case "a" with N = 0.

Gains are drawn in polar form, a magnitude and a phase per link, and
aggregated without rebuilding the complex per-element gains.  The
shortcut is exact, not an approximation: optimal phasing sets element
n's phase to theta_n = phi_direct - phi_h,n - phi_g,n, so every reflected
term |h_n||g_n| e^{i(phi_h,n + theta_n + phi_g,n)} carries the direct
link's phase, and the co-phased sum is the real sum of the magnitudes
times the one phasor e^{i phi_direct}.  Only terms whose phases do not
align (the interferer's reflections off the target's surface, and every
term under blind phasing) are summed term by term, with a cosine and a
sine each.  `aggregate` reads which paths are co-phased from its case
alone: "a" and "b" expect optimal phases and "blind" expects random
ones, which is how every caller pairs them.  Phases are one array, the
target surface's: a paired interferer surface is always co-phased, so its
sum reads no phases.

The analytic engine represents the combined target amplitude and the
combined interferer gain by moment-matched Gamma distributions.  The
default estimator matches mean and variance; `paper_literal_estimator`
switches the denominator from (mu2 - mu1^2) to (mu2 - mu1) for
side-by-side comparison with a published variant of the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gamma_fn


@dataclass(frozen=True)
class FadingConfig:
    """Nakagami shape parameters of all six link classes plus element count.

    m1/m2: target/interferer direct links; m_ht/m_gt: target-side hops via
    the surface; m_hi/m_gi: interferer-side hops (m_gi only used by the
    paired topology).
    """

    m1: float
    m2: float
    m_ht: float
    m_gt: float
    m_hi: float
    m_gi: float
    n_elements: int

    def __post_init__(self):
        for name in ("m1", "m2", "m_ht", "m_gt", "m_hi", "m_gi"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"shape parameter {name} must be positive and finite")
        if self.n_elements < 0:
            raise ValueError("element count must be >= 0")

    @classmethod
    def uniform(cls, m: float, n_elements: int) -> "FadingConfig":
        """All six shape parameters equal; the usual experiment setting."""
        return cls(m, m, m, m, m, m, n_elements)


@dataclass(frozen=True)
class GammaFit:
    """Shape/rate pair of a moment-matched Gamma distribution."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("Gamma fit parameters must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)


@dataclass(frozen=True)
class PolarGain:
    """Link gains in polar form: Nakagami magnitudes and uniform phases
    in [0, 2*pi), of equal shape."""

    mag: np.ndarray
    phase: np.ndarray


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of all link gains, each a PolarGain.

    Arrays may carry a leading batch axis; element vectors have the element
    count on the last axis.  g_i is only present for the paired topology.
    """

    h_td: PolarGain
    h_id: PolarGain
    h_t: PolarGain
    g_t: PolarGain
    h_i: PolarGain
    g_i: PolarGain | None = None


@dataclass(frozen=True)
class EffectiveGains:
    """Aggregate complex gains seen by the demodulator."""

    h_eff: np.ndarray
    h_int: np.ndarray


def sample_nakagami(shape: float, rng: np.random.Generator, size=None):
    """Nakagami(shape, 1) magnitudes: sqrt of Gamma(shape, 1/shape) variates."""
    if shape <= 0:
        raise ValueError(f"shape must be positive, got {shape}")
    return np.sqrt(rng.gamma(shape, 1.0 / shape, size))


def _polar_gain(shape: float, rng: np.random.Generator, size=None) -> PolarGain:
    mag = sample_nakagami(shape, rng, size)
    return PolarGain(mag=mag, phase=np.multiply(2.0 * np.pi, rng.random(size)))


def draw_channels(
    config: FadingConfig, case: str, rng: np.random.Generator, size=None
) -> ChannelDraw:
    """Sample every link gain needed for the requested topology.

    `size=None` gives scalar direct links and (N,) element vectors;
    an integer size prepends a batch axis.
    """
    if case not in ("a", "b"):
        raise ValueError(f"case must be 'a' or 'b', got {case!r}")
    n = config.n_elements
    vec = n if size is None else (size, n)
    return ChannelDraw(
        h_td=_polar_gain(config.m1, rng, size),
        h_id=_polar_gain(config.m2, rng, size),
        h_t=_polar_gain(config.m_ht, rng, vec),
        g_t=_polar_gain(config.m_gt, rng, vec),
        h_i=_polar_gain(config.m_hi, rng, vec),
        g_i=_polar_gain(config.m_gi, rng, vec) if case == "b" else None,
    )


def configure_phases(
    draw: ChannelDraw, mode: str, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Per-element phases of the target surface for a draw, (..., N).

    "optimal" co-phases every reflected target path with the direct target
    path; "blind" draws every phase uniformly at random from `rng`.
    """
    if mode == "optimal":
        return draw.h_td.phase[..., None] - draw.h_t.phase - draw.g_t.phase
    if mode == "blind":
        if rng is None:
            raise ValueError("blind phase configuration needs a random stream")
        return 2.0 * np.pi * rng.random(draw.h_t.phase.shape)
    raise ValueError(f"unknown phase mode {mode!r}")


def _phasor(gain: PolarGain):
    return gain.mag * np.exp(1j * gain.phase)


def _combine(h: PolarGain, theta, g: PolarGain, direct: PolarGain, co_phased: bool):
    """sum_n h_n e^{i theta_n} g_n + direct, for element vectors on the
    last axis; co_phased says every reflected term has the direct phase,
    and then theta is not read."""
    mag = h.mag * g.mag
    if co_phased:
        return (mag.sum(axis=-1) + direct.mag) * np.exp(1j * direct.phase)
    phase = h.phase + theta
    phase += g.phase
    real = (mag * np.cos(phase)).sum(axis=-1)
    imag = (mag * np.sin(phase)).sum(axis=-1)
    return (real + 1j * imag) + _phasor(direct)


def aggregate(draw: ChannelDraw, phases: np.ndarray, case: str) -> EffectiveGains:
    """Combine direct and reflected paths into the two effective gains.

    case "a": both users reflect off the target's surface; case "b": the
    interferer reflects off its own, co-phased surface; "blind": as "a",
    with phases that co-phase nothing.  Cases "a" and "b" take the phases
    of configure_phases(draw, "optimal") and sum the paths those co-phase
    as magnitudes times the direct link's phasor (see the module
    docstring); "blind" sums every term with the given phases.  At N = 0
    every case gives the direct links alone.
    """
    if case not in ("a", "b", "blind"):
        raise ValueError(f"unknown case {case!r}")
    h_eff = _combine(draw.h_t, phases, draw.g_t, draw.h_td, case != "blind")
    if case == "b":
        if draw.g_i is None:
            raise ValueError("paired topology needs the interferer's surface links")
        h_int = _combine(draw.h_i, None, draw.g_i, draw.h_id, True)
    else:
        h_int = _combine(draw.h_i, phases, draw.g_t, draw.h_id, False)
    return EffectiveGains(h_eff=h_eff, h_int=h_int)


# ---------------------------------------------------------------------------
# Moment formulas and Gamma fits
# ---------------------------------------------------------------------------


def nakagami_moment(shape: float, order: float) -> float:
    """order-th raw moment of a Nakagami(shape, 1) magnitude."""
    if shape <= 0:
        raise ValueError("shape must be positive")
    return float(gamma_fn(shape + order / 2.0) / gamma_fn(shape) * shape ** (-order / 2.0))


def cascade_moment(m_h: float, m_g: float, order: float) -> float:
    """order-th raw moment of the product of two independent Nakagami magnitudes."""
    delta = math.sqrt(m_h * m_g)
    return float(
        delta ** (-order)
        * gamma_fn(m_h + order / 2.0)
        * gamma_fn(m_g + order / 2.0)
        / (gamma_fn(m_h) * gamma_fn(m_g))
    )


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
