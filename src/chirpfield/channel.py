"""Nakagami-m fading links, RIS phase configuration, and Gamma moment fits.

Every link magnitude is Nakagami(m, 1) (unit mean-square power) with an
independent uniform phase.  Two surface topologies are supported:

- shared surface ("a"): the surface is phased for the target user, so the
  interferer's reflections add incoherently;
- paired surfaces ("b"): each user has its own optimally phased surface.

`n_elements = 0` degenerates to the surface-free link everywhere, which
keeps the baselines on one code path.

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
            if getattr(self, name) <= 0:
                raise ValueError(f"shape parameter {name} must be positive")
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
class ChannelDraw:
    """One realization of all complex link gains.

    Arrays may carry a leading batch axis; element vectors have the element
    count on the last axis.  g_i is only present for the paired topology.
    """

    h_td: np.ndarray
    h_id: np.ndarray
    h_t: np.ndarray
    g_t: np.ndarray
    h_i: np.ndarray
    g_i: np.ndarray | None = None


@dataclass(frozen=True)
class RisPhases:
    """Per-element phase shifts; `interferer` only for the paired topology."""

    target: np.ndarray
    interferer: np.ndarray | None = None


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


def _complex_gain(shape: float, rng: np.random.Generator, size=None):
    mag = sample_nakagami(shape, rng, size)
    return mag * np.exp(2j * np.pi * rng.random(size))


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
        h_td=_complex_gain(config.m1, rng, size),
        h_id=_complex_gain(config.m2, rng, size),
        h_t=_complex_gain(config.m_ht, rng, vec),
        g_t=_complex_gain(config.m_gt, rng, vec),
        h_i=_complex_gain(config.m_hi, rng, vec),
        g_i=_complex_gain(config.m_gi, rng, vec) if case == "b" else None,
    )


def configure_phases(
    draw: ChannelDraw, mode: str, rng: np.random.Generator | None = None
) -> RisPhases:
    """Per-element surface phases for a draw.

    "optimal" co-phases every reflected target path with the direct target
    path (and, when the draw has a paired interferer surface, every
    reflected interferer path with the direct interferer path).  "blind"
    draws all phases uniformly at random.
    """
    if mode == "optimal":
        target = -(np.angle(draw.h_t) + np.angle(draw.g_t)) + np.angle(draw.h_td)[
            ..., None
        ]
        interferer = None
        if draw.g_i is not None:
            interferer = -(np.angle(draw.h_i) + np.angle(draw.g_i)) + np.angle(
                draw.h_id
            )[..., None]
        return RisPhases(target=target, interferer=interferer)
    if mode == "blind":
        if rng is None:
            raise ValueError("blind phase configuration needs a random stream")
        target = 2.0 * np.pi * rng.random(draw.h_t.shape)
        interferer = None
        if draw.g_i is not None:
            interferer = 2.0 * np.pi * rng.random(draw.h_i.shape)
        return RisPhases(target=target, interferer=interferer)
    raise ValueError(f"unknown phase mode {mode!r}")


def aggregate(draw: ChannelDraw, phases: RisPhases | None, case: str) -> EffectiveGains:
    """Combine direct and reflected paths into the two effective gains.

    case "a"/"blind": both users reflect off the target's surface phases;
    case "b": the interferer reflects off its own surface; "ris_free":
    direct links only (phases ignored).
    """
    if case == "ris_free":
        return EffectiveGains(h_eff=draw.h_td, h_int=draw.h_id)
    if phases is None:
        raise ValueError(f"case {case!r} requires surface phases")
    rot_t = np.exp(1j * phases.target)
    h_eff = (draw.h_t * rot_t * draw.g_t).sum(axis=-1) + draw.h_td
    if case in ("a", "blind"):
        h_int = (draw.h_i * rot_t * draw.g_t).sum(axis=-1) + draw.h_id
    elif case == "b":
        if draw.g_i is None or phases.interferer is None:
            raise ValueError("paired topology needs interferer links and phases")
        rot_i = np.exp(1j * phases.interferer)
        h_int = (draw.h_i * rot_i * draw.g_i).sum(axis=-1) + draw.h_id
    else:
        raise ValueError(f"unknown case {case!r}")
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
