"""Nakagami-m fading links: sampling, RIS phase configuration, aggregation.

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
sum reads no phases, and case "b" reads none at all.

Two routes compute the same gains.  `draw_channels` -> `configure_phases`
-> `aggregate` is the readable model: it draws every link vector, then
reduces them, holding about ten (trials, N) arrays at once, and it is the
oracle the tests and `validate` use.  `effective_gains`, which the Monte
Carlo runs, draws the same variates in the same order and reduces each
(trials, N) array as soon as the variates it needs are drawn, into
buffers it reuses, so the two agree to the last bit and leave the
generator at the same place.  The buffers live at once are four on the
shared surface (the target surface's magnitudes, theta and phases, and
the interferer's magnitudes), two on the paired one, and six under blind
phasing, whose theta comes last and so holds every other array until it
is drawn.  Phases that no sum reads (every phase in case "b") are drawn
into one scratch buffer and left unscaled; theta and the interferer's
phase add their terms left to right, as `configure_phases` and
`aggregate` do.

The moment formulas and Gamma fits of the closed forms live in
`analytic_ber`, so the Monte Carlo reaches none of them through here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _magnitudes(shape: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Nakagami(shape, 1) magnitudes in `out`: square roots of
    Gamma(shape, 1/shape) variates, each a standard Gamma variate times
    1/shape."""
    rng.standard_gamma(shape, out=out)
    out *= 1.0 / shape
    return np.sqrt(out, out=out)


def _phases(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Uniform phases in [0, 2*pi) in `out`."""
    rng.random(out=out)
    out *= 2.0 * np.pi
    return out


def _polar_gain(shape: float, rng: np.random.Generator, size=None) -> PolarGain:
    """Nakagami(shape, 1) magnitudes, then uniform phases, of shape `size`
    (a 0-d array each when `size` is None)."""
    size = () if size is None else size
    return PolarGain(_magnitudes(shape, rng, np.empty(size)), _phases(rng, np.empty(size)))


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


def _cophased_sum(reflected_mag, direct: PolarGain):
    """The reflected magnitudes' sum plus the direct link, all at its phase."""
    return (reflected_mag + direct.mag) * np.exp(1j * direct.phase)


def _scattered_sum(mag, phase, direct: PolarGain, scratch: np.ndarray):
    """sum_n mag_n e^{i phase_n} + direct, for element vectors on the last
    axis, with a cosine and a sine per term; overwrites `scratch`."""
    real = np.multiply(mag, np.cos(phase, out=scratch), out=scratch).sum(axis=-1)
    imag = np.multiply(mag, np.sin(phase, out=scratch), out=scratch).sum(axis=-1)
    return (real + 1j * imag) + _phasor(direct)


def _combine(h: PolarGain, theta, g: PolarGain, direct: PolarGain, co_phased: bool):
    """sum_n h_n e^{i theta_n} g_n + direct, for element vectors on the
    last axis; co_phased says every reflected term has the direct phase,
    and then theta is not read."""
    mag = h.mag * g.mag
    if co_phased:
        return _cophased_sum(mag.sum(axis=-1), direct)
    phase = h.phase + theta
    phase += g.phase
    return _scattered_sum(mag, phase, direct, np.empty_like(mag))


def aggregate(
    draw: ChannelDraw, phases: np.ndarray | None, case: str
) -> EffectiveGains:
    """Combine direct and reflected paths into the two effective gains.

    case "a": both users reflect off the target's surface; case "b": the
    interferer reflects off its own, co-phased surface; "blind": as "a",
    with phases that co-phase nothing.  Cases "a" and "b" take the phases
    of configure_phases(draw, "optimal") and sum the paths those co-phase
    as magnitudes times the direct link's phasor (see the module
    docstring); case "b" co-phases every path and reads no phases, so it
    may be given None.  "blind" sums every term with the given phases.  At
    N = 0 every case gives the direct links alone.
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


# The batch route.  Each case helper draws the variates, and the bits, of
# the three-stage route's draw, in its order, into (trials, N) buffers.


def _shared_gains(config, rng, h_td, h_id, shape):
    """Case "a": h_t, g_t and h_i, each a magnitude then a phase."""
    target = _magnitudes(config.m_ht, rng, np.empty(shape))
    theta = _phases(rng, np.empty(shape))  # h_t's phase, then theta
    g_mag = _magnitudes(config.m_gt, rng, np.empty(shape))
    target *= g_mag
    h_eff = _cophased_sum(target.sum(axis=-1), h_td)
    g_phase = _phases(rng, target)
    # theta = phi_direct - phi_h - phi_g, subtracted left to right
    np.subtract(h_td.phase[:, None], theta, out=theta)
    theta -= g_phase
    mag = _magnitudes(config.m_hi, rng, np.empty(shape))
    mag *= g_mag
    phase = _phases(rng, g_mag)
    phase += theta
    phase += g_phase
    return h_eff, _scattered_sum(mag, phase, h_id, theta)


def _paired_gains(config, rng, h_td, h_id, shape):
    """Case "b": h_t, g_t, h_i and g_i, each a magnitude then a phase.
    Both surfaces are co-phased, so no sum reads a phase."""
    mag, scratch = np.empty(shape), np.empty(shape)
    sums = []
    for m_h, m_g in ((config.m_ht, config.m_gt), (config.m_hi, config.m_gi)):
        _magnitudes(m_h, rng, mag)
        rng.random(out=scratch)
        mag *= _magnitudes(m_g, rng, scratch)
        sums.append(mag.sum(axis=-1))
        rng.random(out=scratch)
    return _cophased_sum(sums[0], h_td), _cophased_sum(sums[1], h_id)


def _blind_gains(config, rng, h_td, h_id, shape):
    """Case "blind": h_t, g_t and h_i, each a magnitude then a phase, and
    last the surface's random phases theta, which every sum reads."""
    target = _magnitudes(config.m_ht, rng, np.empty(shape))
    target_phase = _phases(rng, np.empty(shape))
    g_mag = _magnitudes(config.m_gt, rng, np.empty(shape))
    target *= g_mag
    g_phase = _phases(rng, np.empty(shape))
    mag = _magnitudes(config.m_hi, rng, np.empty(shape))
    mag *= g_mag
    phase = _phases(rng, g_mag)
    theta = _phases(rng, np.empty(shape))
    target_phase += theta
    target_phase += g_phase
    phase += theta
    phase += g_phase
    h_eff = _scattered_sum(target, target_phase, h_td, theta)
    return h_eff, _scattered_sum(mag, phase, h_id, theta)


_CASE_GAINS = {"a": _shared_gains, "b": _paired_gains, "blind": _blind_gains}


def effective_gains(
    config: FadingConfig, case: str, rng: np.random.Generator, size: int
) -> EffectiveGains:
    """The effective gains of `size` independent draws, case "a", "b" or
    "blind" as in `aggregate`.

    Bit for bit, and leaving `rng` where they leave it, this is
    aggregate(draw, phases, case) of draw = draw_channels(config, "b" if
    case == "b" else "a", rng, size) and phases = configure_phases(draw,
    "blind" if case == "blind" else "optimal", rng); see the module
    docstring for how it holds fewer (size, N) arrays.
    """
    if case not in _CASE_GAINS:
        raise ValueError(f"unknown case {case!r}")
    h_td = _polar_gain(config.m1, rng, size)
    h_id = _polar_gain(config.m2, rng, size)
    shape = (size, config.n_elements)
    h_eff, h_int = _CASE_GAINS[case](config, rng, h_td, h_id, shape)
    return EffectiveGains(h_eff=h_eff, h_int=h_int)
