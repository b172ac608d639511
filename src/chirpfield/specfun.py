"""Numerical kernels for the closed-form error-rate engine.

Everything here is a pure function of its arguments.  Quadrature rules are
cached per order and their arrays are frozen, so they are safe to share
across threads.

Only scipy.special is imported.  The cylinder function is one numpy
trapezoid sum and the Gauss-Hermite rules come from numpy, so a production
run never loads scipy.integrate or scipy.linalg (which scipy.integrate and
scipy.special.roots_hermite pull in, along with scipy.optimize and
scipy.sparse); scipy.integrate is imported only by the `*_numeric` oracles
in `reference`, which also holds `pcf_d`, the cylinder function itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

# Constant term of the closed-form harmonic-number approximation.
_HARMONIC_CONST = 0.57722

# Trapezoid rule of log_pcf_d: largest step in s, peak-normalized exponent
# at which each side is cut, and the nodes per side beyond which the order
# is too small for the rule (omega below roughly 1e-3, whose left tail
# decays only like exp(omega*s)).
_PCF_MAX_STEP = 0.1
_PCF_FLOOR = -60.0
_PCF_MAX_NODES = 1 << 20


class NumericError(RuntimeError):
    """A numerical routine failed to reach its target accuracy."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight function exp(-x^2) on the real line.

    Weights sum to sqrt(pi); nodes are strictly increasing and symmetric
    about zero.
    """

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Return the Gauss-Hermite rule of the given order.

    The rule integrates exp(-x^2) * p(x) exactly for polynomials p of
    degree up to 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def q_exact(x, out=None):
    """Gaussian tail probability Q(x) = Phi(-x), one `scipy.special.ndtr` pass.

    For x above 1/sqrt(2), ndtr(-x) evaluates the same 0.5*erfc(x/sqrt(2))
    as the erfc form, without that form's two scaling passes.  With `out`
    (a float array shaped like x, which may be x itself) the result is
    written there and no array is allocated.
    """
    x = np.asarray(x, dtype=float)
    return special.ndtr(np.negative(x, out=out), out=out)


def q_approx(x, out=None):
    """Two-exponential fit of the Gaussian tail, exp(-x^2/2)/12 + exp(-2x^2/3)/4.

    Intended for x >= 0; q_approx(0) is exactly 1/3.  `out` is as for
    q_exact.
    """
    x = np.asarray(x, dtype=float)
    return np.add(np.exp(-0.5 * x * x) / 12.0, np.exp(-2.0 * x * x / 3.0) / 4.0, out=out)


def harmonic_approx(count: int) -> float:
    """Approximate the count-th harmonic number as ln(m) + 1/(2m) + 0.57722."""
    if count < 1:
        raise ValueError(f"harmonic index must be >= 1, got {count}")
    return math.log(count) + 0.5 / count + _HARMONIC_CONST


def gamma_fn(x):
    """Gamma function restricted to positive arguments."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("gamma_fn is only defined for positive arguments here")
    return special.gamma(x)


def log_pcf_d(neg_order: float, argument: float, scaled: bool = False) -> float:
    """Natural log of the parabolic cylinder function D_{-omega}(z), omega > 0.

    Evaluates the real-axis integral representation

        D_{-omega}(z) = exp(-z^2/4) / Gamma(omega)
                        * int_0^inf t^(omega-1) exp(-z*t - t^2/2) dt

    after the substitution t = e^s, which removes the endpoint singularity
    for omega < 1.  The integrand in s peaks at s* = log(u) with
    u = 2*omega / (z + sqrt(z^2 + 4*omega)) (for z < 0 the equal form
    (sqrt(z^2 + 4*omega) - z) / 2, so neither cancels), and relative to
    its peak it is exp(omega*(x - e) - u^2*e^2/2) with x = s - s* and
    e = expm1(x).  That function is entire and decays on both sides
    (like exp(omega*x) to the left, double-exponentially to the right),
    so the plain trapezoid rule on it converges geometrically in the step
    (Trefethen & Weideman, "The exponentially convergent trapezoidal
    rule", SIAM Review 56(3), 2014):

    - step h = min(sigma/4, 0.1), where sigma = 1/sqrt(omega + u^2) is the
      width given by the curvature at the peak;
    - each side is cut where the peak-normalized exponent falls below
      -60, found by doubling the distance outward from sigma.

    The result stays finite for large omega and for large |z|, where D
    itself would overflow or underflow a double.  With scaled=True the
    function returns z^2/4 + log D_{-omega}(z), the log of the integral
    over Gamma(omega), for callers that would add z^2/4 back: at large z
    both terms are huge and their sum would be lost to cancellation.

    Raises ValueError for omega <= 0 or non-finite z, and NumericError if
    a side needs more than _PCF_MAX_NODES nodes (omega below roughly 1e-3)
    or the sum is not positive and finite.
    """
    omega = float(neg_order)
    z = float(argument)
    if omega <= 0.0:
        raise ValueError(f"order must be positive, got {omega}")
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")

    root = math.hypot(z, 2.0 * math.sqrt(omega))
    peak = 2.0 * omega / (z + root) if z >= 0.0 else 0.5 * (root - z)
    peak_sq = peak * peak
    width = 1.0 / math.sqrt(omega + peak_sq)
    step = min(0.25 * width, _PCF_MAX_STEP)

    def exponent(x):
        e = np.expm1(x)
        return omega * (x - e) - 0.5 * peak_sq * e * e

    def reach(sign: float) -> int:
        distance = width
        while exponent(sign * distance) > _PCF_FLOOR:
            distance *= 2.0
            if distance > _PCF_MAX_NODES * step:
                raise NumericError(
                    "cylinder-function trapezoid needs more than "
                    f"{_PCF_MAX_NODES} nodes on one side: omega={omega}, z={z}"
                )
        return math.ceil(distance / step)

    left, right = reach(-1.0), reach(1.0)
    with np.errstate(under="ignore"):
        total = step * float(np.exp(exponent(step * np.arange(-left, right + 1))).sum())
    if not math.isfinite(total) or total <= 0.0:
        raise NumericError(
            f"cylinder-function trapezoid failed: omega={omega}, z={z}, value={total}"
        )
    # log of the peak value: omega*s* - z*u - u^2/2, with z*u = omega - u^2
    log_peak = omega * math.log(peak) - omega + 0.5 * peak_sq
    scale = 0.0 if scaled else -0.25 * z * z
    return scale - math.lgamma(omega) + log_peak + math.log(total)
