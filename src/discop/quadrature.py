"""Radially weighted quadrature on the unit disc and the refinement driver.

Measure conventions used throughout the library:

* ``dA`` is normalized area measure on the unit disc (total mass 1).
* ``dA_s = (s+1) (1-|z|^2)^s dA`` for s > -1, normalized so that it is a
  probability measure; the constant ``c_s = s + 1`` is stored on the rule.

The radial direction substitutes t = r^2, turning the disc integral into
``int_0^1 (1-t)^s h(t) dt`` handled by Gauss-Jacobi nodes for the weight
(1-t)^s; this is exact for integrands polynomial in t of degree
<= 2*n_rad - 1 and absorbs the boundary weight singularity for s in (-1, 0).
The angular direction is the uniform M-point rule, exact for trigonometric
polynomials of degree <= M - 1.

The weight endpoint s = -1 is rejected: the weight is then non-integrable
pointwise and the corresponding limit space is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParamError


@lru_cache(maxsize=256)
def _jacobi_01(sigma: float, n_rad: int):
    """Nodes/weights for int_0^1 (1-t)^sigma h(t) dt on (0,1)."""
    from scipy.special import roots_jacobi  # loaded by the first rule, not by import discop

    x, w = roots_jacobi(n_rad, sigma, 0.0)
    t = 0.5 * (x + 1.0)
    wt = w * 0.5 ** (sigma + 1.0)
    t.setflags(write=False)
    wt.setflags(write=False)
    return t, wt


@dataclass(frozen=True, eq=False)
class DiscRule:
    """Quadrature rule for the probability measure dA_sigma on the disc.

    ``radial_w`` are the weights of the radial nodes t against (1-t)^sigma dt
    on (0,1); ``nodes``/``weights`` are the flattened disc nodes
    sqrt(t) e^{i theta} with weights summing to 1 (the rule integrates the
    constant 1 exactly).
    """

    radial_w: np.ndarray
    normalization: float
    nodes: np.ndarray
    weights: np.ndarray


def build_disc_rule(sigma: float, n_rad: int, n_ang: int) -> DiscRule:
    if sigma <= -1.0:
        raise ParamError(f"weight exponent must be > -1, got {sigma:g}")
    if n_rad < 2:
        raise ParamError("need at least 2 radial nodes")
    if n_ang < 4:
        raise ParamError("need at least 4 angular nodes")
    t, wt = _jacobi_01(float(sigma), int(n_rad))
    c = sigma + 1.0
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    nodes = (np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (c * wt[:, None] / n_ang * np.ones(n_ang)[None, :]).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return DiscRule(radial_w=wt, normalization=c, nodes=nodes, weights=weights)


def integrate_disc(rule: DiscRule, g):
    """Weighted nodal sum of g over the disc rule (deterministic order)."""
    vals = np.asarray(g(rule.nodes))
    if not np.all(np.isfinite(vals)):
        raise ConvergenceError("integrand is non-finite at a quadrature node")
    return np.sum(rule.weights * vals)


@dataclass(frozen=True)
class QuadratureSettings:
    """Refinement driver parameters.

    ``refine_until`` multiplies both counts by ``refinement_factor`` per step
    and stops when the successive relative change drops to ``target_rel_tol``.
    """

    radial_count: int = 32
    angular_count: int = 128
    refinement_factor: int = 2
    target_rel_tol: float = 0.05
    max_refinements: int = 2

    def __post_init__(self):
        # each message starts with its field name; the config layer prefixes it
        if self.radial_count < 2:
            raise ParamError(f"radial_count must be >= 2, got {self.radial_count}")
        if self.angular_count < 4:
            raise ParamError(f"angular_count must be >= 4, got {self.angular_count}")
        if self.refinement_factor < 2:
            raise ParamError(f"refinement_factor must be >= 2, got {self.refinement_factor}")
        if not (0.0 < self.target_rel_tol <= 0.1):
            raise ParamError(f"target_rel_tol must lie in (0, 0.1], got {self.target_rel_tol:g}")
        if self.max_refinements < 1:
            raise ParamError(f"max_refinements must be >= 1, got {self.max_refinements}")


#: defaults for one-variable (disc) integrals: Gauss rules converge fast,
#: so the driver can insist on near-exactness
DEFAULT_DISC_SETTINGS = QuadratureSettings(target_rel_tol=1e-9, max_refinements=2)


@dataclass(frozen=True)
class RefinedValue:
    """Result of a refinement run: final value, achieved change, full trace."""

    value: complex
    achieved_rel_change: float
    trace: tuple  # ((n_rad, n_ang, value), ...)


def _rel_change(new, old):
    """|new - old| relative to the larger modulus; 0 only when both are 0.

    No absolute floor: the quantities compared are 2-homogeneous in f, so a
    verdict must not depend on the scale of f.
    """
    scale = max(abs(new), abs(old))
    return abs(new - old) / scale if scale else 0.0


def refine_until(settings: QuadratureSettings, functional) -> RefinedValue:
    """Drive ``functional(n_rad, n_ang)`` over successively refined counts.

    Stops once the successive relative change is within target_rel_tol;
    raises ConvergenceError (with the partial result attached) if
    max_refinements steps do not get there.
    """
    n_rad, n_ang = settings.radial_count, settings.angular_count
    value = functional(n_rad, n_ang)
    trace = [(n_rad, n_ang, value)]
    for _ in range(settings.max_refinements):
        n_rad *= settings.refinement_factor
        n_ang *= settings.refinement_factor
        new = functional(n_rad, n_ang)
        trace.append((n_rad, n_ang, new))
        change = _rel_change(new, value)
        value = new
        if change <= settings.target_rel_tol:
            return RefinedValue(value=value, achieved_rel_change=change, trace=tuple(trace))
    partial = RefinedValue(value=value, achieved_rel_change=change, trace=tuple(trace))
    raise ConvergenceError(
        f"refinement did not reach rel tol {settings.target_rel_tol:g} "
        f"within {settings.max_refinements} steps (last change {change:.3e})",
        partial=partial,
        trace=tuple(trace),
    )
