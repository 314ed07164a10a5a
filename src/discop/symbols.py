"""Catalog of holomorphic self-maps of the unit disc.

Every symbol carries a closed-form derivative and is C^1 on the closed disc.
The inner ones are one type, :class:`Blaschke`: a C^1 inner self-map is a
finite Blaschke product, and the identity, rotations, disc automorphisms and
monomials are its cases with one zero or with every zero at the origin.  They
are unimodular on the whole unit circle, which the boundary-contact machinery
exploits.  Polynomial symbols must pass :func:`verify_self_map` before they
may be evaluated.

Evaluation is vectorized: ``value`` and ``deriv`` accept scalars or numpy
arrays of points in the closed disc.  This module holds only the maps; their
config form is read by :func:`discop.config.symbol_from_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ParamError, SymbolError
from .series import TruncatedPowerSeries

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=4)
def boundary_grid(n: int):
    """Read-only (theta, e^{i theta}) of the grid theta_k = 2 pi k / n, built once per
    size for every boundary scan and plot (4 sizes kept, 24 n bytes each)."""
    theta = TWO_PI * np.arange(n) / n
    zeta = np.exp(1j * theta)
    theta.flags.writeable = zeta.flags.writeable = False
    return theta, zeta


@dataclass(frozen=True)
class BoundaryPoint:
    """A point e^{i angle} on the unit circle; the angle is reduced mod 2*pi."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % TWO_PI)


@dataclass(frozen=True)
class Blaschke:
    """The finite Blaschke product unit * z^m * prod_a (a - z)/(1 - conj(a) z).

    ``zeros`` holds every zero, each |a| < 1: the m at the origin enter as
    z^m, the others in order as automorphism factors; |unit| = 1.  ``label``
    is the spelling :meth:`describe` returns (the report's input column).
    The constructors below build the catalog's inner symbols.
    """

    zeros: tuple
    unit: complex
    label: str

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        if not zeros or not all(abs(a) < 1.0 for a in zeros):
            raise ParamError("a Blaschke product needs at least one zero, all with |a| < 1")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "_origin", zeros.count(0))
        # per factor off the origin: a, conj(a) and its derivative's numerator |a|^2 - 1, uncancelled
        factors = tuple((a, np.conj(a), -(1.0 - abs(a)) * (1.0 + abs(a))) for a in zeros if a)
        object.__setattr__(self, "_factors", factors)

    def value(self, z):
        z, m = np.asarray(z, dtype=complex), self._origin
        out = self.unit
        if m:
            zm = z if m == 1 else z**m
            out = zm if self.unit == 1 else self.unit * zm  # 1 * zm can flip a zero's sign
        for a, conj_a, _ in self._factors:
            out = out * (a - z) / (1.0 - conj_a * z)
        return out

    def deriv(self, z):
        # forward product rule over the factors f: D <- D f + P f', then P <- P f
        z, m = np.asarray(z, dtype=complex), self._origin
        prod, out = self.unit, None
        if m:
            out = np.full_like(z, self.unit) if m == 1 else self.unit * m * z ** (m - 1)
            prod = self.unit * (z if m == 1 else z**m) if self._factors else prod
        for a, conj_a, dnum in self._factors:
            den = 1.0 - conj_a * z
            term = prod * dnum / den**2
            if out is None and len(self._factors) == 1:
                return term  # a lone factor: D = P f'
            f = (a - z) / den
            out = term if out is None else out * f + term
            prod = prod * f
        return out

    def describe(self):
        return self.label


def Identity():
    return Blaschke((0j,), 1.0 + 0j, "identity")


def Rotation(angle):
    """z -> e^{i angle} z."""
    return Blaschke((0j,), complex(np.exp(1j * angle)), f"rotation({angle:g})")


def MobiusAuto(a, post_rotation=0.0):
    """Disc automorphism z -> e^{i post_rotation} (a - z)/(1 - conj(a) z), |a| < 1."""
    a = complex(a)
    label = f"mobius(a={a:g}, rot={post_rotation:g})"
    return replace(FiniteBlaschke((a,), post_rotation), label=label)


def Monomial(k):
    """z -> z^k, k >= 1 (k < 1 leaves no zero, which Blaschke refuses)."""
    return Blaschke((0j,) * k, 1.0 + 0j, f"z^{k}")


def FiniteBlaschke(zeros, post_rotation=0.0):
    """z -> e^{i post_rotation} prod_j (a_j - z)/(1 - conj(a_j) z), all |a_j| < 1.

    A zero at the origin has the factor -z; its sign goes into the unit.
    """
    zeros = tuple(complex(a) for a in zeros)
    label = f"blaschke([{','.join(f'{a:g}' for a in zeros)}], rot={post_rotation:g})"
    unit = complex(np.exp(1j * post_rotation))
    return Blaschke(zeros, -unit if zeros.count(0) % 2 else unit, label)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial symbol; only usable after verify_self_map has set ``verified``."""

    coeffs: tuple
    verified: bool = False

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ParamError("a polynomial symbol needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_unchecked_series", TruncatedPowerSeries(coeffs))

    @property
    def _series(self) -> TruncatedPowerSeries:
        """The series of phi; an unverified symbol may not use it."""
        if not self.verified:
            raise SymbolError("polynomial symbol was not verified as a self-map")
        return self._unchecked_series

    def value(self, z):
        return self._series.value(z)

    def deriv(self, z):
        return self._series.deriv(z)

    def describe(self):
        cs = ",".join(f"{c:g}" for c in self.coeffs)
        return f"poly([{cs}])"


@dataclass(frozen=True)
class SelfMapCheck:
    """Outcome of a boundary scan of |phi|.

    ``symbol`` is the (verified) symbol to use downstream; ``boundary_contact``
    flags max |phi| >= 1 - tol, i.e. the symbol (nearly) touches the circle.
    """

    symbol: Blaschke | Polynomial
    max_modulus: float
    boundary_contact: bool


def verify_self_map(symbol, grid_size: int = 1024, tol: float = 1e-6) -> SelfMapCheck:
    """Check max_T |phi| <= 1 + tol on a uniform boundary grid.

    By the maximum principle the boundary grid bounds the modulus on the whole
    disc.  Raises SymbolError (with the offending angle) when the scan exceeds
    1 + tol or is NaN; for polynomial symbols a passing scan returns a copy
    with the verified flag set.
    """
    if grid_size < 256:
        raise ParamError("self-map verification needs grid_size >= 256")
    theta, zeta = boundary_grid(grid_size)
    # a polynomial is scanned through its verified copy, which is returned
    # when the scan passes
    checked = replace(symbol, verified=True) if isinstance(symbol, Polynomial) else symbol
    mods = np.abs(checked.value(zeta))
    worst = int(np.argmax(mods))
    max_mod = float(mods[worst])
    if not max_mod <= 1.0 + tol:
        raise SymbolError(
            f"{symbol.describe()} is not a self-map: |phi| = {max_mod:.6g} at angle {theta[worst]:.6g}",
            angle=float(theta[worst]),
        )
    return SelfMapCheck(
        symbol=checked, max_modulus=max_mod, boundary_contact=bool(max_mod >= 1.0 - tol)
    )

