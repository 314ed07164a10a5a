"""Catalog of holomorphic self-maps of the unit disc.

Every variant carries a closed-form derivative and is C^1 on the closed
disc.  All variants except Polynomial are self-maps by construction; the
inner ones (identity, rotations, disc automorphisms, monomials, finite
Blaschke products) are unimodular on the whole unit circle, which the
boundary-contact machinery exploits.  Polynomial symbols must pass
:func:`verify_self_map` before they may be evaluated.

Evaluation is vectorized: ``value`` and ``deriv`` accept scalars or numpy
arrays of points in the closed disc.  This module holds only the maps; their
config form is read by :func:`discop.config.symbol_from_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParamError, SymbolError
from .series import TruncatedPowerSeries

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BoundaryPoint:
    """A point e^{i angle} on the unit circle; the angle is reduced mod 2*pi."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % TWO_PI)

    def to_complex(self) -> complex:
        return complex(np.exp(1j * self.angle))


class Symbol:
    """Base class; subclasses implement value/deriv and the inner flag."""

    #: True when |phi| == 1 identically on the unit circle (by construction).
    boundary_unimodular = False

    def value(self, z):
        raise NotImplementedError

    def deriv(self, z):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(Symbol):
    boundary_unimodular = True

    def value(self, z):
        return np.asarray(z, dtype=complex)

    def deriv(self, z):
        return np.ones_like(np.asarray(z, dtype=complex))

    def describe(self):
        return "identity"


@dataclass(frozen=True)
class Rotation(Symbol):
    """z -> e^{i angle} z."""

    angle: float
    boundary_unimodular = True

    def value(self, z):
        return np.exp(1j * self.angle) * np.asarray(z, dtype=complex)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        return np.full_like(z, np.exp(1j * self.angle))

    def describe(self):
        return f"rotation({self.angle:g})"


@dataclass(frozen=True)
class MobiusAuto(Symbol):
    """Disc automorphism z -> e^{i post_rotation} (a - z)/(1 - conj(a) z), |a| < 1."""

    a: complex
    post_rotation: float = 0.0
    boundary_unimodular = True

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        if not abs(self.a) < 1.0:
            raise ParamError(f"Mobius parameter must satisfy |a| < 1, got |a| = {abs(self.a):g}")

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(1j * self.post_rotation) * (self.a - z) / (1.0 - np.conj(self.a) * z)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        return (
            np.exp(1j * self.post_rotation)
            * (abs(self.a) ** 2 - 1.0)
            / (1.0 - np.conj(self.a) * z) ** 2
        )

    def describe(self):
        return f"mobius(a={self.a:g}, rot={self.post_rotation:g})"


@dataclass(frozen=True)
class Monomial(Symbol):
    """z -> z^k, k >= 1."""

    k: int
    boundary_unimodular = True

    def __post_init__(self):
        if self.k < 1:
            raise ParamError("monomial symbol degree must be >= 1")

    def value(self, z):
        return np.asarray(z, dtype=complex) ** self.k

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        return self.k * z ** (self.k - 1)

    def describe(self):
        return f"z^{self.k}"


@dataclass(frozen=True)
class FiniteBlaschke(Symbol):
    """Product of automorphism factors (a_j - z)/(1 - conj(a_j) z), all |a_j| < 1."""

    zeros: tuple
    post_rotation: float = 0.0
    boundary_unimodular = True

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        if not zeros:
            raise ParamError("a Blaschke product needs at least one factor")
        if not all(abs(a) < 1.0 for a in zeros):
            raise ParamError("all Blaschke zeros must satisfy |a| < 1")
        object.__setattr__(self, "zeros", zeros)

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, np.exp(1j * self.post_rotation))
        for a in self.zeros:
            out = out * (a - z) / (1.0 - np.conj(a) * z)
        return out

    def deriv(self, z):
        # product rule over the factors; each factor derivative is
        # (|a|^2 - 1)/(1 - conj(a) z)^2
        z = np.asarray(z, dtype=complex)
        factors = [(a - z) / (1.0 - np.conj(a) * z) for a in self.zeros]
        out = np.zeros_like(z)
        for j, a in enumerate(self.zeros):
            dj = (abs(a) ** 2 - 1.0) / (1.0 - np.conj(a) * z) ** 2
            rest = np.full_like(z, 1.0 + 0.0j)
            for m, f in enumerate(factors):
                if m != j:
                    rest = rest * f
            out = out + dj * rest
        return np.exp(1j * self.post_rotation) * out

    def describe(self):
        zs = ",".join(f"{a:g}" for a in self.zeros)
        return f"blaschke([{zs}], rot={self.post_rotation:g})"


@dataclass(frozen=True)
class Polynomial(Symbol):
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

    symbol: Symbol
    max_modulus: float
    boundary_contact: bool


def verify_self_map(symbol: Symbol, grid_size: int = 1024, tol: float = 1e-6) -> SelfMapCheck:
    """Check max_T |phi| <= 1 + tol on a uniform boundary grid.

    By the maximum principle the boundary grid bounds the modulus on the whole
    disc.  Raises SymbolError (with the offending angle) when the scan exceeds
    1 + tol or is NaN; for polynomial symbols a passing scan returns a copy
    with the verified flag set.
    """
    if grid_size < 256:
        raise ParamError("self-map verification needs grid_size >= 256")
    theta = TWO_PI * np.arange(grid_size) / grid_size
    # a polynomial is scanned through its verified copy, which is returned
    # when the scan passes
    checked = replace(symbol, verified=True) if isinstance(symbol, Polynomial) else symbol
    mods = np.abs(checked.value(np.exp(1j * theta)))
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


def contact_indicator(symbol: Symbol, angles, contact_tol: float = 1e-6):
    """Boolean mask of boundary angles where 1 - |phi| <= contact_tol."""
    if symbol.boundary_unimodular:
        return np.ones(np.shape(np.asarray(angles)), dtype=bool)
    zeta = np.exp(1j * np.asarray(angles, dtype=float))
    return 1.0 - np.abs(symbol.value(zeta)) <= contact_tol
