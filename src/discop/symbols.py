"""Catalog of holomorphic self-maps of the unit disc.

Every variant carries a closed-form derivative and is C^1 on the closed
disc.  All variants except Polynomial are self-maps by construction; the
inner ones (identity, rotations, disc automorphisms, monomials, finite
Blaschke products) are unimodular on the whole unit circle, which the
boundary-contact machinery exploits.  Polynomial symbols must pass
:func:`verify_self_map` before they may be evaluated.

Evaluation is vectorized: ``value`` and ``deriv`` accept scalars or numpy
arrays of points in the closed disc.
"""

from __future__ import annotations

import numbers
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
        if abs(self.a) >= 1.0:
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
        if any(abs(a) >= 1.0 for a in zeros):
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
    worst_angle: BoundaryPoint
    boundary_contact: bool
    grid_size: int
    tol: float


def verify_self_map(symbol: Symbol, grid_size: int = 1024, tol: float = 1e-6) -> SelfMapCheck:
    """Check max_T |phi| <= 1 + tol on a uniform boundary grid.

    By the maximum principle the boundary grid bounds the modulus on the whole
    disc.  Raises SymbolError (with the offending angle) when the scan exceeds
    1 + tol; for polynomial symbols a passing scan returns a copy with the
    verified flag set.
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
    if max_mod > 1.0 + tol:
        raise SymbolError(
            f"{symbol.describe()} is not a self-map: |phi| = {max_mod:.6g} at angle {theta[worst]:.6g}",
            angle=float(theta[worst]),
        )
    return SelfMapCheck(
        symbol=checked,
        max_modulus=max_mod,
        worst_angle=BoundaryPoint(theta[worst]),
        boundary_contact=bool(max_mod >= 1.0 - tol),
        grid_size=grid_size,
        tol=tol,
    )


def contact_indicator(symbol: Symbol, angles, contact_tol: float = 1e-6):
    """Boolean mask of boundary angles where 1 - |phi| <= contact_tol."""
    if symbol.boundary_unimodular:
        return np.ones(np.shape(np.asarray(angles)), dtype=bool)
    zeta = np.exp(1j * np.asarray(angles, dtype=float))
    return 1.0 - np.abs(symbol.value(zeta)) <= contact_tol


# --- structured text form (used by the CLI config format) -----------------


def _complex_from_obj(obj, where):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        try:
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError):
            pass
    raise ParamError(f"{where}: complex values must be numbers or {{'re':..,'im':..}} objects")


def _integer(value):
    """An integral number as int: 2 and 2.0 are read, 2.5, "2" and true are not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def _spec_field(spec, key, convert, default=None):
    """spec[key] through convert; a missing or unreadable entry names symbol.<key>."""
    where = f"symbol.{key}"
    if key not in spec:
        if default is None:
            raise ParamError(f"{where}: a {spec['type']!r} symbol needs {key!r}")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError):
        raise ParamError(f"{where}: cannot read {spec[key]!r}") from None


def _complex_list(where):
    return lambda values: tuple(_complex_from_obj(c, where) for c in values)


#: per symbol type: the class, then each field with its reader and default
#: (None: required); the first field is the one the constructor checks
_SPECS = {
    "identity": (Identity, {}),
    "rotation": (Rotation, {"angle": (float, None)}),
    "mobius": (MobiusAuto, {"a": (lambda a: _complex_from_obj(a, "symbol.a"), None),
                            "post_rotation": (float, 0.0)}),
    "monomial": (Monomial, {"k": (_integer, None)}),
    "blaschke": (FiniteBlaschke, {"zeros": (_complex_list("symbol.zeros"), None),
                                  "post_rotation": (float, 0.0)}),
    "poly": (Polynomial, {"coeffs": (_complex_list("symbol.coeffs"), None)}),
}


def symbol_from_spec(spec: dict) -> Symbol:
    """Build a symbol from its structured text form (field ``type`` selects the variant).

    An unreadable or out-of-range field is named as ``symbol.<field>``.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ParamError("symbol spec must be an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _SPECS:
        raise ParamError(f"unknown symbol type {kind!r}")
    cls, fields = _SPECS[kind]
    kwargs = {key: _spec_field(spec, key, *reader) for key, reader in fields.items()}
    try:
        return cls(**kwargs)
    except ParamError as exc:
        raise ParamError(f"symbol.{next(iter(fields))}: {exc}") from None
