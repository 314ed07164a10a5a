"""Truncated power series representing holomorphic functions on the disc.

A series is a finite coefficient list ``a_0 .. a_N``; the stored length is
authoritative (trailing zeros are kept, the truncation order is ``N``).
Evaluation uses Horner's scheme and is vectorized over numpy arrays; a
series answers ``value(z)`` and ``deriv(z)`` as the disc symbols do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ParamError


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Finite complex coefficient list a_0..a_N.

    ``coeff_error`` is a two-radius consistency estimate attached by
    :func:`coefficients_of`; it is ``None`` for exactly constructed series.
    """

    coeffs: tuple
    coeff_error: float | None = None

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ParamError("a truncated power series needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def value(self, z):
        return eval_series(self, z)

    __call__ = value

    def deriv(self, z):
        return eval_series(self._derivative, z)

    @cached_property
    def _derivative(self) -> "TruncatedPowerSeries":
        # built on first use: building it eagerly would recurse through differentiate
        return differentiate(self)

    def __add__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return TruncatedPowerSeries(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, TruncatedPowerSeries):
            return NotImplemented
        return TruncatedPowerSeries(tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    @classmethod
    def monomial(cls, n: int) -> "TruncatedPowerSeries":
        """z^n as a series of truncation order n."""
        if n < 0:
            raise ParamError("monomial degree must be >= 0")
        return cls((0.0,) * n + (1.0,))

    @classmethod
    def geometric_sum(cls, k: int) -> "TruncatedPowerSeries":
        """Partial geometric sum 1 + z + ... + z^k."""
        if k < 0:
            raise ParamError("partial-sum degree must be >= 0")
        return cls((1.0,) * (k + 1))


def eval_series(s: TruncatedPowerSeries, z):
    """Evaluate the series at z (scalar or array) by Horner's scheme."""
    z = np.asarray(z, dtype=complex)
    acc = np.full(z.shape, s.coeffs[-1], dtype=complex)
    for c in s.coeffs[-2::-1]:
        acc = acc * z + c
    return acc if acc.shape else complex(acc)


def differentiate(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Termwise derivative; constants map to the zero series of order 0."""
    if len(s.coeffs) == 1:
        return TruncatedPowerSeries((0.0,))
    return TruncatedPowerSeries(tuple((n + 1) * c for n, c in enumerate(s.coeffs[1:])))


def _circle_coefficients(g, n_max, radius, samples):
    """Coefficients from uniform circle samples (discrete Cauchy integral)."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    vals = np.asarray(g(radius * np.exp(1j * theta)), dtype=complex)
    spectrum = np.fft.fft(vals) / samples
    return spectrum[: n_max + 1] / radius ** np.arange(n_max + 1)


def coefficients_of(
    g,
    n_max: int,
    radius: float = 0.9,
    check_radius: float = 0.8,
    tol: float = 1e-8,
    samples: int | None = None,
) -> TruncatedPowerSeries:
    """Extract coefficients a_0..a_{n_max} of a disc-holomorphic function.

    Samples g on the circle of the given radius and inverts the discrete
    Fourier transform (Cauchy integral), dividing by radius^n.  A second pass
    at ``check_radius`` provides an independent consistency estimate; if the
    two disagree beyond ``tol`` the extraction did not converge (too few
    samples, or g is not holomorphic past the sampling circle).

    The default radii 0.9 / 0.8 balance round-off amplification (radius^-n)
    against truncation decay of the tail.
    """
    if not (0.0 < radius < 1.0) or not (0.0 < check_radius < 1.0):
        raise ParamError("sampling radii must lie in (0, 1)")
    if radius == check_radius:
        raise ParamError("the two sampling radii must differ")
    if n_max < 0:
        raise ParamError("n_max must be >= 0")
    if samples is None:
        samples = 1 << max(8, int(np.ceil(np.log2(8 * (n_max + 1)))))
    a = _circle_coefficients(g, n_max, radius, samples)
    a_check = _circle_coefficients(g, n_max, check_radius, samples)
    discrepancy = float(np.max(np.abs(a - a_check)))
    if discrepancy > tol:
        raise ConvergenceError(
            f"two-radius coefficient check failed: discrepancy {discrepancy:.3e} > {tol:.3e}",
            partial=TruncatedPowerSeries(tuple(a), coeff_error=discrepancy),
        )
    return TruncatedPowerSeries(tuple(a), coeff_error=discrepancy)
