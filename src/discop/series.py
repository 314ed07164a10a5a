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

from .errors import ParamError


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Finite complex coefficient list a_0..a_N."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ParamError("a truncated power series needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def value(self, z):
        """The series at z (scalar or array) by Horner's scheme."""
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc if acc.shape else complex(acc)

    def deriv(self, z):
        return self._derivative.value(z)

    @cached_property
    def _derivative(self) -> "TruncatedPowerSeries":
        # built on first use: building it eagerly would recurse through differentiate
        return differentiate(self)

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


def differentiate(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Termwise derivative; constants map to the zero series of order 0."""
    if len(s.coeffs) == 1:
        return TruncatedPowerSeries((0.0,))
    return TruncatedPowerSeries(tuple((n + 1) * c for n, c in enumerate(s.coeffs[1:])))
