"""Dirichlet-type norms on the disc and the pairwise double-integral functional.

The squared Dirichlet-type norm with radial weight exponent p is

    ||f||^2 = int_D |f'(z)|^2 (1-|z|^2)^p dA(z),

a seminorm (constants get norm 0; no constant offset is added).  Two routes
are provided: an exact coefficient formula, sum_{n>=1} n^2 |a_n|^2 B(n, p+1),
and quadrature against the weighted rule.

The pairwise functional couples two weighted disc measures through the
kernel |1 - conj(w) z|^{-q}:

    D(f) = iint |f(z)-f(w)|^2 / |1 - conj(w) z|^q  dA_sigma(z) dA_tau(w).

It is summed for a truncated power series f from the ring spectra that f's
coefficients give, never from values of f.  Inside the admissible window it
is equivalent (with unknown absolute constants) to the squared Dirichlet-type
norm with p = sigma + tau - 2*beta, where q = 2*(beta + 2); the experiment
layer checks that equivalence as a ratio-band property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._numutil import powq
from .errors import ConvergenceError, ParamError
from .quadrature import (
    DEFAULT_DISC_SETTINGS,
    QuadratureSettings,
    _jacobi_01,
    build_disc_rule,
    integrate_disc,
    refine_until,
)
from .series import TruncatedPowerSeries

_RADIAL_BLOCK = 16  # z radii per slice of the shared kernel spectrum (bounds the products)


@dataclass(frozen=True)
class WeightParams:
    """Admissible weight tuple (sigma, tau, beta).

    Construction (directly, or through :func:`validate_main_theorem_params`)
    enforces the window

        sigma > -1,  tau > -1,  max(sigma, tau)/2 - 1 < beta <= (sigma+tau)/2.

    The derived exponents are p = sigma + tau - 2*beta (Dirichlet weight) and
    q = 2*(beta + 2) (kernel exponent of the pairwise functional).
    """

    sigma: float
    tau: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "beta", float(self.beta))
        if self.sigma <= -1.0:
            raise ParamError(f"sigma must satisfy sigma > -1, got {self.sigma:g}")
        if self.tau <= -1.0:
            raise ParamError(f"tau must satisfy tau > -1, got {self.tau:g}")
        lower = max(self.sigma, self.tau) / 2.0 - 1.0
        if not (self.beta > lower):
            raise ParamError(
                f"beta must satisfy beta > max(sigma,tau)/2 - 1 = {lower:g}, got {self.beta:g}"
            )
        upper = (self.sigma + self.tau) / 2.0
        if not (self.beta <= upper):
            raise ParamError(
                f"beta must satisfy beta <= (sigma+tau)/2 = {upper:g}, got {self.beta:g}"
            )

    @property
    def p_dirichlet(self) -> float:
        return self.sigma + self.tau - 2.0 * self.beta

    @property
    def q_exponent(self) -> float:
        return 2.0 * (self.beta + 2.0)


def validate_main_theorem_params(sigma: float, beta: float) -> WeightParams:
    """Validate the strict equal-weight window sigma > 0, sigma/2 - 1 < beta < sigma.

    This is the window under which the composition-operator bound applies;
    it forces p = 2*sigma - 2*beta > 0.
    """
    sigma = float(sigma)
    beta = float(beta)
    if sigma <= 0.0:
        raise ParamError(f"sigma must satisfy sigma > 0, got {sigma:g}")
    if not (beta > sigma / 2.0 - 1.0):
        raise ParamError(
            f"beta must satisfy beta > sigma/2 - 1 = {sigma / 2.0 - 1.0:g}, got {beta:g}"
        )
    if not (beta < sigma):
        raise ParamError(f"beta must satisfy beta < sigma (strictly), got beta = {beta:g}")
    return WeightParams(sigma=sigma, tau=sigma, beta=beta)


@dataclass(frozen=True)
class NormResult:
    """A squared norm with its error estimate."""

    value_sq: float
    rel_error_estimate: float
    trace: tuple | None = None  # refinement trace for quadrature results

    def __post_init__(self):
        if self.value_sq < 0:
            raise ParamError("squared norm cannot be negative")


def dirichlet_norm_sq_coeff(s: TruncatedPowerSeries, p: float) -> NormResult:
    """Exact squared Dirichlet-type norm from coefficients.

    sum_{n>=1} n^2 |a_n|^2 B(n, p+1), with B the Beta function; the n-th term
    is the weighted moment of |z|^{2(n-1)} hit by the derivative coefficient.
    """
    from scipy.special import betaln  # loaded by the first norm, not by import discop

    if p < 0:
        raise ParamError(f"radial weight exponent must be >= 0, got {p:g}")
    n = np.arange(1, len(s.coeffs))
    if len(n) == 0:
        return NormResult(value_sq=0.0, rel_error_estimate=0.0)
    # coefficients over a power of two near the largest modulus: exact, no subnormal squares
    a = np.asarray(s.coeffs[1:], dtype=complex)
    e = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    value = float(np.ldexp(np.sum(n**2 * np.abs(a) ** 2 * np.exp(betaln(n, p + 1.0))), 2 * e))
    return NormResult(value_sq=value, rel_error_estimate=0.0)


def dirichlet_norm_sq_quad(
    f, p: float, settings: QuadratureSettings = DEFAULT_DISC_SETTINGS
) -> NormResult:
    """Squared Dirichlet-type norm by quadrature on |f'|^2; f answers ``deriv(z)``.

    The weight (1-|z|^2)^p is absorbed into the sigma = p rule; dividing by
    the rule normalization p+1 recovers the unweighted-dA convention.
    """
    if p < 0:
        raise ParamError(f"radial weight exponent must be >= 0, got {p:g}")

    def functional(n_rad, n_ang):
        rule = build_disc_rule(p, n_rad, n_ang)
        # f' over a power of two near its largest modulus: exact, no subnormal squares
        vals = np.asarray(f.deriv(rule.nodes))
        e = int(np.frexp(np.max(np.abs(vals)))[1])
        re, im = np.ldexp(vals.real, -e), np.ldexp(vals.imag, -e)
        val = integrate_disc(rule, lambda z: re * re + im * im)
        return float(np.ldexp(np.real(val) / (p + 1.0), 2 * e))

    refined = refine_until(settings, functional)
    return NormResult(
        value_sq=max(float(np.real(refined.value)), 0.0),
        rel_error_estimate=refined.achieved_rel_change,
        trace=refined.trace,
    )


#: two default ladders: a process alternating two weight triples rebuilds nothing, and a
#: family ladder never evicts a level the next member needs; a count, not bytes (the memory
#: rule sizes one command's last level)
@lru_cache(maxsize=2 * (QuadratureSettings.max_refinements + 1))
def _kernel_spectrum(sigma: float, tau: float, q: float, n_rad: int, n_ang: int, power: int):
    """Everything f-blind of one ring-kernel rule: (spectrum, rule_z, rule_w).

    The spectrum is the DFT along the angle of |1 - (z conj w)^power|^(-q) between every
    pair of rings, self pairs included: power 1 for the pairwise integral, the m of c z^m
    (1 for a Mobius map) for the composed pair engine, passed positionally, one key each.
    It is read-only and real, (m//2 + 1, n_rad, n_rad) floats, built one z radius at a time:
    half-angle kernel, mirrored, one real FFT per radius pair.  Stored in (i, k, j) order and
    returned as its (k, i, j) view, so every mode's slab of z radii has unit stride over the
    w radii and its products go through BLAS.  rule_w is rule_z when sigma = tau.
    """
    m, h = n_ang, n_ang // 2 + 1
    rule_z = build_disc_rule(sigma, n_rad, n_ang)
    rule_w = rule_z if sigma == tau else build_disc_rule(tau, n_rad, n_ang)
    r_z, r_w = (np.sqrt(_jacobi_01(float(s), int(n_rad))[0]) for s in (sigma, tau))
    cos_h = np.cos(2.0 * np.pi * (power * np.arange(h) % m) / m)
    spectrum = np.empty((n_rad, h, n_rad))
    for i, x in enumerate((r_z[:, None] * r_w) ** power):
        half = 1.0 / powq(1.0 - 2.0 * x[:, None] * cos_h + (x**2)[:, None], q)
        spectrum[i] = np.fft.rfft(np.concatenate([half, half[:, m - h:0:-1]], axis=1)).real.T
    spectrum.setflags(write=False)
    return spectrum.transpose(1, 0, 2), rule_z, rule_w


def pairwise_difference_integral(
    f: TruncatedPowerSeries, sigma: float, tau: float, q: float, n_rad: int, n_ang: int
) -> float:
    """Single-rule evaluation of iint |f(z)-f(w)|^2 / |1-conj(w) z|^q dA_sigma dA_tau.

    For fixed radii r_i, r_j the kernel depends on the angle difference only, so
    by Parseval the mean over the m x m angular node pairs is

        (Khat_0 (|Z_i|^2 + |W_j|^2) - 2 sum_k Khat_k Re(Z_ik conj(W_jk))) / m

    with Khat the m-point DFT of the kernel (1 - 2x cos theta + x^2)^(-q/2),
    x = r_i r_j, real, even and blind to f (:func:`_kernel_spectrum` caches it
    with both rules), and Z, W the DFTs over m of the series f on the rings, read
    off its coefficients: Z_ik = sum_{n = k mod m} a_n r_i^n, aliasing folded as
    the DFT folds it.  f is never evaluated, and the cross term runs over the
    occupied modes only (k and m-k share Khat_k: four real channels), one batched
    product per radial block: the nodal sum over all node pairs, reassociated.
    a_0 is never read, and mode 0 of both sides is shifted by sum_{n>=1} a_n r_0^n
    (f at the first z node, less a_0): a constant gives exactly 0, and an f close
    to a constant does not cancel in the expanded square.
    """
    spectrum, rule_z, rule_w = _kernel_spectrum(sigma, tau, q, n_rad, n_ang, 1)
    m = n_ang
    a = np.asarray(f.coeffs, dtype=complex)
    n = np.flatnonzero(a[1:]) + 1  # occupied degrees
    s = n % m  # the DFT folds degree n onto mode n mod m
    k = np.union1d(0, np.minimum(s, m - s))  # occupied folded modes, 0 first
    # a_n r^n goes to mode k = s, or to mode m - k = s (that column stays 0 where m - k is k)
    col = np.where(2 * s <= m, np.searchsorted(k, s), k.size + np.searchsorted(k, m - s))

    def side(rule, shift=None):
        # the shift, weighted mean |f - shift|^2 per radius (Parseval), weighted channels
        ring = np.zeros((n_rad, 2 * k.size), dtype=complex)  # modes k, then modes m - k
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite msq raises below
            terms = a[n] * rule.nodes[::m].real[:, None] ** n  # a_n r_i^n
            shift = np.sum(terms[0]) if shift is None else shift
            np.add.at(ring, (slice(None), col), terms)
            ring[:, 0] -= shift
            msq = rule.radial_w * np.sum(ring.real**2 + ring.imag**2, axis=1)
        if not np.all(np.isfinite(msq)):  # finite only if every mode of every ring is
            raise ConvergenceError("ring spectrum of f is non-finite on a quadrature rule")
        ring *= rule.radial_w[:, None]
        chans = ring.reshape(n_rad, 2, -1).transpose(2, 0, 1)  # (modes, n_rad, 2) complex
        return shift, msq, np.ascontiguousarray(chans).view(float)

    shift, msq_z, chan_z = side(rule_z)
    msq_w, chan_w = (msq_z, chan_z) if rule_w is rule_z else side(rule_w, shift)[1:]
    sq_z = np.stack([msq_z, rule_z.radial_w], 1)
    sq_w = np.stack([rule_w.radial_w, msq_w], 1)

    parts = []
    for lo in range(0, n_rad, _RADIAL_BLOCK):
        hi = min(lo + _RADIAL_BLOCK, n_rad)
        kern = spectrum[k, lo:hi]  # (modes, b, n_rad)
        cross = np.sum(chan_z[:, lo:hi] * np.matmul(kern, chan_w))
        square = np.sum(sq_z[lo:hi] * (kern[0] @ sq_w))  # Khat_0 w_i w_j (|f_i|^2 + |f_j|^2)
        parts.append((square - 2.0 * cross) / m)
    total = float(np.sum(np.asarray(parts)))
    return rule_z.normalization * rule_w.normalization * total


def double_integral_functional(
    f, params: WeightParams, settings: QuadratureSettings = QuadratureSettings()
) -> NormResult:
    """Refinement-driven evaluation of the pairwise double-integral functional of a series f.

    Expected to lose accuracy (and eventually fail with ConvergenceError)
    as beta approaches the upper endpoint of the window while f has large
    boundary oscillation; the refinement trace is attached for diagnosis.
    """
    q = params.q_exponent

    def functional(n_rad, n_ang):
        return pairwise_difference_integral(f, params.sigma, params.tau, q, n_rad, n_ang)

    refined = refine_until(settings, functional)
    return NormResult(
        value_sq=max(float(np.real(refined.value)), 0.0),
        rel_error_estimate=refined.achieved_rel_change,
        trace=refined.trace,
    )
