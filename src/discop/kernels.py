"""De Branges-Rovnyak kernel of a self-map and estimation of its supremum.

For a holomorphic self-map phi of the disc, the kernel is

    k(z, w) = (1 - phi(z) conj(phi(w))) / (1 - z conj(w)).

Whether sup |k| over the bidisc is finite is the hypothesis the composition
bound needs.  The search works on the distinguished boundary: |k| is the
modulus of a function holomorphic in z and anti-holomorphic in w, so its
supremum over the closed bidisc is attained on the torus times torus part of
the boundary.  That reduction is a documented mathematical assumption of the
search; a random interior sample guards it.

On the boundary diagonal z = w = zeta the raw quotient is 0/0 whenever
|phi(zeta)| = 1; there the radial limit

    k(r zeta, r zeta) = (1 - |phi(r zeta)|^2) / (1 - r^2)  ->  |phi'(zeta)|

is used instead (the limit exists and equals the angular-derivative modulus
for C^1 self-maps with boundary contact).  Where there is no contact the
diagonal limit is genuinely infinite; the search approaches it through
off-diagonal grid points and reports divergence once the running maximum
blows past the threshold with sustained growth.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .symbols import TWO_PI, BoundaryPoint, boundary_grid, contact_indicator

#: |1 - z conj(w)| below this is treated as "on the boundary diagonal"
MIN_DENOMINATOR = 1e-13


def _neville_to_zero(hs, table):
    """Polynomial extrapolation of the rows of a 2-D table(h) to h = 0.

    Order m updates rows m.. at once from the order m-1 rows.  Returns
    (limit, last_correction) per column.
    """
    tab = np.array(table, dtype=float)
    for m in range(1, len(tab)):
        tab[m:] += (tab[m:] - tab[m - 1:-1]) * hs[m:, None] / (hs[:-m] - hs[m:])[:, None]
    return tab[-1], np.abs(tab[-1] - tab[-2])


_DEFAULT_EXTRAP_H = 0.2 * 0.5 ** np.arange(9)
#: largest last Neville correction, relative to max(1, |limit|), of a stable extrapolation
_STAB_TOL = 1e-8


def _diag_values_batch(symbol, angles):
    """Radial-limit extrapolation of k(r zeta, r zeta) for a batch of angles.

    Returns (values, ok) where ok flags angles whose extrapolation stabilized
    and (for exact-contact angles) agrees with |phi'(zeta)|.  Where the
    cross-check confirms the angular-derivative closed form, that exact value
    replaces the extrapolant (it has no h -> 0 amplification noise).
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    zeta = np.exp(1j * angles)
    hs = _DEFAULT_EXTRAP_H
    rs = 1.0 - hs
    rows = (1.0 - np.abs(symbol.value(rs[:, None] * zeta)) ** 2) / (1.0 - rs * rs)[:, None]
    limit, corr = _neville_to_zero(hs, rows)
    scale = np.maximum(1.0, np.abs(limit))
    ok = corr <= _STAB_TOL * scale
    exact_contact = 1.0 - np.abs(symbol.value(zeta)) <= 1e-12
    dmod = np.abs(symbol.deriv(zeta))
    confirmed = exact_contact & (np.abs(limit - dmod) <= 1e-6 * np.maximum(1.0, dmod))
    ok &= ~exact_contact | confirmed
    return np.where(confirmed, dmod, limit), ok


class Verdict(enum.Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SupSearchSettings:
    """Grid search parameters for the kernel supremum estimate."""

    initial_grid: int = 256
    local_grid: int = 33  # odd, so refinement windows keep their center
    max_refinements: int = 12
    divergence_threshold: float = 1e6
    growth_factor: float = 2.0
    stabilization_rel_tol: float = 1e-8
    contact_tol: float = 1e-6
    interior_samples: int = 1000
    interior_rel_margin: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # each message starts with its field name; the config layer prefixes it
        if self.initial_grid < 16:
            raise ParamError(f"initial_grid must be >= 16, got {self.initial_grid}")
        if self.local_grid < 5 or self.local_grid % 2 == 0:
            raise ParamError(f"local_grid must be odd and >= 5, got {self.local_grid}")
        if self.max_refinements < 1:
            raise ParamError(f"max_refinements must be >= 1, got {self.max_refinements}")
        if not self.growth_factor > 1.0:
            raise ParamError(f"growth_factor must exceed 1, got {self.growth_factor:g}")
        for name in ("divergence_threshold", "stabilization_rel_tol", "contact_tol"):
            if not getattr(self, name) > 0.0:
                raise ParamError(f"{name} must be > 0, got {getattr(self, name):g}")
        if not self.interior_rel_margin >= 0.0:
            raise ParamError(f"interior_rel_margin must be >= 0, got {self.interior_rel_margin:g}")
        if self.interior_samples < 1:
            raise ParamError(f"interior_samples must be >= 1, got {self.interior_samples}")
        if self.seed < 0:
            raise ParamError(f"seed must be >= 0, got {self.seed}")


DEFAULT_SUP_SETTINGS = SupSearchSettings()


@dataclass(frozen=True)
class SupEstimate:
    """Result of the supremum search.

    ``value`` is +inf for an Unbounded verdict.  ``trace`` lists (effective
    grid size, running max) per refinement and is nondecreasing in the max.
    """

    value: float
    argmax: tuple  # (BoundaryPoint, BoundaryPoint)
    trace: tuple  # ((grid, running_max), ...)
    verdict: Verdict
    interior_max: float | None = None


def _grid_geometry(alphas, gammas):
    """The symbol-free part of the grid alphas x gammas.

    Returns (alphas, za, zg, den, off_diag, ii, jj): the boundary points, the
    denominator |1 - z conj(w)|, the mask of cells off the boundary diagonal
    and the indices of the cells on it.  ``zg is za`` when ``gammas is alphas``.
    """
    za = np.exp(1j * alphas)
    zg = za if gammas is alphas else np.exp(1j * gammas)
    den = np.abs(1.0 - za[:, None] * np.conj(zg)[None, :])
    on_diag = den < MIN_DENOMINATOR
    ii, jj = np.nonzero(on_diag)
    return alphas, za, zg, den, ~on_diag, ii, jj


@functools.lru_cache(maxsize=1)
def _start_geometry(n0):
    """Read-only geometry of the uniform n0 x n0 start grid (9 n0^2 bytes)."""
    alphas = boundary_grid(n0)[0]
    geometry = _grid_geometry(alphas, alphas)
    for arr in geometry:
        arr.flags.writeable = False
    return geometry


def _kernel_grid(symbol, geometry, contact_tol):
    """|k| over a grid of boundary angle pairs, given its _grid_geometry.

    Numerator and denominator share the complex-difference float path, so
    structurally equal symbols (the identity) give exactly 1.  Exact-diagonal
    cells are replaced by the radial extrapolation at contact angles and
    skipped elsewhere (their neighbors carry the blow-up).
    """
    alphas, za, zg, den, off_diag, ii, jj = geometry
    pa = symbol.value(za)
    pg = pa if zg is za else symbol.value(zg)
    num = np.multiply.outer(pa, np.conj(pg))
    np.subtract(1.0, num, out=num)
    vals = np.abs(num)
    np.divide(vals, den, out=vals, where=off_diag)
    vals[ii, jj] = 0.0
    if ii.size:
        diag_angles = alphas[ii]
        contact = contact_indicator(symbol, diag_angles, contact_tol)
        if contact.any():
            limits, ok = _diag_values_batch(symbol, diag_angles[contact])
            vals[ii[contact], jj[contact]] = np.where(ok, limits, 0.0)
    return vals


def estimate_sup(symbol, settings: SupSearchSettings = DEFAULT_SUP_SETTINGS) -> SupEstimate:
    """Estimate sup |k| over the bidisc by boundary grid search with local zoom.

    A uniform grid on the two boundary angles is followed by repeated zooms
    around the running argmax (window = one grid spacing, regridded).  The
    running maximum is nondecreasing by construction.  Verdicts:

    * Bounded: the running maximum stabilized (successive relative change
      within stabilization_rel_tol) and no interior sample beats it beyond
      the interior margin.
    * Unbounded: the running maximum exceeds divergence_threshold and still
      grew by at least growth_factor in the last zoom.
    * Inconclusive: neither rule fired within max_refinements, or the
      interior sanity check failed.
    """
    n0 = settings.initial_grid
    start = _start_geometry(n0)
    alphas = start[0]
    vals = _kernel_grid(symbol, start, settings.contact_tol)
    flat = int(np.argmax(vals))
    i, j = np.unravel_index(flat, vals.shape)
    best = float(vals[i, j])
    arg = (float(alphas[i]), float(alphas[j]))
    spacing = TWO_PI / n0
    trace = [(n0, best)]
    verdict = Verdict.INCONCLUSIVE

    for _ in range(settings.max_refinements):
        a0, g0 = arg
        local_a = np.linspace(a0 - spacing, a0 + spacing, settings.local_grid)
        local_g = np.linspace(g0 - spacing, g0 + spacing, settings.local_grid)
        lv = _kernel_grid(symbol, _grid_geometry(local_a, local_g), settings.contact_tol)
        flat = int(np.argmax(lv))
        li, lj = np.unravel_index(flat, lv.shape)
        prev = best
        if float(lv[li, lj]) > best:
            best = float(lv[li, lj])
            arg = (float(local_a[li]), float(local_g[lj]))
        spacing = 2.0 * spacing / (settings.local_grid - 1)
        trace.append((int(round(TWO_PI / spacing)), best))
        if (
            best > settings.divergence_threshold
            and prev > 0
            and best / prev >= settings.growth_factor
        ):
            verdict = Verdict.UNBOUNDED
            break
        if prev > 0 and (best - prev) / prev <= settings.stabilization_rel_tol:
            verdict = Verdict.BOUNDED
            break

    interior_max = None
    if verdict is Verdict.BOUNDED:
        z, w = _interior_points(settings.seed, settings.interior_samples)
        interior = np.abs(
            (1.0 - symbol.value(z) * np.conj(symbol.value(w))) / (1.0 - z * np.conj(w))
        )
        interior_max = float(np.max(interior))
        if interior_max > best * (1.0 + settings.interior_rel_margin):
            verdict = Verdict.INCONCLUSIVE

    return SupEstimate(
        value=float("inf") if verdict is Verdict.UNBOUNDED else best,
        argmax=(BoundaryPoint(arg[0]), BoundaryPoint(arg[1])),
        trace=tuple(trace),
        verdict=verdict,
        interior_max=interior_max,
    )


def _sample_disc(rng, count, max_radius=0.999):
    radius = max_radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angle = rng.uniform(0.0, TWO_PI, size=count)
    return radius * np.exp(1j * angle)


@functools.lru_cache(maxsize=1)
def _interior_points(seed, count):
    """Read-only interior sample points (z, w) of the sanity check for a seed."""
    rng = np.random.default_rng(seed)
    z = _sample_disc(rng, count)
    w = _sample_disc(rng, count)
    z.flags.writeable = w.flags.writeable = False
    return z, w
