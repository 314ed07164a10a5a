#!/usr/bin/env python3
"""Recompute the reference values frozen in tests/oracles.py.

Two independent routes for the pairwise double integral of monomials at
sigma = tau = 1, beta = 0.5:

* the rotation-invariant series expansion (tests/oracles.py), Richardson-
  extrapolated in the truncation length;
* the spectral pairwise quadrature (``pairwise_difference_integral``, which
  reads the ring spectra off the series' coefficients) on a 128x512 rule,
  4x the default resolution.

Their agreement, limited by the quadrature, is what justifies pinning both
numbers: 1.1e-5 relative for z, growing with the degree to 3.5e-4 for z^8.

Run with discop importable, e.g. ``PYTHONPATH=src python scripts/compute_reference_values.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import pairwise_series_oracle, dirichlet_monomial_sq  # noqa: E402

from discop.norms import pairwise_difference_integral  # noqa: E402
from discop.series import TruncatedPowerSeries  # noqa: E402


def main() -> int:
    sigma = tau = 1.0
    beta = 0.5
    q = 2.0 * (beta + 2.0)
    print(f"sigma = tau = {sigma}, beta = {beta} (p = 1, q = {q})\n")
    print(f"{'n':>2} {'series oracle':>20} {'quadrature 4x':>20} {'rel diff':>10} {'ratio':>12}")
    for n in range(1, 9):
        oracle = pairwise_series_oracle(n, sigma, tau, beta)
        quad = pairwise_difference_integral(
            TruncatedPowerSeries.monomial(n), sigma, tau, q, 128, 512
        )
        ratio = oracle / dirichlet_monomial_sq(n, 1.0)
        print(f"{n:>2} {oracle:>20.12e} {quad:>20.12e} {abs(quad-oracle)/oracle:>10.2e} {ratio:>12.8f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
