"""Small numeric helpers shared by the integral kernels.

The hot loops raise squared moduli to half-integer powers; for the small
integer exponents the weight windows produce, binary exponentiation plus one
square root is far cheaper than transcendental ``pow`` on large arrays.
"""

from __future__ import annotations

import numpy as np


def abs_sq(x):
    """|x|^2 without the square root."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return x.real * x.real + x.imag * x.imag
    return x * x


def powq(base_sq, q, work=None):
    """base_sq ** (q/2), i.e. |x|^q given |x|^2; base_sq is overwritten.

    Fast path for integer q up to 64 (multiplications and at most one sqrt);
    generic powers fall back to np.power.  ``work`` is a (2, *shape) float
    array, allocated when not given; the result is base_sq or a row of work.
    """
    n = int(round(q))
    if not (abs(q - n) < 1e-12 and 0 < n <= 64):
        return np.power(base_sq, 0.5 * q, out=base_sq)
    if work is None:
        work = np.empty((2,) + base_sq.shape)
    # the root first, since the squares overwrite base_sq
    root = np.sqrt(base_sq, out=work[1]) if n % 2 else None
    result, square, m = None, base_sq, n // 2
    while m:
        if m & 1:
            if result is None:
                # a square that later squarings overwrite is copied out
                result = square if m == 1 else np.positive(square, out=work[0])
            else:
                result = np.multiply(result, square, out=result)
        m >>= 1
        if m:
            square = np.multiply(square, square, out=square)
    if root is None:
        return result
    return root if result is None else np.multiply(result, root, out=result)
