"""Shared helpers: seeded random matrices and independent oracles."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_hermitian(rng, n):
    z = random_complex(rng, n)
    return (z + z.conj().T) / 2.0


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_phases(rng, n, fix_first=True):
    ph = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    if fix_first:
        ph[0] = 1.0
    return ph


def cofactor_det(a):
    """Recursive cofactor expansion; independent determinant oracle for
    small matrices."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        if a[0, j] == 0:
            continue
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def poly_value(coeffs, point):
    """The polynomial whose coefficient of x^e is ``coeffs[e]`` at
    ``point``, by numpy's ``polyval`` one axis at a time."""
    c = np.asarray(coeffs)
    for x in point:
        c = np.polynomial.polynomial.polyval(complex(x), c)
    return complex(c)


def showcase_coeffs():
    """t(4x^2 + 4yz - t^2), det(x H + y E + z F - t I) of the n = 3 sl(2)
    triple, as det_pencil's (4, 4, 4, 4) coefficient array over (x, y, z, t)."""
    c = np.zeros((4, 4, 4, 4), dtype=np.complex128)
    c[2, 0, 0, 1] = c[0, 1, 1, 1] = 4.0
    c[0, 0, 0, 3] = -1.0
    return c


def coeff_gap(p, q):
    """max |p - q| over two coefficient arrays of one shape, relative to
    max(1, the larger of their largest moduli)."""
    scale = max(1.0, np.abs(p).max(initial=0.0), np.abs(q).max(initial=0.0))
    return float(np.abs(p - q).max(initial=0.0) / scale)


def cyclic_permutation(n):
    """The cyclic permutation matrix: ones on the superdiagonal plus a one
    in the bottom-left corner; conjugation by it shifts a diagonal
    cyclically."""
    return np.roll(np.eye(n, dtype=np.complex128), 1, axis=1)
