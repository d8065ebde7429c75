"""Constructors for the concrete generator families.

The central family is the ladder triple (H, E, F) of the unique
n-dimensional self-adjoint representation of twisted (quantum) SU(2) at
deformation parameter nu in [-1, 1] \\ {0}:

    H e_k = h_k e_k,          h_k = nu^2/(1-nu^2) * (nu^(2(n-2k-1)) - 1)
    E e_k = nu c_k e_(k-1),   F e_k = -c_(k+1) e_(k+1)

with ladder coefficients

    c_k = nu/(1-nu^2) * [(nu^(n-2k-1) - nu^(n-1)) (nu^(1-n) - nu^(n-2k+1))]^(1/2),

so c_0 = c_n = 0 keeps E and F nilpotent.  At |nu| = 1 the formulas have
removable singularities; the closed-form limits h_k = 2k+1-n and
c_k = sqrt(k(n-k)) are used instead, matching the classical sl(2) scale.

Everything is evaluated through the equivalent product form

    c_k = nu * |nu|^(-k) * sqrt(g_k g_(n-k)),   g_m = 1 + u + ... + u^(m-1),

with u = nu^2, which is free of the catastrophic cancellation the raw
formula suffers near |nu| = 1.  ``c_coeff`` and ``h_coeff`` give one
coefficient; ``_ladder`` gives c_0 .. c_n by the same rule from one g_m
per m, for ``snu2_generators`` and ``exceptional.multiplicity_profile``,
and h_0 .. h_(n-1) from the same g_m for ``snu2_generators``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_check_size, _check_slot_shapes, _is_number, as_matrix, hs_norm,
                     matrix_from_json, matrix_to_json)

FAMILIES = ("snu2", "sl2", "limit_nu1", "fundamental", "one_dim", "counterexample")

ORIENTATIONS = ("paper", "swapped")


@dataclass(frozen=True)
class GeneratorTuple:
    """A triple of n x n matrices with slot semantics (A1, A2, A3) = (H, E, F)."""

    h: np.ndarray
    e: np.ndarray
    f: np.ndarray
    n: int
    nu: float | None
    family: str

    def __post_init__(self):
        _check_slot_shapes(self.matrices)
        for m in self.matrices:
            if m.shape != (self.n, self.n):
                raise ValueError(f"matrix shape {m.shape} does not match n={self.n}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def matrices(self):
        return (self.h, self.e, self.f)


@dataclass(frozen=True)
class RelationResidual:
    """Hilbert-Schmidt residuals of the three deformed commutation
    relations, plus the operand magnitude against which a residual should
    be judged (the relations involve products like nu^-2 E H whose norms
    dwarf the residual's floating-point floor)."""

    r1: float
    r2: float
    r3: float
    orientation: str
    scale: float = 1.0

    def max_relative(self) -> float:
        return max(self.r1, self.r2, self.r3) / max(1.0, self.scale)


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not 0.0 < abs(nu) <= 1.0:  # NaN fails too
        raise ValueError(f"nu must lie in [-1, 1] excluding 0, got {nu}")
    return nu


def _finite_complex(x) -> complex:
    """``x`` as a complex of finite parts, else ``ValueError``."""
    try:
        if cmath.isfinite(z := complex(x)):
            return z
    except OverflowError:  # an int beyond float64
        pass
    raise ValueError("parameters must be finite")


def _geom(m: int, u: float) -> float:
    # 1 + u + ... + u^(m-1), stable for u near 1 via expm1
    if m <= 0:
        return 0.0
    if u == 0.0:  # nu^2 underflowed: the sum is its leading 1
        return 1.0
    lu = math.log(u)
    if lu == 0.0:
        return float(m)
    return math.expm1(m * lu) / math.expm1(lu)


def _overflow(n, nu):
    return ValueError(f"the ladder at n={n}, nu={nu} overflows float64")


def _float64(coeff):
    """``coeff`` raising ``_overflow`` where its value leaves float64
    (Python's float ``**`` raises OverflowError, or ZeroDivisionError on
    a negative power of an underflowed nu^2; a product gives inf)."""
    @functools.wraps(coeff)
    def checked(n, k, nu):
        try:
            if math.isfinite(value := coeff(n, k, nu)):
                return value
        except (OverflowError, ZeroDivisionError):
            pass
        raise _overflow(n, nu)
    return checked


def _c(n, k, nu, g):
    """c_k for 0 < k < n at a checked nu, with g(m) = g_m, called after
    |nu|^-k so that an overflow of the power is raised first."""
    if abs(nu) == 1.0:
        return math.sqrt(k * (n - k))
    return nu * abs(nu) ** (-k) * math.sqrt(g(k) * g(n - k))


@_float64
def c_coeff(n: int, k: int, nu: float) -> float:
    """Ladder coefficient c_k(nu); 0 at k in {0, n}, sqrt(k(n-k)) at |nu| = 1."""
    nu = _check_nu(nu)
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    if k == 0 or k == n:
        return 0.0
    return _c(n, k, nu, lambda m: _geom(m, nu * nu))


def _h(n, k, nu, g):
    """h_k for 0 <= k < n at a checked nu, with g(m) = g_m."""
    if abs(nu) == 1.0:
        return float(2 * k + 1 - n)
    u = nu * nu
    m = n - 2 * k - 1
    if m >= 0:
        return -u * g(m)
    return u ** (1 + m) * g(-m)


def _ladder(n: int, nu: float, diagonal: bool = False):
    """[c_0, ..., c_n] for n >= 1, each as ``c_coeff`` gives it and raising
    as it would, from one g_m per m < n (``c_coeff`` n times would compute
    2(n-1) of them).  With ``diagonal``, the pair of that list and
    [h_0, ..., h_(n-1)] as ``h_coeff`` gives them, from the same g_m."""
    x = _check_nu(nu)
    g = [_geom(m, x * x) for m in range(n)].__getitem__
    try:
        c = [0.0] + [_c(n, k, x, g) for k in range(1, n)] + [0.0]
        h = [_h(n, k, x, g) for k in range(n)] if diagonal else []
        if all(map(math.isfinite, c + h)):
            return (c, h) if diagonal else c
    except (OverflowError, ZeroDivisionError):
        pass
    raise _overflow(n, nu)


@_float64
def h_coeff(n: int, k: int, nu: float) -> float:
    """Diagonal entry h_k(nu); 2k+1-n at |nu| = 1.  Strictly increasing in k."""
    nu = _check_nu(nu)
    if not 0 <= k < n:
        raise ValueError(f"k must lie in 0..{n - 1}, got {k}")
    return _h(n, k, nu, lambda m: _geom(m, nu * nu))


def snu2_generators(n: int, nu: float) -> GeneratorTuple:
    """The n-dimensional deformed ladder triple.

    At |nu| = 1 the family tag is ``limit_nu1`` and the matrices are the
    classical-limit ones (at nu = -1 the sign convention c_k > 0 makes E
    the negative of the nu = +1 limit while F and H agree; the
    self-adjointness relation -nu E* = F holds at both signs).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    nu = _check_nu(nu)
    c, d = _ladder(n, nu, diagonal=True)
    h = np.diag(np.array(d, dtype=np.complex128))
    e = np.diag(np.array([nu * x for x in c[1:n]], dtype=np.complex128), 1)
    f = np.diag(np.array([-x for x in c[1:n]], dtype=np.complex128), -1)
    family = "limit_nu1" if abs(nu) == 1.0 else "snu2"
    return GeneratorTuple(h=h, e=e, f=f, n=n, nu=nu, family=family)


def sl2_generators(n: int) -> GeneratorTuple:
    """The unique n-dimensional irreducible sl(2) triple:
    H = diag(n-1-2j), E with entries j(n-j) on the superdiagonal, F with
    ones on the subdiagonal.  Integer-exact."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    h = np.diag([complex(n - 1 - 2 * j) for j in range(n)])
    e = np.diag(np.array([j * (n - j) for j in range(1, n)], dtype=np.complex128), 1)
    f = np.diag(np.ones(n - 1, dtype=np.complex128), -1)
    return GeneratorTuple(h=h, e=e, f=f, n=n, nu=None, family="sl2")


def fundamental_generators(nu: float) -> GeneratorTuple:
    """The 2-dimensional fundamental triple:
    E = [[0,1],[0,0]], H = diag(1, -nu^2), F = [[0,0],[-nu,0]].

    Satisfies the deformed relations in the ``paper`` orientation, e.g.
    nu F E - (1/nu) E F = H, exactly.
    """
    nu = _check_nu(nu)
    h = np.diag([1.0 + 0j, -nu * nu + 0j])
    e = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    f = np.array([[0, 0], [-nu, 0]], dtype=np.complex128)
    return GeneratorTuple(h=h, e=e, f=f, n=2, nu=nu, family="fundamental")


def one_dim_rep(c: complex, nu: float) -> GeneratorTuple:
    """The 1-dimensional representation: requires |nu| < 1 (the scalar
    formulas have poles at |nu| = 1), finite c != 0 and finite entries."""
    nu = _check_nu(nu)
    if abs(nu) == 1.0:
        raise ValueError("the 1-dimensional family is undefined at |nu| = 1")
    c = _finite_complex(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    u = nu * nu
    entries = [-u / (1 - u), (1.0 / c) * u / (1 - u), c * nu / (1 - u)]
    if not all(map(cmath.isfinite, entries)):
        raise ValueError(f"the 1-dimensional family at c={c}, nu={nu} overflows float64")
    h, e, f = (np.array([[x]], dtype=np.complex128) for x in entries)
    return GeneratorTuple(h=h, e=e, f=f, n=1, nu=nu, family="one_dim")


def counterexample_tuple(alpha, beta, gamma, delta) -> GeneratorTuple:
    """The 3x3 non-rigidity family: A1 = diag(2, 0, -2), A2 carrying
    (alpha, beta) in column 1, A3 carrying (gamma, delta) in row 1,
    constrained by alpha*gamma = beta*delta = 2.

    Its three-matrix joint spectrum coincides with that of the sl(2)
    triple in dimension 3 although [A2, A3] != A1.  The parameters must
    be finite; a product that overflows, or is NaN, fails the constraint.
    """
    alpha, beta, gamma, delta = map(_finite_complex, (alpha, beta, gamma, delta))
    if not all(cmath.isclose(p, 2, rel_tol=0.0, abs_tol=1e-12)
               for p in (alpha * gamma, beta * delta)):
        raise ValueError("parameters must satisfy alpha*gamma = beta*delta = 2")
    h = np.diag([2.0 + 0j, 0j, -2.0 + 0j])
    e = np.array([[0, alpha, 0], [0, 0, 0], [0, beta, 0]], dtype=np.complex128)
    f = np.array([[0, 0, 0], [gamma, 0, delta], [0, 0, 0]], dtype=np.complex128)
    return GeneratorTuple(h=h, e=e, f=f, n=3, nu=None, family="counterexample")


def relation_residuals(t: GeneratorTuple, orientation: str = "paper") -> RelationResidual:
    """Residuals of the three deformed commutation relations.

    ``paper`` orientation:   nu F E - (1/nu)  E F = H
                             nu^2 H E - (1/nu^2) E H = (1+nu^2) E
                             nu^2 F H - (1/nu^2) H F = (1+nu^2) F
    ``swapped`` exchanges the operand order inside each product pair.

    The explicit ladder family satisfies the swapped orientation while
    the fundamental representation satisfies the paper one; both are
    exposed so the split itself can be asserted.  A term that leaves
    float64 (1/nu^2 at a nu near underflow) raises ``ValueError``.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    if t.nu is None or t.family not in ("snu2", "limit_nu1", "fundamental"):
        raise ValueError(f"family {t.family!r} carries no deformation parameter")
    nu = t.nu
    h, e, f = (as_matrix(m) for m in t.matrices)
    mul = (lambda x, y: x @ y) if orientation == "paper" else (lambda x, y: y @ x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pairs = [
            (nu * mul(f, e), mul(e, f) / nu, h),
            (nu**2 * mul(h, e), mul(e, h) / nu**2, (1 + nu**2) * e),
            (nu**2 * mul(f, h), mul(h, f) / nu**2, (1 + nu**2) * f),
        ]
        resids = [hs_norm(a - b - c) for a, b, c in pairs]
        scale = max(1.0, *(hs_norm(m) for pair in pairs for m in pair))
    if not all(map(math.isfinite, [*resids, scale])):
        raise ValueError(f"the relations at nu={nu} overflow float64")
    return RelationResidual(r1=resids[0], r2=resids[1], r3=resids[2],
                            orientation=orientation, scale=scale)


# --- Tuple JSON: {"family":..., "n":..., "nu":..., "matrices": {...}} ---

def tuple_to_json(t: GeneratorTuple) -> dict:
    return {
        "family": t.family,
        "n": t.n,
        "nu": t.nu,
        "matrices": {
            "H": matrix_to_json(t.h),
            "E": matrix_to_json(t.e),
            "F": matrix_to_json(t.f),
        },
    }


def tuple_from_json(obj) -> GeneratorTuple:
    if not isinstance(obj, dict) or "matrices" not in obj:
        raise ValueError("tuple JSON must be an object with 'matrices'")
    mats = obj["matrices"]
    for key in ("H", "E", "F"):
        if key not in mats:
            raise ValueError(f"tuple JSON is missing matrix {key!r}")
    h = matrix_from_json(mats["H"])
    e = matrix_from_json(mats["E"])
    f = matrix_from_json(mats["F"])
    n = _check_size(obj.get("n", h.shape[0]))
    nu = obj.get("nu")
    if not (nu is None or _is_number(nu)):
        raise ValueError(f"'nu' must be a JSON number, got {nu!r}")
    family = obj.get("family", "snu2")
    return GeneratorTuple(h=h, e=e, f=f, n=n,
                          nu=None if nu is None else _check_nu(nu), family=family)
