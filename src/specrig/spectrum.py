"""Determinantal polynomials of matrix pencils and spectra comparison.

The proper joint spectrum of matrices (M1, ..., Mk) is the zero set of

    p(x) = det(x1 M1 + ... + xk Mk - I),

computed here as an exact multivariate polynomial by evaluating the
determinant on the tensor grid of (n+1)-th roots of unity (degree is at
most n in each variable, so n+1 nodes per axis determine p).  On that
grid the values are the discrete Fourier transform of the coefficient
array, so one inverse DFT recovers the coefficients; the DFT is unitary,
so interpolation adds no error growth with n, unlike a monomial
Vandermonde solve at real nodes.  Node order is fixed, so results are
bit-stable across runs.  The one kernel, ``_det_stack``, returns the
pruned coefficient arrays of pencils sharing k and n as one stack; it
hands LAPACK ``_BLOCK`` matrix entries at a time (memory stays bounded
at large n) and interpolates with one FFT.  Products of lines (reference
spectra, line arrangements) come as stacks of the same layout from
``_line_products``.

A pencil expression grammar selects the slot matrices, e.g.
``"A1, A2 A2^H"`` denotes the pair (A1, A2 A2*).  Atoms A1/A2/A3
and H/E/F are interchangeable names for the three tuple slots, products
are juxtaposition, and the postfix ``^H`` adjoins the atom it follows.
With no parentheses, ``parse_pencil`` gives each slot as a flat tuple of
(slot, adjoint) factors, and one fold, ``_product``, multiplies them; it
also evaluates ``rigidity``'s pencils, whose names are their definitions.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, NotNormalError, _as_square, _check_slot_shapes, _check_tol,
                     _finite, as_matrix, hs_norm, normal_eig)
from .poly import MultiPoly, _prune, _widen

MAX_PENCIL_VARS = 4

_BLOCK = 2 ** 18  # matrix entries per batch of determinants (4 MB)

_SLOT_OF_ATOM = {"A1": 0, "H": 0, "A2": 1, "E": 1, "A3": 2, "F": 2}

_TOKEN_RE = re.compile(r"(?P<token>A[123]|\^H|[HEF]|,)|\s+|(?P<bad>.)", re.DOTALL)


class PencilSyntaxError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


def parse_pencil(src: str):
    """Parse a comma-separated pencil expression list into one product per
    slot, a tuple of (slot, adjoint) factors in product order.  Errors
    raise ``PencilSyntaxError`` with the byte offset; the whole string is
    tokenized first, so a stray character is reported ahead of an empty
    slot or a ``^H`` with nothing to adjoin."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise PencilSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup == "token":
            tokens.append((m.group(), m.start()))
    exprs, current = [], []
    # a comma at the last token's offset closes the last slot
    for tok, at in tokens + [(",", tokens[-1][1] if tokens else 0)]:
        if tok == ",":
            if not current:
                raise PencilSyntaxError("empty pencil slot", at)
            exprs.append(tuple(current))
            current = []
        elif tok == "^H":
            if not current:
                raise PencilSyntaxError("'^H' with nothing to adjoin", at)
            slot, adjoint = current[-1]
            current[-1] = (slot, not adjoint)  # involution: a double adjoint toggles back
        else:
            current.append((_SLOT_OF_ATOM[tok], False))
    return exprs


def _slot_matrices(t):
    """The three validated slot matrices of a tuple or a triple, as one
    (3, n, n) complex128 stack, coerced in one pass and checked square and
    finite.  A triple that fails is checked slot by slot, so the fault is
    named: a slot that is not a square matrix, a count other than three,
    mixed shapes, then a non-finite entry."""
    triple = t.matrices if hasattr(t, "matrices") else t
    try:
        mats = np.asarray(triple, dtype=np.complex128)
    except Exception:  # the checks below name the fault, or accept the slots
        mats = None
    if (mats is not None and mats.ndim == 3 and mats.shape[0] == 3
            and mats.shape[1] == mats.shape[2] > 0 and np.isfinite(mats).all()):
        return mats
    mats = [_as_square(m) for m in triple]
    if len(mats) != 3:
        raise ValueError("expected a triple (A1, A2, A3)")
    _check_slot_shapes(mats)
    return _finite(np.array(mats))


def _product(expr, mats):
    """The product of one parsed pencil slot over ``mats``, left to right,
    unchecked: a non-finite product is the caller's to name."""
    return functools.reduce(np.matmul, (mats[slot].conj().T if adjoint else mats[slot]
                                        for slot, adjoint in expr))


def evaluate_expr(expr, mats):
    """Evaluate a parsed pencil slot against the three slot matrices,
    validating only the slots it references.  A product whose finite
    factors give a non-finite matrix raises."""
    checked = {slot: as_matrix(mats[slot]) for slot, _ in expr}
    with np.errstate(over="ignore", invalid="ignore"):
        out = _product(expr, checked)
    if not np.isfinite(out).all():
        raise ValueError("a pencil product of finite slots overflows float64")
    return out


def _check_pencil(mats) -> None:
    """Raise ``ValueError`` unless ``mats`` is 1 to ``MAX_PENCIL_VARS`` matrices of one shape."""
    if not mats:
        raise ValueError("pencil needs at least one matrix")
    if len(mats) > MAX_PENCIL_VARS:
        raise ValueError(f"pencils in more than {MAX_PENCIL_VARS} variables are unsupported")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("pencil matrices must share one dimension")


def det_pencil(mats, var_names=None, affine: bool = True) -> MultiPoly:
    """Determinant polynomial of a matrix pencil.

    ``affine=True`` (the proper joint spectrum) computes
    det(sum x_i M_i - I), whose constant term is (-1)^n; ``affine=False``
    drops the -I and yields the homogeneous pencil determinant.
    At most 4 variables are supported.
    """
    mats = [as_matrix(m) for m in mats]
    _check_pencil(mats)
    k = len(mats)
    var_names = tuple(var_names) if var_names is not None else tuple(f"x{i + 1}" for i in range(k))
    if len(var_names) != k:
        raise ValueError("need one variable name per pencil matrix")
    if not all(var_names) or len(set(var_names)) != k:
        raise ValueError(f"variable names must be distinct and non-empty, got {list(var_names)}")
    return MultiPoly(var_names, _det_stack([mats], affine)[0])


def _det_stack(pencils, affine=True):
    """The pruned coefficient arrays of ``det_pencil``, one per pencil:
    a (P,) + (n+1,) * k array for P pencils of k finite n x n matrices
    (the callers check that they are finite)."""
    mats = np.asarray(pencils, dtype=np.complex128)  # (P, k, n, n)
    count, k, n = mats.shape[:3]
    # p has degree <= n in each variable: its values on the grid of
    # (n+1)-th roots of unity are the DFT of its coefficient array
    m = n + 1
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    ones = (1,) * (k - 1)
    axes = [nodes.reshape((m,) + ones[i:] + (1, 1)) for i in range(k)]
    # a block of (pencil, first node) rows is whole pencils, or a run of
    # one pencil's first nodes where its grid exceeds _BLOCK matrix entries
    rows = max(1, _BLOCK // (m ** (k - 1) * n * n))
    per, run = (rows // m, m) if rows >= m else (1, rows)
    values = np.empty((count,) + (m,) * k, dtype=np.complex128)
    base = -np.eye(n) if affine else np.zeros((n, n))
    for p0, a0 in itertools.product(range(0, count, per), range(0, m, run)):
        pens = mats[p0:p0 + per].reshape((-1, 1, k) + ones + (n, n))  # (pencil, node, slot, ...)
        xs = [axes[0][a0:a0 + run]] + axes[1:]
        acc = base
        for i, x in enumerate(xs[:-1]):
            acc = acc + x * pens[:, :, i]
        values[p0:p0 + per, a0:a0 + run] = np.linalg.det(acc + xs[-1] * pens[:, :, -1])
    for axis in range(k, 0, -1):  # fftn's order, without its axes handling
        values = np.fft.fft(values, axis=axis)
    return _prune(values / m ** k)


@dataclass(frozen=True)
class Line:
    """The hyperplane sum(coeffs[i] * x_i) = 1 with a multiplicity."""

    coeffs: tuple
    mult: int


@dataclass(frozen=True)
class LineArrangement:
    lines: tuple


def _line_products(lines):
    """The pruned coefficient arrays of products of lines a x1 + b x2 - 1:
    a (P, n, 2) array of (a, b) gives the (P, n+1, n+1) stack of the P
    products, each line pruned against its own largest modulus (-1
    included) and multiplied in order."""
    lines = np.asarray(lines, dtype=np.complex128)
    count, n = lines.shape[:2]
    factors = _prune(np.dstack([lines, -np.ones((count, n))]).reshape(-1, 3))
    c = np.ones((count, 1, 1), dtype=np.complex128)
    # line by line, c <- one c + b x2 c + a x1 c, one degree more per variable
    for a, b, one in factors.reshape(count, n, 3, 1, 1).transpose(1, 2, 0, 3, 4):
        out = np.zeros((count,) + (c.shape[1] + 1,) * 2, dtype=np.complex128)
        out[:, :-1, :-1] = one * c
        out[:, :-1, 1:] += b * c
        out[:, 1:, :-1] += a * c
        c = _prune(out)
    return c


def slot_scales(*mat_groups):
    """Positive per-slot scale factors 1 / max(1, ||M_i||_HS) taken over
    the matrices occupying slot i in every group.

    Scaling pencil slots by positive constants is a bijection of the
    joint spectrum (x_i -> x_i / s_i), so equality questions may be asked
    of the scaled pencils.  Doing so keeps every pencil matrix O(1) and
    the determinant values well conditioned, which matters once the
    ladder matrices reach norms around 1e8 (small nu, large n): raw
    coefficient comparison drowns in the eps * kappa noise of the
    determinant evaluations.
    """
    k = len(mat_groups[0])
    return tuple(1.0 / max(1.0, *(hs_norm(g[i]) for g in mat_groups))
                 for i in range(k))


def lines_of_pair(a, b, tol: float = DEFAULT_TOL):
    """Candidate line decomposition of the pair spectrum of (a, b).

    ``a`` must be normal; candidate lines are lam_j x1 + mu_j x2 = 1 with
    lam_j the eigenvalues of ``a`` and mu_j the diagonal of ``b`` in a's
    eigenbasis.  The arrangement is certified when the product of those
    lines reproduces det(x1 a + x2 b - I), i.e. when the pair spectrum is
    completely reducible; commuting normal pairs certify, and a refusal
    witnesses non-commutativity.  (The certification compares the
    norm-scaled pencils, see ``slot_scales``.)
    """
    _check_tol(tol)
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError("pair matrices must share one dimension")
    try:
        w, v = normal_eig(a, tol)
    except NotNormalError:
        raise NotNormalError("first matrix of the pair must be normal") from None
    mu = np.diag(v.conj().T @ b @ v)
    pairs = np.stack([w, mu], axis=1)

    # group coincident (lam, mu) pairs: multiplicity of a line
    scale = max(1.0, float(np.max(np.abs(pairs))))
    near = np.max(np.abs(pairs[:, None] - pairs[None]), axis=2) <= tol * scale
    free = np.ones(len(w), dtype=bool)
    lines = []
    for i in range(len(w)):
        if free[i]:
            group = free & near[i] & (np.arange(len(w)) >= i)
            free &= ~group
            lines.append(Line(coeffs=(complex(w[i]), complex(mu[i])), mult=int(group.sum())))

    s1, s2 = slot_scales((a, b))
    product = _line_products([[(l.coeffs[0] * s1, l.coeffs[1] * s2)
                               for l in lines for _ in range(l.mult)]])
    (check,) = _compare_stacks([None], product, _det_stack([[s1 * a, s2 * b]]), tol)
    return LineArrangement(lines=tuple(lines)), check.equal


@dataclass(frozen=True)
class PencilComparison:
    pencil: str
    equal: bool
    residual: float


def _compare_stacks(pencils, p, q, tol, q_max=None):
    """Each pencil's ``PencilComparison`` of coefficients p[i] and q[i]: the
    max gap over max(1, largest modulus); ``q_max`` is q's, if known."""
    shape = tuple(map(max, p.shape, q.shape))
    axes = tuple(range(1, len(shape)))
    q_max = np.abs(q).max(axis=axes, initial=0.0) if q_max is None else q_max
    # fmax skips a NaN, as max(1.0, ...) does
    scale = np.fmax(1.0, np.fmax(np.abs(p).max(axis=axes, initial=0.0), q_max))
    dist = np.abs(_widen(p, shape) - _widen(q, shape)).max(axis=axes, initial=0.0)
    return tuple(map(PencilComparison, pencils, (dist <= tol * scale).tolist(),
                     (dist / scale).tolist()))


def spectra_equal(t1, t2, pencils, tol: float = DEFAULT_TOL):
    """Compare the proper joint spectra of two tuples on a list of
    pencils (each pencil a comma-separated slot expression string).

    Equality is coefficient-wise equality of the (norm-scaled, see
    ``slot_scales``) determinant polynomials at the given tolerance; the
    residual is the max coefficient gap relative to the largest one.
    """
    _check_tol(tol)
    m1, m2 = _slot_matrices(t1), _slot_matrices(t2)
    out = []
    for src in pencils:
        exprs = parse_pencil(src)
        g1, g2 = ([evaluate_expr(e, m) for e in exprs] for m in (m1, m2))
        _check_pencil(g1)
        ss = slot_scales(g1, g2)
        p, q = (_det_stack([[s * m for s, m in zip(ss, g)]]) for g in (g1, g2))
        out += _compare_stacks([src], p, q, tol)
    return out


def x2_dependence(a1, a2) -> bool:
    """Whether det(x1 a1 + x2 a2 - I) genuinely involves x2.

    Computed on the norm-scaled pencil (scaling does not change which
    exponents occur); coefficients below 1e-10 times the largest one are
    discarded before reading off the x2-degree.
    """
    a1, a2 = as_matrix(a1), as_matrix(a2)
    _check_pencil((a1, a2))
    s1, s2 = slot_scales((a1, a2))
    (coeffs,) = _det_stack([[s1 * a1, s2 * a2]])
    cut = 1e-10 * max(1.0, np.abs(coeffs).max(initial=0.0))
    return bool(np.any(np.abs(coeffs[:, 1:]) > cut))
