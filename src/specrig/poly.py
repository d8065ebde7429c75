"""Multivariate polynomials over complex coefficients, stored dense.

The representation of determinantal hypersurfaces: a polynomial in k
variables is a k-axis ``numpy.complex128`` array whose entry at index e
multiplies x^e.  Coefficients of modulus at most ``PRUNE_REL`` times the
largest one are set to zero, which keeps interpolation noise out of
equality tests; ``_prune`` is the one place that rule lives, and every
constructor and coefficient kernel goes through it.  The array is never
trimmed, so determinants of one pencil size share one shape and compare
without padding.  A polynomial is built, evaluated, compared and
written to JSON, with no arithmetic; ``terms`` lists the nonzero
coefficients by exponent vector for output.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _check_tol

PRUNE_REL = 1e-14
MAX_COEFFS = 1 << 22  # largest dense array built from an exponent list


class VariableMismatchError(ValueError):
    pass


def _prune(coeffs, stacked=False):
    """A copy of ``coeffs`` with every entry of modulus at most
    ``PRUNE_REL`` times the largest set to zero (all of them when the
    largest is 0); -0.0 parts become 0.0.  ``stacked`` prunes each
    ``coeffs[i]`` against its own largest entry."""
    mags = np.abs(coeffs)
    out = coeffs + 0j
    top = (mags.max(axis=tuple(range(1, mags.ndim)), keepdims=True, initial=0.0) if stacked
           else mags.max(initial=0.0))
    out[mags <= PRUNE_REL * top] = 0
    return out


def _widen(coeffs, shape):
    """``coeffs`` zero-extended to ``shape``."""
    if coeffs.shape == shape:
        return coeffs
    out = np.zeros(shape, dtype=np.complex128)
    out[tuple(slice(0, s) for s in coeffs.shape)] = coeffs
    return out


class MultiPoly:
    """Polynomial with named variables and a dense complex coefficient
    array ``coeffs`` (``coeffs[e]`` multiplies x^e)."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars, terms=None, prune=True):
        """Polynomial from a map of exponent vectors to coefficients."""
        self.vars = tuple(vars)
        k = len(self.vars)
        items = []
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != k or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {k} variables")
            items.append((exp, complex(c)))
        shape = tuple(max(col) + 1 for col in zip(*(e for e, _ in items))) \
            if items else (1,) * k
        if math.prod(shape) > MAX_COEFFS:
            raise ValueError(f"exponents need a {shape} coefficient array, "
                             f"more than {MAX_COEFFS} entries")
        coeffs = np.zeros(shape, dtype=np.complex128)
        for exp, c in items:
            coeffs[exp] += c
        self.coeffs = _prune(coeffs) if prune else coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, vars, coeffs):
        """Polynomial whose coefficient of x^e is ``coeffs[e]`` (one axis
        per variable), pruned."""
        vars = tuple(vars)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != len(vars):
            raise ValueError(f"coefficient array has {coeffs.ndim} axes "
                             f"for {len(vars)} variables")
        self = cls.__new__(cls)
        self.vars = vars
        self.coeffs = _prune(coeffs)
        return self

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The nonzero coefficients keyed by exponent vector, in
        lexicographic (C index) order."""
        nz = self.coeffs != 0
        return dict(zip(map(tuple, np.argwhere(nz).tolist()), self.coeffs[nz].tolist()))

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def eval(self, point) -> complex:
        """Evaluate at ``point`` by Horner's rule, one variable at a time
        from the last."""
        point = [complex(x) for x in point]
        if len(point) != len(self.vars):
            raise VariableMismatchError(
                f"point has {len(point)} coordinates for {len(self.vars)} variables")
        acc = self.coeffs
        for x in reversed(point):
            val = acc[..., -1]
            for j in range(acc.shape[-1] - 2, -1, -1):
                val = val * x + acc[..., j]
            acc = val
        return complex(acc)

    def __repr__(self):
        body = " + ".join(f"{c}*{exp}" for exp, c in self.terms.items()) or "0"
        return f"MultiPoly({','.join(self.vars)}: {body})"


def poly_distance(p: MultiPoly, q: MultiPoly) -> float:
    """Max coefficient difference."""
    if p.vars != q.vars:
        raise VariableMismatchError(f"{p.vars} vs {q.vars}")
    shape = tuple(map(max, p.coeffs.shape, q.coeffs.shape))
    a, b = _widen(p.coeffs, shape), _widen(q.coeffs, shape)
    return float(np.abs(a - b).max(initial=0.0))


def poly_equal(p: MultiPoly, q: MultiPoly, tol: float = 1e-9) -> bool:
    """Coefficient-wise equality at tolerance relative to the larger of
    the two coefficient scales (and never below absolute ``tol``)."""
    _check_tol(tol)
    scale = max(1.0, p.max_abs_coeff(), q.max_abs_coeff())
    return poly_distance(p, q) <= tol * scale


# --- Poly JSON: {"vars": [...], "terms": [{"exp": [...], "re": r, "im": i}]} ---

def poly_to_json(p: MultiPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [{"exp": list(exp), "re": c.real, "im": c.imag}
                  for exp, c in p.terms.items()],
    }


def poly_from_json(obj) -> MultiPoly:
    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise ValueError("poly JSON must be an object with 'vars' and 'terms'")
    vars = tuple(obj["vars"])
    terms = {}
    for t in obj["terms"]:
        exp = tuple(int(e) for e in t["exp"])
        if len(exp) != len(vars):
            raise ValueError(f"exponent {exp} does not match {len(vars)} variables")
        terms[exp] = complex(float(t["re"]), float(t["im"]))
    return MultiPoly(vars, terms, prune=False)
