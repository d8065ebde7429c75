"""Multivariate polynomials over complex coefficients, stored dense.

The output of ``spectrum.det_pencil``: a polynomial in k variables is a
k-axis ``numpy.complex128`` array whose entry at index e multiplies x^e.
Coefficients of modulus at most ``PRUNE_REL`` times the largest one are
set to zero, which keeps interpolation noise out of equality tests;
``_prune`` is the one place that rule lives, and the constructor and
the coefficient kernels go through it.  The array is never trimmed, so
determinants of one pencil size share one shape and compare without
padding.  A polynomial is only built and written to JSON, with no
arithmetic; ``terms`` lists the nonzero coefficients by exponent vector
for output.
"""

from __future__ import annotations

import numpy as np

PRUNE_REL = 1e-14


def _prune(coeffs):
    """A copy of the stack ``coeffs`` with every entry of each ``coeffs[i]``
    of modulus at most ``PRUNE_REL`` times that array's largest set to
    zero (all of them when the largest is 0); -0.0 parts become 0.0."""
    mags = np.abs(coeffs)
    out = coeffs + 0j
    out[mags <= PRUNE_REL * mags.max(axis=tuple(range(1, mags.ndim)), keepdims=True,
                                     initial=0.0)] = 0
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

    def __init__(self, vars, coeffs):
        """Polynomial whose coefficient of x^e is ``coeffs[e]`` (one axis
        per variable), pruned."""
        self.vars = tuple(vars)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != len(self.vars):
            raise ValueError(f"coefficient array has {coeffs.ndim} axes "
                             f"for {len(self.vars)} variables")
        self.coeffs = _prune(coeffs[None])[0]

    @property
    def terms(self) -> dict:
        """The nonzero coefficients keyed by exponent vector, in
        lexicographic (C index) order."""
        nz = self.coeffs != 0
        return dict(zip(map(tuple, np.argwhere(nz).tolist()), self.coeffs[nz].tolist()))

    def __repr__(self):
        body = " + ".join(f"{c}*{exp}" for exp, c in self.terms.items()) or "0"
        return f"MultiPoly({','.join(self.vars)}: {body})"


# --- Poly JSON: {"vars": [...], "terms": [{"exp": [...], "re": r, "im": i}]} ---

def poly_to_json(p: MultiPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [{"exp": list(exp), "re": c.real, "im": c.imag}
                  for exp, c in p.terms.items()],
    }
