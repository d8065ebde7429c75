"""Spectral rigidity as an executable check.

Equality of the adjoint-augmented pair spectra against the reference
ladder triple forces unitary equivalence, and the proof is constructive:
diagonalize A1, read the ladder phases off A2 and A3 in that eigenbasis,
and assemble the diagonal unitary witness

    W_tilde = diag(1, e^(-i t1), e^(-i (t1+t2)), ...)

that conjugates the reference triple onto the candidate.

Each reference (family, n, nu) is built once and cached read-only with
the constants every call reads (``_Reference``).  Verification tests
A1's normality, then evaluates the family's pencils (``SNU2_PENCILS``,
``SL2_PENCILS``; second slots from ``_PRODUCTS``) as one coefficient
stack, compared with the reference's in one array expression.
Reconstruction, ``_reconstruct``, checks the dimension, runs step 1
(A1's eigenbasis in the reference order, unresolved clusters built down
the A2 ladder), then the family's named steps, and returns the
certified witness or the first failing step with diagnostics:

  snu2  step3 A2 support, step3 A3^H support, step2 adjoint products,
        step4 phases, step5 certification;
  sl2   step3 A2 support, step2 adjoint products, step4 compressions
        and unimodular A3 subdiagonal, step4 phases, step5 HS budget,
        step6 certification.

sl2 has no (A1, A3* A3) pencil, so the compressions on the (A1, A2 A3)
lines and the Hilbert-Schmidt budget pin A3.

``snu2_rigidity`` / ``sl2_rigidity`` are the entry points: they chain
the two private stages, ``_verify_conditions`` and ``_reconstruct``,
into the verdicts ``equivalent``, ``hypothesis_failed`` and
``reconstruction_failed``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .generators import GeneratorTuple, sl2_generators, snu2_generators
from .linalg import (DEFAULT_TOL, NotHermitianError, _check_tol, _is_normal, _phase_fixed,
                     as_matrix, hermitian_eig, hs_norm, matrix_to_json, spectral_projection)
from .poly import LinearForm, divide_linear
from .spectrum import (_PAIR_VARS, _compare_stacks, _det_stack, _product_of_lines,
                       _slot_matrices, det_pencil, x2_dependence)

EQUIVALENT = "equivalent"
HYPOTHESIS_FAILED = "hypothesis_failed"
RECONSTRUCTION_FAILED = "reconstruction_failed"

SNU2_PENCILS = ("A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A3^H A3",
                "A1, A2 A3")
SL2_PENCILS = ("A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A2 A3")

# the second slot of each pencil, as a product of A2, A3 and adjoints
_PRODUCTS = {
    "A1, A2 A2^H": lambda a2, a3: a2 @ a2.conj().T,
    "A1, A2^H A2": lambda a2, a3: a2.conj().T @ a2,
    "A1, A3 A3^H": lambda a2, a3: a3 @ a3.conj().T,
    "A1, A3^H A3": lambda a2, a3: a3.conj().T @ a3,
    "A1, A2 A3": lambda a2, a3: a2 @ a3,
}


class LineNotInSpectrumError(ValueError):
    pass


class MultiplicityError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


@dataclass(frozen=True)
class ConditionReport:
    a1_normal: bool
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return self.a1_normal and all(c.equal for c in self.checks)

    def residuals(self) -> dict:
        return {c.pencil: c.residual for c in self.checks}


@dataclass
class RigidityReport:
    """Outcome of a rigidity run.

    ``witness`` is the canonical diagonal unitary (first entry 1) and
    ``basis`` the A1-eigenbasis unitary; their product conjugates the
    reference triple onto the candidate.  ``residual`` is the certified
    reconstruction residual, normalized per slot by max(1, ||ref slot||).
    """

    verdict: str
    witness: np.ndarray | None = None
    basis: np.ndarray | None = None
    condition_residuals: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    residual: float | None = None

    @property
    def global_witness(self) -> np.ndarray | None:
        if self.witness is None or self.basis is None:
            return None
        return self.basis @ self.witness

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else matrix_to_json(self.witness),
            "basis": None if self.basis is None else matrix_to_json(self.basis),
            "condition_residuals": dict(self.condition_residuals),
            "diagnostics": list(self.diagnostics),
            "residual": self.residual,
        }


# --- verification ---------------------------------------------------------------

# a cached reference: the read-only triple and what every call reads of it (its
# pencils' coefficient stack, largest moduli and slot scales, the product
# diagonals, H's diagonal and its scale, the ladder diagonals with their moduli
# and least moduli, max(1, ||slot||) per slot); the cache keeps the
# _REFERENCES_KEPT most recently used, in dict order
_Reference = namedtuple("_Reference", "ref pencils steps coeffs coeff_max s1 s2 expected "
                        "diag diag_scale e_sd f_sd e_mod f_mod e_min f_min slot_norms")
_references = {}
_REFERENCES_KEPT = 64


def _reference(family, n, nu=None) -> _Reference:
    """The reference of ``family`` at (n, nu), built on first use."""
    key = (family, n, nu)
    entry = _references.pop(key, None)
    if entry is None:
        ref, pencils, steps = ((snu2_generators(n, nu), SNU2_PENCILS, _SNU2_STEPS)
                               if family == "snu2" else
                               (sl2_generators(n), SL2_PENCILS, _SL2_STEPS))
        for m in ref.matrices:
            m.flags.writeable = False
        polys = reference_pencil_polys(ref, pencils).values()
        diag, sds = np.diag(ref.h).real, (ref.e.diagonal(1), ref.f.diagonal(-1))
        entry = _Reference(
            ref, pencils, steps, np.stack([p.coeffs for p, _ in polys]),
            np.array([p.max_abs_coeff() for p, _ in polys]),
            next(iter(polys))[1][0], tuple(s2 for _, (_, s2) in polys),  # H's scale is every s1
            {name: np.diag(_PRODUCTS[name](ref.e, ref.f)).real.copy()
             for name in pencils if name != "A1, A2 A3"},
            diag, max(1.0, float(np.max(np.abs(diag)))), *sds, *map(np.abs, sds),
            *(float(np.abs(sd).min(initial=np.inf)) for sd in sds),
            tuple(max(1.0, hs_norm(m)) for m in ref.matrices))
        if len(_references) >= _REFERENCES_KEPT:
            del _references[next(iter(_references))]
    _references[key] = entry
    return entry


def reference_pencil_polys(ref: GeneratorTuple, pencils) -> dict:
    """{pencil: (poly, (s1, s2))}: the reference pair-spectrum polynomials
    at the slot scales 1 / max(1, ||slot||_HS) (see ``slot_scales``).
    Each pencil pairs the diagonal H with an exactly diagonal product of
    ladder matrices, so each polynomial is an exact product of lines."""
    h = ref.h
    out = {}
    for name in pencils:
        b = _PRODUCTS[name](ref.e, ref.f)
        if hs_norm(b - np.diag(np.diag(b))) != 0.0:
            raise AssertionError(f"reference product for {name} is not diagonal")
        scales = (1.0 / max(1.0, hs_norm(h)), 1.0 / max(1.0, hs_norm(b)))
        out[name] = (_product_of_lines(zip(np.diag(h) * scales[0],
                                           np.diag(b) * scales[1])), scales)
    return out


def _verify_conditions(mats, entry, tol):
    """A1's normality, then all the family's pencils in one stacked pass,
    compared with the reference's coefficient stack.  The slots are
    finite, so a non-finite pencil means a product overflowed float64."""
    a1, a2, a3 = mats
    if not _is_normal(a1, tol):
        return ConditionReport(a1_normal=False, checks=())
    first = entry.s1 * a1
    pencils = np.array([(first, s2 * _PRODUCTS[name](a2, a3))
                        for name, s2 in zip(entry.pencils, entry.s2)])
    if not np.isfinite(pencils).all():
        raise ValueError("the candidate's pencil products overflow float64")
    return ConditionReport(a1_normal=True, checks=_compare_stacks(
        entry.pencils, _det_stack(pencils), entry.coeffs, tol, entry.coeff_max))


# --- reconstruction -----------------------------------------------------------

def _fail(step, message, diagnostics=None, residuals=None):
    rep = RigidityReport(verdict=RECONSTRUCTION_FAILED)
    rep.diagnostics.append(f"{step}: {message}")
    rep.diagnostics.extend(diagnostics or [])
    rep.condition_residuals.update(residuals or {})
    return rep


def _eigenbasis_matched(a1, a2, entry, tol):
    """Diagonalize A1 and order its eigenbasis as the reference diagonal
    is ordered (nearest-value matching is just index order once both lists
    are sorted the same way; the reference spectra are simple).

    At small |nu| the ladder diagonal clusters exponentially, so A1's
    eigenvectors are ill-determined inside a cluster of eigenvalues closer
    than max(tol, eps/tol) * max(1, ||A1||).  A cluster below a column is
    built down the ladder, as in the proof: the next column is A2 times
    the one above, twice orthogonalized against the columns built so far
    and projected onto the cluster's span (each pass projects: A2 amplifies
    rounding), normalized and phase-fixed as in ``hermitian_eig``.  If a
    step vanishes (or is NaN), the cluster keeps A1's columns.  Every
    structural check downstream still has to pass, so the basis cannot
    manufacture a witness that is not there.
    """
    dec = hermitian_eig(a1, tol)
    values, vectors = dec.values, dec.vectors.copy()
    if entry.diag[0] > entry.diag[-1]:
        values, vectors = values[::-1], vectors[:, ::-1]
    gap = float(np.abs(values - entry.diag).max())
    if gap > tol * entry.diag_scale:
        return values, vectors, gap, False

    theta = max(tol, float(np.finfo(np.float64).eps) / tol) * max(1.0, hs_norm(a1))
    cuts = (np.flatnonzero(np.abs(np.diff(values)) > theta) + 1).tolist()
    for start, stop in reversed(list(zip([0, *cuts], cuts))):  # each cluster below a column
        if stop - start > 1:
            q, cols = vectors[:, start:stop], vectors[:, start:stop + 1].copy()
            for k in range(stop - start - 1, -1, -1):
                w, built = a2 @ cols[:, k + 1:k + 2], cols[:, k + 1:-1]
                for _ in range(2):
                    w = q @ (q.conj().T @ (w - built @ (built.conj().T @ w)))
                norm = hs_norm(w)
                if not norm > 0:
                    break
                cols[:, k:k + 1] = _phase_fixed((w.view(np.float64) / norm).view(np.complex128))
            else:
                vectors[:, start:stop] = cols[:, :-1]
    return values, vectors, gap, True


@dataclass
class _Frame:
    """What the reconstruction steps read and write: the reference entry,
    the candidate in A1's matched eigenbasis (``ahat``, ``basis``,
    ``values``), the phases read off A2 and the final report."""

    entry: _Reference
    tol: float
    values: np.ndarray
    basis: np.ndarray
    ahat: tuple
    phases: np.ndarray | None = None
    report: RigidityReport | None = None


def _reconstruct(mats, entry, tol) -> RigidityReport:
    """The dimension check and step 1, then each (name, step) of the
    family's ``entry.steps`` in order.  A step returns None when it
    passes, else the arguments of ``_fail`` after the step name; the last
    step stores the report."""
    n = entry.ref.n
    a1, a2, a3 = mats
    if a1.shape != (n, n):
        return _fail("step1", f"candidate dimension {a1.shape[0]} != n={n}")
    try:
        values, v, gap, ok = _eigenbasis_matched(a1, a2, entry, tol)
    except NotHermitianError:
        return _fail("step1", "A1 is not Hermitian/normal within tolerance")
    if not ok:
        return _fail("step1", f"spectrum of A1 does not match the reference "
                              f"diagonal (max gap {gap:.3g})")
    frame = _Frame(entry, tol, values, v, tuple(v.conj().T @ a @ v for a in mats))
    for name, step in entry.steps:
        failure = step(frame)
        if failure:
            return _fail(name, *failure)
    return frame.report


def _superdiagonal_support(label, mat, ref_moduli, tol):
    """First column and last row must vanish and all mass must sit on the
    superdiagonal with the reference moduli.  Returns the failure message
    about ``label``, or None."""
    n = mat.shape[0]
    s = max(1.0, hs_norm(mat))
    sd = mat.diagonal(1)
    off = mat - np.diag(sd, 1)
    if hs_norm(off[:, 0]) > tol * s or hs_norm(off[n - 1, :]) > tol * s:
        return f"{label}: first column or last row of {label} is not zero"
    norm = hs_norm(off)
    if norm > tol * s:
        # name the largest entries: the norm can exceed the threshold when
        # no single entry does
        mags = np.abs(off).ravel()
        where = ", ".join(f"({k // n},{k % n})" for k in np.argsort(-mags, kind="stable")[:4]
                          if mags[k] > 0)
        return (f"{label}: {label} support off the superdiagonal at {where} "
                f"(HS norm {norm:.3g} > {tol * s:.3g})")
    gaps = np.abs(np.abs(sd) - ref_moduli)
    if gaps.size and float(gaps.max()) > tol * s:
        j = int(np.argmax(gaps))
        return (f"{label}: superdiagonal modulus mismatch at ({j},{j + 1}): "
                f"|{complex(sd[j]):.6g}| vs {ref_moduli[j]:.6g}")
    return None


def _a2_support(fr):
    """A2 is supported on the superdiagonal with the reference moduli;
    off-diagonal mass triggers the x2-dependence diagnostic.  The
    entrywise support checks run before the coarser product checks, so a
    bumped modulus is reported as the support violation it is."""
    msg = _superdiagonal_support("A2", fr.ahat[1], fr.entry.e_mod, fr.tol)
    if msg:
        dep = x2_dependence(np.diag(fr.values).astype(np.complex128), fr.ahat[1])
        return msg, [f"x2_dependence detected: {dep}"]
    return None


def _a3_adjoint_support(fr):
    """Mirror of ``_a2_support`` for A3 and its subdiagonal (snu2)."""
    msg = _superdiagonal_support("A3^H", fr.ahat[2].conj().T, fr.entry.f_mod, fr.tol)
    return (msg,) if msg else None


def _adjoint_products(fr):
    """The products of the pencils other than (A1, A2 A3) are diagonal in
    A1's eigenbasis with the reference values."""
    for name, expected in fr.entry.expected.items():
        prod = _PRODUCTS[name](fr.ahat[1], fr.ahat[2])
        s = max(1.0, hs_norm(prod))
        label = name.removeprefix("A1, ")
        if hs_norm(prod - np.diag(prod.diagonal())) > fr.tol * s:
            return (f"{label} is not diagonal in the A1 eigenbasis",)
        gaps = np.abs(prod.diagonal() - expected)
        if float(gaps.max()) > fr.tol * s:
            j = int(np.argmax(gaps))
            return (f"{label} diagonal mismatch at index {j}: "
                    f"{complex(prod[j, j]):.6g} vs expected {expected[j]:.6g}",)
    return None


def _unit_phases(entries, ref_entries):
    ratios = np.asarray(entries) / np.asarray(ref_entries)
    mods = np.abs(ratios)
    mods[mods == 0] = 1.0
    return ratios / mods


def _phases(fr):
    """The phases read off A2's superdiagonal and A3's subdiagonal
    agree."""
    ahat, entry = fr.ahat, fr.entry
    fr.phases = _unit_phases(ahat[1].diagonal(1), entry.e_sd)
    if not fr.phases.size:
        return None
    sigma = np.conj(_unit_phases(ahat[2].diagonal(-1), entry.f_sd))
    phase_tol = fr.tol * max(1.0, hs_norm(ahat[1]) / entry.e_min,
                             hs_norm(ahat[2]) / entry.f_min)
    phase_gap = float(np.abs(fr.phases - sigma).max())
    if phase_gap > phase_tol:
        return (f"phase mismatch between A2 and A3 "
                f"(Lambda != Sigma, max gap {phase_gap:.3g})",)
    return None


def _compressions(fr):
    """sl2: the spectral compressions on the lines
    (n-1-2j) x1 + (j+1)(n-1-j) x2 = 1 of (A1, A2 A3) pin the subdiagonal
    of A3, whose entries must then be unimodular."""
    n, ahat, tol = fr.entry.ref.n, fr.ahat, fr.tol
    prod23 = ahat[1] @ ahat[2]
    mus = np.array([(j + 1) * (n - 1 - j) for j in range(n - 1)], dtype=float)
    comp_gap = np.abs(prod23.diagonal()[:-1] - mus)
    if float(comp_gap.max()) > tol * max(1.0, hs_norm(prod23)):
        j = int(np.argmax(comp_gap))
        return (f"compression mismatch on line {j}: "
                f"(A2 A3)_{j}{j} = {complex(prod23[j, j]):.6g} vs {mus[j]:.6g}",)
    mod_gap = np.abs(np.abs(ahat[2].diagonal(-1)) - 1.0)
    if float(mod_gap.max()) > tol * max(1.0, hs_norm(ahat[2])):
        j = int(np.argmax(mod_gap))
        return (f"A3 subdiagonal entry ({j + 1},{j}) is not unimodular",)
    return None


def _hs_budget(fr):
    """sl2: the Hilbert-Schmidt budget trace(A3 A3*) = n-1 forces every
    entry of A3 off the subdiagonal to zero."""
    total = hs_norm(fr.ahat[2]) ** 2
    sub_mass = float(np.sum(np.abs(fr.ahat[2].diagonal(-1)) ** 2))
    if total - sub_mass > fr.tol * max(1.0, total):
        return (f"hs-budget violation: trace(A3 A3*) = {total:.6g} "
                f"carries {total - sub_mass:.3g} off the subdiagonal",)
    return None


def _certified(fr):
    """Certify all three slots with the witness diag(1, conj(p0),
    conj(p0 p1), ...), the canonical diagonal unitary with first entry 1
    built from the superdiagonal phases p."""
    w = np.diag(np.concatenate([[1.0 + 0j], np.conj(np.cumprod(fr.phases))]))
    per_slot = {f"certify {name}": hs_norm(a - w @ r @ w.conj().T) / s for name, a, r, s
                in zip(("A1", "A2", "A3"), fr.ahat, fr.entry.ref.matrices, fr.entry.slot_norms)}
    resid = max(per_slot.values())
    if resid > fr.tol:
        return f"certification residual {resid:.3g} exceeds tolerance", None, per_slot
    fr.report = RigidityReport(verdict=EQUIVALENT, witness=w, basis=fr.basis,
                               condition_residuals=per_slot, residual=resid)
    return None


_SNU2_STEPS = (("step3", _a2_support), ("step3", _a3_adjoint_support),
               ("step2", _adjoint_products), ("step4", _phases),
               ("step5", _certified))
_SL2_STEPS = (("step3", _a2_support), ("step2", _adjoint_products),
              ("step4", _compressions), ("step4", _phases), ("step5", _hs_budget),
              ("step6", _certified))


# --- drivers ------------------------------------------------------------------

def _drive(t, tol, family, n, nu=None) -> RigidityReport:
    """Both stages on one reference lookup and one validation of the
    slots: verification, then reconstruction if every hypothesis holds."""
    _check_tol(tol)
    entry, mats = _reference(family, n, nu), _slot_matrices(t)
    cond = _verify_conditions(mats, entry, tol)
    if cond.all_passed:
        rep = _reconstruct(mats, entry, tol)
    else:
        rep = RigidityReport(verdict=HYPOTHESIS_FAILED)
        if not cond.a1_normal:
            rep.diagnostics.append("A1 is not normal")
        rep.diagnostics.extend(f"pencil equality failed: {c.pencil}"
                               for c in cond.checks if not c.equal)
    rep.condition_residuals.update(cond.residuals())
    return rep


def snu2_rigidity(t, n: int, nu: float, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Full pipeline: hypothesis verification, then reconstruction.
    ``tol`` must be finite and positive."""
    return _drive(t, tol, "snu2", n, nu)


def sl2_rigidity(t, n: int, tol: float = DEFAULT_TOL) -> RigidityReport:
    return _drive(t, tol, "sl2", n)


# --- spectral compressions and final certification -----------------------------

def compression_check(a1, b, lam, mu, tol: float = DEFAULT_TOL) -> bool:
    """Whether P b P = mu P for the spectral projection P of the normal
    matrix a1 at eigenvalue lam.

    Requires the line lam x1 + mu x2 = 1 to lie in the pair spectrum of
    (a1, b) with multiplicity 1: the determinant polynomial must be
    divisible by the line exactly once (checked by synthetic division).
    """
    _check_tol(tol)
    a1 = as_matrix(a1)
    b = as_matrix(b)
    p = det_pencil([a1, b], _PAIR_VARS)
    form = LinearForm((complex(lam), complex(mu)), -1.0)
    scale = max(1.0, p.max_abs_coeff())
    q, r = divide_linear(p, form)
    if r.max_abs_coeff() > tol * scale:
        raise LineNotInSpectrumError(
            f"line {lam} x1 + {mu} x2 = 1 is not in the pair spectrum")
    _, r2 = divide_linear(q, form)
    if r2.max_abs_coeff() <= tol * max(1.0, q.max_abs_coeff()):
        raise MultiplicityError("line has multiplicity > 1; the compression "
                                "identity requires multiplicity 1")
    proj = spectral_projection(a1, lam, tol)
    resid = hs_norm(proj @ b @ proj - mu * proj)
    return resid <= tol * max(1.0, hs_norm(b))


def certify_equivalence(t, ref, w, tol: float = DEFAULT_TOL) -> float:
    """Max over the three slots of ||t_i - w ref_i w*||_HS, normalized by
    max(1, ||ref_i||_HS) so the figure is comparable across the scale
    range of the ladder matrices.  ``w`` must be unitary."""
    _check_tol(tol)
    mats = _slot_matrices(t)
    refs = _slot_matrices(ref)
    w = as_matrix(w)
    n = w.shape[0]
    if hs_norm(w @ w.conj().T - np.eye(n)) > tol * max(1.0, hs_norm(w) ** 2):
        raise NotUnitaryError("witness is not unitary within tolerance")
    return max(hs_norm(a - w @ r @ w.conj().T) / max(1.0, hs_norm(r))
               for a, r in zip(mats, refs))
