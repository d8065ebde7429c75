"""Spectral rigidity as an executable check.

Equality of the adjoint-augmented pair spectra against the reference
ladder triple forces unitary equivalence, and the proof is constructive:
diagonalize A1, read the ladder phases off A2 and A3 in that eigenbasis,
and assemble the diagonal unitary witness

    W_tilde = diag(1, e^(-i t1), e^(-i (t1+t2)), ...)

that conjugates the reference triple onto the candidate.

Verification compares the family's pencils (``SNU2_PENCILS``,
``SL2_PENCILS``) with the reference; the second slot of every pencil is
read from one product table, ``_PRODUCTS``.  Reconstruction is one
pipeline, ``_reconstruct``, for both families.  It checks the dimension,
runs step 1 (diagonalize A1 and order the eigenbasis as the reference
diagonal is ordered: ascending for snu2, descending for sl2), then the
family's ordered list of named steps, and returns the certified witness
or the first step that fails, with diagnostics:

  snu2  step3 A2 support, step3 A3^H support, step2 adjoint products,
        step4 phases, step5 certification;
  sl2   step3 A2 support, step2 adjoint products, step4 compressions
        and unimodular A3 subdiagonal, step4 phases, step5 HS budget,
        step6 certification.

The sl2 hypothesis set has no (A1, A3* A3) pencil, so A3 is pinned by
the compressions on the (A1, A2 A3) lines and the Hilbert-Schmidt budget
instead of its own support check.  ``snu2_rigidity`` / ``sl2_rigidity``
chain verification and reconstruction and map the outcome onto the
verdicts ``equivalent``, ``hypothesis_failed`` and
``reconstruction_failed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import GeneratorTuple, sl2_generators, snu2_generators
from .linalg import (DEFAULT_TOL, NotHermitianError, as_matrix, classify,
                     hermitian_eig, hs_norm, matrix_to_json, spectral_projection)
from .poly import LinearForm, divide_linear
from .spectrum import (_PAIR_VARS, _compare, _product_of_lines, _slot_matrices,
                       det_pencil, x2_dependence)

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

_ref_cache = {}


def reference_pencil_polys(ref: GeneratorTuple, pencils) -> dict:
    """Pair-spectrum polynomials of the reference triple, with the
    per-slot norm scales they were computed at.

    Every reference pencil pairs the diagonal H with a product of ladder
    matrices that is itself exactly diagonal, so each polynomial is an
    exact product of lines (no interpolation on the reference side).
    The pencil slots are scaled by 1 / max(1, ||slot||_HS), a spectra
    bijection that keeps candidate-side determinant evaluations well
    conditioned even when the ladder norms reach 1e8.  Returns
    {pencil: (poly, (s1, s2))}.
    """
    key = (ref.family, ref.n, ref.nu, tuple(pencils))
    if key in _ref_cache:
        return _ref_cache[key]
    h = ref.h
    out = {}
    for name in pencils:
        b = _PRODUCTS[name](ref.e, ref.f)
        if hs_norm(b - np.diag(np.diag(b))) != 0.0:
            raise AssertionError(f"reference product for {name} is not diagonal")
        scales = (1.0 / max(1.0, hs_norm(h)), 1.0 / max(1.0, hs_norm(b)))
        out[name] = (_product_of_lines(zip(np.diag(h) * scales[0],
                                           np.diag(b) * scales[1])), scales)
    _ref_cache[key] = out
    return out


def _verify_conditions(t, ref, pencils, tol):
    a1, a2, a3 = _slot_matrices(t)
    if not classify(a1, tol).normal:
        return ConditionReport(a1_normal=False, checks=())
    refs = reference_pencil_polys(ref, pencils)
    checks = []
    for name in pencils:
        q, (s1, s2) = refs[name]
        p = det_pencil([s1 * a1, s2 * _PRODUCTS[name](a2, a3)], _PAIR_VARS)
        checks.append(_compare(name, p, q, tol))
    return ConditionReport(a1_normal=True, checks=tuple(checks))


def verify_conditions_snu2(t, n: int, nu: float, tol: float = DEFAULT_TOL) -> ConditionReport:
    """The five pair-spectrum equalities against the deformed ladder
    reference: (A1, A2 A2*), (A1, A2* A2), (A1, A3 A3*), (A1, A3* A3)
    and (A1, A2 A3).  A non-normal A1 fails immediately."""
    return _verify_conditions(t, snu2_generators(n, nu), SNU2_PENCILS, tol)


def verify_conditions_sl2(t, n: int, tol: float = DEFAULT_TOL) -> ConditionReport:
    """The four pair-spectrum equalities against the sl(2) reference:
    (A1, A2 A2*), (A1, A2* A2), (A1, A3 A3*) and (A1, A2 A3)."""
    return _verify_conditions(t, sl2_generators(n), SL2_PENCILS, tol)


# --- reconstruction -----------------------------------------------------------

def _fail(step, message, diagnostics=None, residuals=None):
    rep = RigidityReport(verdict=RECONSTRUCTION_FAILED)
    rep.diagnostics.append(f"{step}: {message}")
    rep.diagnostics.extend(diagnostics or [])
    rep.condition_residuals.update(residuals or {})
    return rep


def _eigenbasis_matched(a1, a2, ref, tol):
    """Diagonalize A1 and order its eigenbasis as the reference diagonal
    is ordered (nearest-value matching is just index order once both lists
    are sorted the same way; the reference spectra are simple).

    The ladder diagonal has exponentially clustering entries at small
    |nu|, so A1's eigenvectors can be numerically ill-determined inside a
    near-degenerate cluster even though the exact spectrum is simple.
    Where consecutive eigenvalues lie closer than
    max(tol, eps/tol) * max(1, ||A1||), the basis inside the cluster is
    fixed by diagonalizing the compression of A2 A2*, whose reference
    values separate exactly where H's collide, and matching the refined
    columns to the reference values.  Every downstream structural check
    still has to pass, so the refinement cannot manufacture a witness
    that is not there.
    """
    ref_diag = np.diag(ref.h).real
    dec = hermitian_eig(a1, tol)
    values, vectors = dec.values, dec.vectors.copy()
    if ref_diag[0] > ref_diag[-1]:
        values = values[::-1]
        vectors = vectors[:, ::-1]
    scale = max(1.0, float(np.max(np.abs(ref_diag))))
    gap = float(np.max(np.abs(values - ref_diag)))
    if gap > tol * scale:
        return values, vectors, gap, False

    disambiguator = a2 @ a2.conj().T
    ref_disamb = np.diag(ref.e @ ref.e.conj().T).real
    eps = float(np.finfo(np.float64).eps)
    theta = max(tol, eps / tol) * max(1.0, hs_norm(a1))
    bounds = [0, *(np.flatnonzero(np.abs(np.diff(values)) > theta) + 1).tolist(), len(values)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            idxs = np.arange(start, stop)
            q = vectors[:, idxs]
            block = q.conj().T @ disambiguator @ q
            wb, ub = np.linalg.eigh((block + block.conj().T) / 2.0)
            # refined columns ascending in wb; place them where the
            # reference disambiguator values sit in ascending order
            order = np.argsort(ref_disamb[idxs])
            cols = np.empty_like(ub)
            cols[:, order] = ub
            vectors[:, idxs] = q @ cols
    return values, vectors, gap, True


@dataclass
class _Frame:
    """What the reconstruction steps read and write: the candidate in
    A1's matched eigenbasis (``ahat``, ``basis``, ``values``), the
    phases read off A2 and the final report."""

    ref: GeneratorTuple
    tol: float
    values: np.ndarray
    basis: np.ndarray
    ahat: tuple
    phases: np.ndarray | None = None
    report: RigidityReport | None = None


def _reconstruct(t, ref, tol, steps) -> RigidityReport:
    """The dimension check and step 1, then each (name, step) of
    ``steps`` in order.  A step returns None when it passes, else the
    arguments of ``_fail`` after the step name; the last step stores the
    report."""
    n = ref.n
    a1, a2, a3 = _slot_matrices(t)
    if a1.shape != (n, n):
        return _fail("step1", f"candidate dimension {a1.shape[0]} != n={n}")
    try:
        values, v, gap, ok = _eigenbasis_matched(a1, a2, ref, tol)
    except NotHermitianError:
        return _fail("step1", "A1 is not Hermitian/normal within tolerance")
    if not ok:
        return _fail("step1", f"spectrum of A1 does not match the reference "
                              f"diagonal (max gap {gap:.3g})")
    frame = _Frame(ref, tol, values, v, tuple(v.conj().T @ a @ v for a in (a1, a2, a3)))
    for name, step in steps:
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
    if gaps.size and float(np.max(gaps)) > tol * s:
        j = int(np.argmax(gaps))
        return (f"{label}: superdiagonal modulus mismatch at ({j},{j + 1}): "
                f"|{complex(sd[j]):.6g}| vs {ref_moduli[j]:.6g}")
    return None


def _a2_support(fr):
    """A2 is supported on the superdiagonal with the reference moduli;
    off-diagonal mass triggers the x2-dependence diagnostic.  The
    entrywise support checks run before the coarser product checks, so a
    bumped modulus is reported as the support violation it is."""
    msg = _superdiagonal_support("A2", fr.ahat[1], np.abs(fr.ref.e.diagonal(1)), fr.tol)
    if msg:
        dep = x2_dependence(np.diag(fr.values).astype(np.complex128), fr.ahat[1])
        return msg, [f"x2_dependence detected: {dep}"]
    return None


def _a3_adjoint_support(fr):
    """Mirror of ``_a2_support`` for A3 and its subdiagonal (snu2)."""
    msg = _superdiagonal_support("A3^H", fr.ahat[2].conj().T,
                                 np.abs(fr.ref.f.diagonal(-1)), fr.tol)
    return (msg,) if msg else None


def _adjoint_products(pencils):
    """The step checking that the products of the pencils other than
    (A1, A2 A3) are diagonal in A1's eigenbasis with the reference
    values."""
    names = [p for p in pencils if p != "A1, A2 A3"]

    def step(fr):
        for name in names:
            prod = _PRODUCTS[name](fr.ahat[1], fr.ahat[2])
            expected = np.diag(_PRODUCTS[name](fr.ref.e, fr.ref.f)).real
            s = max(1.0, hs_norm(prod))
            label = name.removeprefix("A1, ")
            if hs_norm(prod - np.diag(np.diag(prod))) > fr.tol * s:
                return (f"{label} is not diagonal in the A1 eigenbasis",)
            gaps = np.abs(np.diag(prod) - expected)
            if float(np.max(gaps)) > fr.tol * s:
                j = int(np.argmax(gaps))
                return (f"{label} diagonal mismatch at index {j}: "
                        f"{complex(prod[j, j]):.6g} vs expected {expected[j]:.6g}",)
        return None
    return step


def _unit_phases(entries, ref_entries):
    ratios = np.asarray(entries) / np.asarray(ref_entries)
    mods = np.abs(ratios)
    mods[mods == 0] = 1.0
    return ratios / mods


def _phases(fr):
    """The phases read off A2's superdiagonal and A3's subdiagonal
    agree."""
    ahat, e_sd, f_sd = fr.ahat, fr.ref.e.diagonal(1), fr.ref.f.diagonal(-1)
    fr.phases = _unit_phases(ahat[1].diagonal(1), e_sd)
    if not fr.phases.size:
        return None
    sigma = np.conj(_unit_phases(ahat[2].diagonal(-1), f_sd))
    phase_tol = fr.tol * max(1.0, hs_norm(ahat[1]) / float(np.min(np.abs(e_sd))),
                             hs_norm(ahat[2]) / float(np.min(np.abs(f_sd))))
    phase_gap = float(np.max(np.abs(fr.phases - sigma)))
    if phase_gap > phase_tol:
        return (f"phase mismatch between A2 and A3 "
                f"(Lambda != Sigma, max gap {phase_gap:.3g})",)
    return None


def _compressions(fr):
    """sl2: the spectral compressions on the lines
    (n-1-2j) x1 + (j+1)(n-1-j) x2 = 1 of (A1, A2 A3) pin the subdiagonal
    of A3, whose entries must then be unimodular."""
    n, ahat, tol = fr.ref.n, fr.ahat, fr.tol
    prod23 = ahat[1] @ ahat[2]
    mus = np.array([(j + 1) * (n - 1 - j) for j in range(n - 1)], dtype=float)
    comp_gap = np.abs(np.diag(prod23)[:-1] - mus)
    if float(np.max(comp_gap)) > tol * max(1.0, hs_norm(prod23)):
        j = int(np.argmax(comp_gap))
        return (f"compression mismatch on line {j}: "
                f"(A2 A3)_{j}{j} = {complex(prod23[j, j]):.6g} vs {mus[j]:.6g}",)
    mod_gap = np.abs(np.abs(ahat[2].diagonal(-1)) - 1.0)
    if float(np.max(mod_gap)) > tol * max(1.0, hs_norm(ahat[2])):
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
    per_slot = {f"certify {name}": hs_norm(a - w @ r @ w.conj().T) / max(1.0, hs_norm(r))
                for name, a, r in zip(("A1", "A2", "A3"), fr.ahat, fr.ref.matrices)}
    resid = max(per_slot.values())
    if resid > fr.tol:
        return f"certification residual {resid:.3g} exceeds tolerance", None, per_slot
    fr.report = RigidityReport(verdict=EQUIVALENT, witness=w, basis=fr.basis,
                               condition_residuals=per_slot, residual=resid)
    return None


_SNU2_STEPS = (("step3", _a2_support), ("step3", _a3_adjoint_support),
               ("step2", _adjoint_products(SNU2_PENCILS)), ("step4", _phases),
               ("step5", _certified))
_SL2_STEPS = (("step3", _a2_support), ("step2", _adjoint_products(SL2_PENCILS)),
              ("step4", _compressions), ("step4", _phases), ("step5", _hs_budget),
              ("step6", _certified))


def reconstruct_snu2(t, n: int, nu: float, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Reconstruct the diagonal unitary witness for a candidate triple
    against the deformed ladder reference, through ``_SNU2_STEPS``.

    Assumes the pair-spectrum hypotheses have been verified (see
    ``verify_conditions_snu2`` / ``snu2_rigidity``); every step still
    guards itself and fails with the step name on violation.
    """
    return _reconstruct(t, snu2_generators(n, nu), tol, _SNU2_STEPS)


def reconstruct_sl2(t, n: int, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Witness reconstruction against the sl(2) reference, through
    ``_SL2_STEPS``: A3 is pinned by the compressions and the
    Hilbert-Schmidt budget in place of its own support check."""
    return _reconstruct(t, sl2_generators(n), tol, _SL2_STEPS)


# --- drivers ------------------------------------------------------------------

def _drive(cond: ConditionReport, reconstruct):
    if not cond.all_passed:
        rep = RigidityReport(verdict=HYPOTHESIS_FAILED)
        rep.condition_residuals.update(cond.residuals())
        if not cond.a1_normal:
            rep.diagnostics.append("A1 is not normal")
        rep.diagnostics.extend(f"pencil equality failed: {c.pencil}"
                               for c in cond.checks if not c.equal)
        return rep
    rep = reconstruct()
    rep.condition_residuals.update(cond.residuals())
    return rep


def snu2_rigidity(t, n: int, nu: float, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Full pipeline: hypothesis verification, then reconstruction."""
    cond = verify_conditions_snu2(t, n, nu, tol)
    return _drive(cond, lambda: reconstruct_snu2(t, n, nu, tol))


def sl2_rigidity(t, n: int, tol: float = DEFAULT_TOL) -> RigidityReport:
    cond = verify_conditions_sl2(t, n, tol)
    return _drive(cond, lambda: reconstruct_sl2(t, n, tol))


# --- spectral compressions and final certification -----------------------------

def compression_check(a1, b, lam, mu, tol: float = DEFAULT_TOL) -> bool:
    """Whether P b P = mu P for the spectral projection P of the normal
    matrix a1 at eigenvalue lam.

    Requires the line lam x1 + mu x2 = 1 to lie in the pair spectrum of
    (a1, b) with multiplicity 1: the determinant polynomial must be
    divisible by the line exactly once (checked by synthetic division).
    """
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
    mats = _slot_matrices(t)
    refs = _slot_matrices(ref)
    w = as_matrix(w)
    n = w.shape[0]
    if hs_norm(w @ w.conj().T - np.eye(n)) > tol * max(1.0, hs_norm(w) ** 2):
        raise NotUnitaryError("witness is not unitary within tolerance")
    return max(hs_norm(a - w @ r @ w.conj().T) / max(1.0, hs_norm(r))
               for a, r in zip(mats, refs))
