"""Spectral rigidity as an executable check.

Equality of the adjoint-augmented pair spectra against the reference
ladder triple forces unitary equivalence, and the proof is constructive:
diagonalize A1, read the ladder phases off A2 and A3 in that eigenbasis,
and assemble the diagonal unitary witness

    W_tilde = diag(1, e^(-i t1), e^(-i (t1+t2)), ...)

that conjugates the reference triple onto the candidate.  The functions
here run that construction step by step and report either the witness or
the first step that fails, with diagnostics.

Verification (the pencil-equality hypotheses) and reconstruction are
separate entry points; ``snu2_rigidity`` / ``sl2_rigidity`` chain them
and map the outcome onto the verdicts ``equivalent``,
``hypothesis_failed`` and ``reconstruction_failed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import GeneratorTuple, sl2_generators, snu2_generators
from .linalg import (DEFAULT_TOL, NotHermitianError, as_matrix, classify,
                     hermitian_eig, hs_norm)
from .poly import LinearForm, MultiPoly, divide_linear, poly_distance
from .spectrum import det_pencil, x2_dependence

EQUIVALENT = "equivalent"
HYPOTHESIS_FAILED = "hypothesis_failed"
RECONSTRUCTION_FAILED = "reconstruction_failed"

SNU2_PENCILS = ("A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A3^H A3",
                "A1, A2 A3")
SL2_PENCILS = ("A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A2 A3")

_PAIR_VARS = ("x1", "x2")


class LineNotInSpectrumError(ValueError):
    pass


class MultiplicityError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


@dataclass(frozen=True)
class PencilCheck:
    pencil: str
    equal: bool
    residual: float


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
        from .linalg import matrix_to_json
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else matrix_to_json(self.witness),
            "basis": None if self.basis is None else matrix_to_json(self.basis),
            "condition_residuals": dict(self.condition_residuals),
            "diagnostics": list(self.diagnostics),
            "residual": self.residual,
        }


def _slot_matrices(t):
    if hasattr(t, "matrices"):
        return tuple(as_matrix(m) for m in t.matrices)
    mats = tuple(as_matrix(m) for m in t)
    if len(mats) != 3:
        raise ValueError("expected a triple (A1, A2, A3)")
    return mats


# --- reference pencil polynomials --------------------------------------------

def _diagonal_pair_poly(hdiag, bdiag) -> MultiPoly:
    """Expanded product of the lines h_j x1 + b_j x2 - 1 (the pair
    spectrum of two commuting diagonal matrices)."""
    p = MultiPoly.constant(_PAIR_VARS, 1.0)
    for hj, bj in zip(hdiag, bdiag):
        p = p * MultiPoly(_PAIR_VARS, {(1, 0): hj, (0, 1): bj, (0, 0): -1.0})
    return p


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
    h, e, f = ref.matrices
    ea, fa = e.conj().T, f.conj().T
    products = {
        "A1, A2 A2^H": e @ ea,
        "A1, A2^H A2": ea @ e,
        "A1, A3 A3^H": f @ fa,
        "A1, A3^H A3": fa @ f,
        "A1, A2 A3": e @ f,
    }
    hdiag = np.diag(h)
    out = {}
    for name in pencils:
        b = products[name]
        off = b - np.diag(np.diag(b))
        if hs_norm(off) != 0.0:
            raise AssertionError(f"reference product for {name} is not diagonal")
        scales = (1.0 / max(1.0, hs_norm(h)), 1.0 / max(1.0, hs_norm(b)))
        out[name] = (_diagonal_pair_poly(hdiag * scales[0], np.diag(b) * scales[1]),
                     scales)
    _ref_cache[key] = out
    return out


def _candidate_products(a1, a2, a3):
    a2h, a3h = a2.conj().T, a3.conj().T
    return {
        "A1, A2 A2^H": a2 @ a2h,
        "A1, A2^H A2": a2h @ a2,
        "A1, A3 A3^H": a3 @ a3h,
        "A1, A3^H A3": a3h @ a3,
        "A1, A2 A3": a2 @ a3,
    }


def _verify_conditions(t, ref, pencils, tol):
    a1, a2, a3 = _slot_matrices(t)
    if not classify(a1, tol).normal:
        return ConditionReport(a1_normal=False, checks=())
    refs = reference_pencil_polys(ref, pencils)
    prods = _candidate_products(a1, a2, a3)
    checks = []
    for name in pencils:
        q, (s1, s2) = refs[name]
        p = det_pencil([s1 * a1, s2 * prods[name]], _PAIR_VARS)
        scale = max(1.0, p.max_abs_coeff(), q.max_abs_coeff())
        dist = poly_distance(p, q)
        checks.append(PencilCheck(pencil=name, equal=dist <= tol * scale,
                                  residual=dist / scale))
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


def _eigenbasis_matched(a1, ref_diag, tol, descending=False,
                        disambiguator=None, ref_disamb=None):
    """Diagonalize A1 and order its eigenbasis against the reference
    diagonal (nearest-value matching is just index order once both lists
    are sorted the same way; the reference spectra are simple).

    The ladder diagonal has exponentially clustering entries at small
    |nu|, so A1's eigenvectors can be numerically ill-determined inside a
    near-degenerate cluster even though the exact spectrum is simple.
    Where consecutive eigenvalues lie closer than
    max(tol, eps/tol) * max(1, ||A1||), the basis inside the cluster is
    fixed by diagonalizing the compression of ``disambiguator``
    (in practice A2 A2*, whose reference values separate exactly where
    H's collide) and matching the refined columns to ``ref_disamb``.
    Every downstream structural check still has to pass, so the
    refinement cannot manufacture a witness that is not there.
    """
    dec = hermitian_eig(a1, tol)
    values, vectors = dec.values, dec.vectors.copy()
    if descending:
        values = values[::-1]
        vectors = vectors[:, ::-1]
    scale = max(1.0, float(np.max(np.abs(ref_diag))))
    gap = float(np.max(np.abs(values - ref_diag)))
    if gap > tol * scale:
        return values, vectors, gap, False

    if disambiguator is not None:
        eps = float(np.finfo(np.float64).eps)
        theta = max(tol, eps / tol) * max(1.0, hs_norm(a1))
        n = len(values)
        start = 0
        while start < n:
            stop = start + 1
            while stop < n and abs(values[stop] - values[stop - 1]) <= theta:
                stop += 1
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
            start = stop
    return values, vectors, gap, True


def _diagonal_product_check(name, prod, expected, tol):
    """Product must be diagonal with the expected entries."""
    s = max(1.0, hs_norm(prod))
    off = prod - np.diag(np.diag(prod))
    if hs_norm(off) > tol * s:
        return f"{name} is not diagonal in the A1 eigenbasis"
    gaps = np.abs(np.diag(prod) - expected)
    if float(np.max(gaps)) > tol * s:
        j = int(np.argmax(gaps))
        return (f"{name} diagonal mismatch at index {j}: "
                f"{complex(prod[j, j]):.6g} vs expected {expected[j]:.6g}")
    return None


def _superdiagonal_support(name, mat, ref_moduli, tol):
    """First column and last row must vanish and all mass must sit on the
    superdiagonal with the reference moduli."""
    n = mat.shape[0]
    s = max(1.0, hs_norm(mat))
    off = mat.copy()
    idx = np.arange(n - 1)
    off[idx, idx + 1] = 0.0
    if hs_norm(off[:, 0]) > tol * s or hs_norm(off[n - 1, :]) > tol * s:
        return f"{name}: first column or last row of A2 is not zero", None
    norm = hs_norm(off)
    if norm > tol * s:
        # name the largest entries: the norm can exceed the threshold when
        # no single entry does
        mags = np.abs(off).ravel()
        where = ", ".join(f"({k // n},{k % n})" for k in np.argsort(-mags, kind="stable")[:4]
                          if mags[k] > 0)
        return (f"{name}: A2 support off the superdiagonal at {where} "
                f"(HS norm {norm:.3g} > {tol * s:.3g})"), None
    sd = mat[idx, idx + 1]
    gaps = np.abs(np.abs(sd) - ref_moduli)
    if gaps.size and float(np.max(gaps)) > tol * s:
        j = int(np.argmax(gaps))
        return (f"{name}: superdiagonal modulus mismatch at ({j},{j + 1}): "
                f"|{complex(sd[j]):.6g}| vs {ref_moduli[j]:.6g}"), None
    return None, sd


def _unit_phases(entries, ref_entries):
    ratios = np.asarray(entries) / np.asarray(ref_entries)
    mods = np.abs(ratios)
    mods[mods == 0] = 1.0
    return ratios / mods


def _witness_from_phases(phases):
    """diag(1, conj(p0), conj(p0 p1), ...): the canonical diagonal
    unitary with first entry 1 built from the superdiagonal phases."""
    lam = np.concatenate([[1.0 + 0j], np.conj(np.cumprod(phases))])
    return np.diag(lam)


def _certify(ahat, ref_mats, w):
    resid = 0.0
    per_slot = {}
    for name, a, r in zip(("A1", "A2", "A3"), ahat, ref_mats):
        rr = hs_norm(a - w @ r @ w.conj().T) / max(1.0, hs_norm(r))
        per_slot[f"certify {name}"] = rr
        resid = max(resid, rr)
    return resid, per_slot


def reconstruct_snu2(t, n: int, nu: float, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Reconstruct the diagonal unitary witness for a candidate triple
    against the deformed ladder reference.

    Assumes the pair-spectrum hypotheses have been verified (see
    ``verify_conditions_snu2`` / ``snu2_rigidity``); every step still
    guards itself and fails with the step name on violation:

      1. diagonalize A1 and match its spectrum to the reference diagonal;
      2. the four adjoint products must be diagonal in that eigenbasis
         with the reference ladder values;
      3. A2 (and mirror-wise A3) must be supported on the super-(sub-)
         diagonal with the reference moduli; off-diagonal mass triggers
         the x2-dependence diagnostic;
      4. the phases read off A2 and A3 must agree;
      5. the assembled witness must certify all three slots.
    """
    ref = snu2_generators(n, nu)
    a1, a2, a3 = _slot_matrices(t)
    if a1.shape != (n, n):
        return _fail("step1", f"candidate dimension {a1.shape[0]} != n={n}")

    # step 1: eigenbasis of A1, ordered to the reference diagonal
    e, f = ref.e, ref.f
    try:
        values, v, gap, ok = _eigenbasis_matched(
            a1, np.diag(ref.h).real, tol,
            disambiguator=a2 @ a2.conj().T,
            ref_disamb=np.diag(e @ e.conj().T).real)
    except NotHermitianError:
        return _fail("step1", "A1 is not Hermitian/normal within tolerance")
    if not ok:
        return _fail("step1", f"spectrum of A1 does not match the reference "
                              f"diagonal (max gap {gap:.3g})")
    ahat = tuple(v.conj().T @ a @ v for a in (a1, a2, a3))

    # step 3 first: the entrywise ladder-support checks are the sharpest
    # witnesses of a tampered entry, so they run before the coarser
    # product checks (a bumped superdiagonal modulus is reported as the
    # support violation it is, not as the product mismatch it implies)
    idx = np.arange(n - 1)
    msg, sd2 = _superdiagonal_support("A2", ahat[1], np.abs(e[idx, idx + 1]) if n > 1
                                      else np.zeros(0), tol)
    if msg:
        dep = x2_dependence(np.diag(values).astype(np.complex128), ahat[1])
        return _fail("step3", msg, [f"x2_dependence detected: {dep}"])
    msg, sd3 = _superdiagonal_support("A3", ahat[2].conj().T,
                                      np.abs(f[idx + 1, idx]) if n > 1 else np.zeros(0), tol)
    if msg:
        return _fail("step3", msg.replace("A2", "A3_adjoint"))

    # step 2: adjoint products diagonal with the ladder values
    expected = {
        "A2 A2^H": np.diag(e @ e.conj().T).real,
        "A2^H A2": np.diag(e.conj().T @ e).real,
        "A3 A3^H": np.diag(f @ f.conj().T).real,
        "A3^H A3": np.diag(f.conj().T @ f).real,
    }
    prods = {
        "A2 A2^H": ahat[1] @ ahat[1].conj().T,
        "A2^H A2": ahat[1].conj().T @ ahat[1],
        "A3 A3^H": ahat[2] @ ahat[2].conj().T,
        "A3^H A3": ahat[2].conj().T @ ahat[2],
    }
    for name in expected:
        msg = _diagonal_product_check(name, prods[name], expected[name], tol)
        if msg:
            return _fail("step2", msg)

    # step 4: phases from A2's superdiagonal and A3's subdiagonal agree
    if n > 1:
        p_hat = _unit_phases(ahat[1][idx, idx + 1], e[idx, idx + 1])
        sigma_hat = np.conj(_unit_phases(ahat[2][idx + 1, idx], f[idx + 1, idx]))
        phase_tol = tol * max(1.0,
                              hs_norm(ahat[1]) / float(np.min(np.abs(e[idx, idx + 1]))),
                              hs_norm(ahat[2]) / float(np.min(np.abs(f[idx + 1, idx]))))
        phase_gap = float(np.max(np.abs(p_hat - sigma_hat)))
        if phase_gap > phase_tol:
            return _fail("step4", f"phase mismatch between A2 and A3 "
                                  f"(Lambda != Sigma, max gap {phase_gap:.3g})")
    else:
        p_hat = np.zeros(0, dtype=np.complex128)

    # step 5: assemble the witness and certify
    w = _witness_from_phases(p_hat)
    resid, per_slot = _certify(ahat, ref.matrices, w)
    rep = RigidityReport(verdict=EQUIVALENT, witness=w, basis=v, residual=resid)
    rep.condition_residuals.update(per_slot)
    if resid > tol:
        return _fail("step5", f"certification residual {resid:.3g} exceeds tolerance",
                     residuals=per_slot)
    return rep


def reconstruct_sl2(t, n: int, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Witness reconstruction against the sl(2) reference.

    Same pipeline as the deformed case, with two differences forced by
    the weaker hypothesis set (no (A1, A3* A3) pencil): the subdiagonal
    entries of A3 are pinned through the spectral compressions of the
    (A1, A2 A3) lines, and the Hilbert-Schmidt budget
    trace(A3 A3*) = n-1 then forces every other entry of A3 to zero.
    """
    ref = sl2_generators(n)
    a1, a2, a3 = _slot_matrices(t)
    if a1.shape != (n, n):
        return _fail("step1", f"candidate dimension {a1.shape[0]} != n={n}")

    e, f = ref.e, ref.f
    try:
        values, v, gap, ok = _eigenbasis_matched(
            a1, np.diag(ref.h).real, tol, descending=True,
            disambiguator=a2 @ a2.conj().T,
            ref_disamb=np.diag(e @ e.conj().T).real)
    except NotHermitianError:
        return _fail("step1", "A1 is not Hermitian/normal within tolerance")
    if not ok:
        return _fail("step1", f"spectrum of A1 does not match the reference "
                              f"diagonal (max gap {gap:.3g})")
    ahat = tuple(v.conj().T @ a @ v for a in (a1, a2, a3))

    # entrywise A2 support first (see reconstruct_snu2), then products
    idx = np.arange(n - 1)
    msg, sd2 = _superdiagonal_support("A2", ahat[1], np.abs(e[idx, idx + 1]), tol)
    if msg:
        dep = x2_dependence(np.diag(values).astype(np.complex128), ahat[1])
        return _fail("step3", msg, [f"x2_dependence detected: {dep}"])
    p_hat = _unit_phases(ahat[1][idx, idx + 1], e[idx, idx + 1])

    expected = {
        "A2 A2^H": np.diag(e @ e.conj().T).real,
        "A2^H A2": np.diag(e.conj().T @ e).real,
        "A3 A3^H": np.diag(f @ f.conj().T).real,
    }
    prods = {
        "A2 A2^H": ahat[1] @ ahat[1].conj().T,
        "A2^H A2": ahat[1].conj().T @ ahat[1],
        "A3 A3^H": ahat[2] @ ahat[2].conj().T,
    }
    for name in expected:
        msg = _diagonal_product_check(name, prods[name], expected[name], tol)
        if msg:
            return _fail("step2", msg)

    # step 4: spectral compressions on the lines
    # (n-1-2j) x1 + (j+1)(n-1-j) x2 = 1 pin the subdiagonal of A3
    prod23 = ahat[1] @ ahat[2]
    s23 = max(1.0, hs_norm(prod23))
    mus = np.array([(j + 1) * (n - 1 - j) for j in range(n - 1)], dtype=float)
    comp_gap = np.abs(np.diag(prod23)[:-1] - mus)
    if comp_gap.size and float(np.max(comp_gap)) > tol * s23:
        j = int(np.argmax(comp_gap))
        return _fail("step4", f"compression mismatch on line {j}: "
                              f"(A2 A3)_{j}{j} = {complex(prod23[j, j]):.6g} "
                              f"vs {mus[j]:.6g}")
    sub3 = ahat[2][idx + 1, idx]
    s3 = max(1.0, hs_norm(ahat[2]))
    mod_gap = np.abs(np.abs(sub3) - 1.0)
    if mod_gap.size and float(np.max(mod_gap)) > tol * s3:
        j = int(np.argmax(mod_gap))
        return _fail("step4", f"A3 subdiagonal entry ({j + 1},{j}) is not unimodular")
    sigma_hat = np.conj(_unit_phases(sub3, np.ones(n - 1)))
    phase_tol = tol * max(1.0, hs_norm(ahat[1]) / float(np.min(np.abs(e[idx, idx + 1]))),
                          hs_norm(ahat[2]))
    phase_gap = float(np.max(np.abs(p_hat - sigma_hat))) if n > 1 else 0.0
    if phase_gap > phase_tol:
        return _fail("step4", f"phase mismatch between A2 and A3 "
                              f"(Lambda != Sigma, max gap {phase_gap:.3g})")

    # step 5: Hilbert-Schmidt budget n-1 forces the rest of A3 to zero
    total = hs_norm(ahat[2]) ** 2
    sub_mass = float(np.sum(np.abs(sub3) ** 2))
    if total - sub_mass > tol * max(1.0, total):
        return _fail("step5", f"hs-budget violation: trace(A3 A3*) = {total:.6g} "
                              f"carries {total - sub_mass:.3g} off the subdiagonal")

    w = _witness_from_phases(p_hat)
    resid, per_slot = _certify(ahat, ref.matrices, w)
    rep = RigidityReport(verdict=EQUIVALENT, witness=w, basis=v, residual=resid)
    rep.condition_residuals.update(per_slot)
    if resid > tol:
        return _fail("step6", f"certification residual {resid:.3g} exceeds tolerance",
                     residuals=per_slot)
    return rep


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
    from .linalg import spectral_projection
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
