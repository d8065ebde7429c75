"""Spectral rigidity as an executable check.

Equality of the adjoint-augmented pair spectra against the reference
ladder triple forces unitary equivalence, and the proof is constructive:
diagonalize A1, read the ladder phases off A2 and A3 in that eigenbasis,
and assemble the diagonal unitary witness

    W_tilde = diag(1, e^(-i t1), e^(-i (t1+t2)), ...)

that conjugates the reference triple onto the candidate.

Each reference (family, n, nu) is built once and cached read-only with
what a certified verdict reads (``_Reference``).  Verification tests
A1's normality, then evaluates the family's pencils (``SNU2_PENCILS``,
``SL2_PENCILS``, parsed at import) as one coefficient stack, compared
with the reference's in one array expression.
Reconstruction, ``_reconstruct``, checks the dimension, runs step 1
(A1's eigenbasis in the reference order, unresolved clusters built down
the A2 ladder), reads the phases off A2 and computes the one certificate,
the witness's residual per slot: within tol, the ``equivalent`` report.

``snu2_rigidity`` / ``sl2_rigidity`` run the stages in the proof's order:
reconstruct and certify; verify the hypotheses only when certification
fails (a certified witness proves the equivalence); only where they hold,
the family's named steps explain the failure in order (``_explain``); if
none fails, the certification step is named with the per-slot residuals:

  snu2  step3 A2 support, step3 A3^H support, step2 adjoint products,
        step4 phases, then step5 certification;
  sl2   step3 A2 support, step2 adjoint products, step4 phases, then
        step6 certification.

sl2 has no (A1, A3* A3) pencil: the proof pins A3 by the compressions
on the (A1, A2 A3) lines and the Hilbert-Schmidt budget, which no step
checks: each of their terms is checked before them or by the
certificate.  W F W* is
subdiagonal with unimodular entries, so c3 = ``certify A3`` max(1, ||F||)
bounds A3's mass off the subdiagonal and its modulus gaps on it.  With
a_j = |A2_(j,j+1)|, b_j = |A3_(j+1,j)| and the phases p_j, s_j of
``_phases`` (hats dropped; e, f the reference's ladder diagonals),

  (A2 A3)_jj - e_j f_j = sign(e_j f_j) [|e_j f_j| (p_j s_j* - 1)
      + ((a_j - |e_j|) b_j + |e_j| (b_j - |f_j|)) p_j s_j*]
      + sum_(k != j+1) A2_jk A3_kj,

bounded by |e_j f_j| |p_j - s_j| (the phase gap) + |a_j - |e_j|| b_j
(step 3's moduli) + |e_j| c3 + (A2's mass off the superdiagonal) c3.
sl2 names no step5; certification keeps "step6".  The verdicts are
``equivalent``, ``hypothesis_failed`` and ``reconstruction_failed``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .generators import sl2_generators, snu2_generators
from .linalg import (DEFAULT_TOL, DimensionMismatchError, NotHermitianError, _check_tol,
                     _checked_eigh, _cluster_starts, _is_normal, _is_unitary, _phase_fixed,
                     as_matrix, hs_norm, hs_norms, matrix_to_json, spectral_projection)
from .spectrum import (_compare_stacks, _det_stack, _line_products, _product, _slot_matrices,
                       parse_pencil, slot_scales, x2_dependence)

EQUIVALENT = "equivalent"
HYPOTHESIS_FAILED = "hypothesis_failed"
RECONSTRUCTION_FAILED = "reconstruction_failed"

_EPS = float(np.finfo(np.float64).eps)

SNU2_PENCILS = ("A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A3^H A3",
                "A1, A2 A3")
SL2_PENCILS = ("A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A2 A3")

# every pencil pairs A1 with its parsed second slot (SL2_PENCILS is a subset)
_SECOND_SLOT = {name: parse_pencil(name)[1] for name in SNU2_PENCILS}


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
    ``equivalent`` means exactly that it is within tol (a certified witness
    ends reconstruction; the named steps run only to explain a failure);
    ``condition_residuals`` then holds it per slot, else the pencils'
    residuals (after the per-slot ones if certification failed).
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

# a cached reference: the read-only triple and what a certified verdict reads of
# it (its pencils' coefficient stack, largest moduli and slot scales, H's diagonal
# and its scale, the ladder diagonals, from which the named steps derive what they
# read, the (3, n, n) slot stack and max(1, ||slot||) per slot)
_Reference = namedtuple("_Reference", "ref pencils steps coeffs coeff_max s1 s2 "
                        "diag diag_scale e_sd f_sd slots slot_norms")


@functools.lru_cache(maxsize=64)
def _reference(family, n, nu) -> _Reference:
    """The reference of ``family`` at (n, nu), built on first use.  Each
    pencil pairs the diagonal H with an exactly diagonal product of ladder
    matrices, so its polynomial at the slot scales 1 / max(1, ||slot||_HS)
    (see ``slot_scales``) is an exact product of lines."""
    ref, pencils, steps = ((snu2_generators(n, nu), SNU2_PENCILS, _SNU2_STEPS)
                           if family == "snu2" else
                           (sl2_generators(n), SL2_PENCILS, _SL2_STEPS))
    slots = np.stack(ref.matrices)
    for m in (*ref.matrices, slots):
        m.flags.writeable = False
    products = {name: _product(_SECOND_SLOT[name], ref.matrices) for name in pencils}
    for name, b in products.items():
        if hs_norm(b - np.diag(np.diag(b))) != 0.0:
            raise AssertionError(f"reference product for {name} is not diagonal")
    scales = slot_scales([ref.h, *products.values()])
    s1, s2 = scales[0], scales[1:]
    coeffs = _line_products([np.stack([np.diag(ref.h) * s1, np.diag(b) * s], axis=1)
                             for b, s in zip(products.values(), s2)])
    diag = np.diag(ref.h).real
    return _Reference(ref, pencils, steps, coeffs, np.abs(coeffs).max(axis=(1, 2)), s1, s2,
                      diag, max(1.0, float(np.max(np.abs(diag)))), ref.e.diagonal(1),
                      ref.f.diagonal(-1), slots, np.maximum(1.0, hs_norms(slots)))


def _verify_conditions(mats, entry, tol):
    """A1's normality, then all the family's pencils in one stacked pass,
    compared with the reference's coefficient stack.  The slots are
    finite, so a non-finite pencil means a product overflowed float64."""
    if not _is_normal(mats[0], tol):
        return ConditionReport(a1_normal=False, checks=())
    first = entry.s1 * mats[0]
    with np.errstate(over="ignore", invalid="ignore"):
        pencils = np.array([(first, s2 * _product(_SECOND_SLOT[name], mats))
                            for name, s2 in zip(entry.pencils, entry.s2)])
        if not np.isfinite(pencils).all():
            raise ValueError("the candidate's pencil products overflow float64")
        # a determinant that overflows leaves its pencil non-finite, and unequal
        coeffs = _det_stack(pencils)
    return ConditionReport(a1_normal=True, checks=_compare_stacks(
        entry.pencils, coeffs, entry.coeffs, tol, entry.coeff_max))


# --- reconstruction -----------------------------------------------------------

def _exceeds(value, bound):
    """Whether a check fails: ``value`` is not within a finite ``bound``.
    A NaN on either side or an infinite bound fails, so every comparison
    of the reconstruction fails closed."""
    return not value <= bound < np.inf


def _fail(step, message, *diagnostics, residuals=()):
    return RigidityReport(verdict=RECONSTRUCTION_FAILED, condition_residuals=dict(residuals),
                          diagnostics=[f"{step}: {message}", *diagnostics])


def _eigenbasis_matched(a1, a2, entry, tol):
    """Diagonalize A1 and order its eigenbasis as the reference diagonal
    is ordered (nearest-value matching is just index order once both lists
    are sorted the same way; the reference spectra are simple).

    At small |nu| the ladder diagonal clusters exponentially, so A1's
    eigenvectors are ill-determined inside a cluster of eigenvalues closer
    than max(tol, eps/tol) * max(1, ||A1||).  A cluster below a column is
    built down the ladder, as in the proof (``_ladder_block``), in the
    cluster's coordinates; the split is skipped when no gap of the sorted
    eigenvalues is within the threshold.  The certificate still has to
    pass, so the basis cannot manufacture a witness that is not there.
    One HS norm of A1 serves both the Hermitian test and the threshold.
    """
    norm = hs_norm(a1)
    values, vectors = _checked_eigh(a1, tol, norm)
    if entry.diag[0] > entry.diag[-1]:
        values, vectors = values[::-1], vectors[:, ::-1]
    gap = float(np.abs(values - entry.diag).max())
    if _exceeds(gap, tol * entry.diag_scale):
        return values, vectors, gap, False

    theta = max(tol, _EPS / tol) * max(1.0, norm)
    if not np.abs(values[1:] - values[:-1]).min(initial=np.inf) <= theta:
        return values, vectors, gap, True
    cuts = _cluster_starts(values, theta).tolist()
    for start, stop in reversed(list(zip([0, *cuts], cuts))):  # each cluster below a column
        if stop - start > 1:
            block = _ladder_block(vectors[:, start:stop], a2, vectors[:, stop])
            if block is not None:
                vectors[:, start:stop] = block
    return values, vectors, gap, True


def _ladder_block(q, a2, top):
    """The cluster of A1's eigenvectors ``q`` rebuilt down the A2 ladder
    from the column ``top`` above it, or None if a step vanishes or is not
    finite: the cluster then keeps A1's columns.

    The built columns lie in span(q), so the ladder runs in q's
    coordinates, on N = q* A2 q: each m-vector is N times the one above
    (the first is q* A2 top), orthogonalized twice against those built so
    far (by the projector I - Y Y* onto their complement) and normalized.
    In exact arithmetic these are the n-vectors A2 maps down the cluster
    and projects onto it.  The block q Y is phase-fixed as in
    ``_checked_eigh``, once.
    """
    qh = q.conj().T
    ladder = qh @ a2 @ q
    m = q.shape[1]
    ys, proj = np.empty((m, m), dtype=np.complex128), np.eye(m, dtype=np.complex128)
    y = qh @ (a2 @ top)
    for k in range(m - 1, -1, -1):
        y = proj @ (proj @ y)
        re_im = y.view(np.float64)
        norm = math.sqrt(re_im @ re_im)
        if not norm < math.inf:  # NaN, or a sum of squares that overflowed
            norm = hs_norm(y)
        if not 0 < norm < math.inf:
            return None
        # the parts divided by the norm: numpy divides by a complex's reciprocal
        ys[:, k] = y = (re_im / norm).view(np.complex128)
        proj -= y[:, None] * y.conj()
        y = ladder @ y
    return _phase_fixed(q @ ys)


# what the named steps read: the reference entry, A1's matched eigenvalues, the
# candidate stack in that eigenbasis and the phases read off A2's superdiagonal
_Frame = namedtuple("_Frame", "entry tol values ahat phases")


def _reconstruct(mats, entry, tol):
    """The dimension check, step 1 and the one certificate: the slot
    residuals of the witness diag(1, conj(p0), conj(p0 p1), ...) built from
    A2's superdiagonal phases p, ``equivalent`` within tol.  Returns the
    report and, if the certificate fails, the ``_Frame`` of the steps."""
    n = entry.ref.n
    if mats[0].shape != (n, n):
        return _fail("step1", f"candidate dimension {mats[0].shape[0]} != n={n}"), None
    try:
        values, v, gap, ok = _eigenbasis_matched(mats[0], mats[1], entry, tol)
    except NotHermitianError:
        return _fail("step1", "A1 is not Hermitian/normal within tolerance"), None
    if not ok:
        return _fail("step1", f"spectrum of A1 does not match the reference "
                              f"diagonal (max gap {gap:.3g})"), None
    ahat = v.conj().T @ mats @ v
    phases = _unit_phases(ahat[1].diagonal(1), entry.e_sd)
    w = np.empty(n, dtype=np.complex128)
    w[0] = 1.0
    np.cumprod(phases, out=w[1:])
    np.conjugate(w, out=w)
    resids = _slot_residuals(ahat, entry.slots, w, entry.slot_norms)
    r1, r2, r3 = resids.tolist()
    per_slot = {"certify A1": r1, "certify A2": r2, "certify A3": r3}
    resid = float(resids.max())
    if not _exceeds(resid, tol):
        return RigidityReport(verdict=EQUIVALENT, witness=np.diag(w), basis=v,
                              condition_residuals=per_slot, residual=resid), None
    return (_fail(entry.steps[-1], f"certification residual {resid:.3g} exceeds tolerance",
                  residuals=per_slot), _Frame(entry, tol, values, ahat, phases))


def _explain(fr):
    """The report of the first of ``fr.entry.steps`` that fails, or None:
    the named steps explain a failed certificate where the hypotheses
    hold."""
    with np.errstate(over="ignore", invalid="ignore"):
        for name, step in fr.entry.steps[:-1]:
            if failure := step(fr):
                return _fail(name, *failure)
    return None


def _superdiagonal_support(label, mat, ref_moduli, tol):
    """First column and last row must vanish and all mass must sit on the
    superdiagonal with the reference moduli.  Returns the failure message
    about ``label``, or None."""
    n, mass = mat.shape[0], hs_norm(mat)
    if not np.isfinite(mass):
        return f"{label}: the scale of {label} is not finite"
    s = max(1.0, mass)
    sd = mat.diagonal(1)
    off = mat - np.diag(sd, 1)
    if _exceeds(hs_norm(off[:, 0]), tol * s) or _exceeds(hs_norm(off[n - 1, :]), tol * s):
        return f"{label}: first column or last row of {label} is not zero"
    norm = hs_norm(off)
    if _exceeds(norm, tol * s):
        # name the largest entries: the norm can exceed the threshold when
        # no single entry does
        mags = np.abs(off).ravel()
        where = ", ".join(f"({k // n},{k % n})" for k in np.argsort(-mags, kind="stable")[:4]
                          if mags[k] > 0)
        return (f"{label}: {label} support off the superdiagonal at {where} "
                f"(HS norm {norm:.3g} > {tol * s:.3g})")
    gaps = np.abs(np.abs(sd) - ref_moduli)
    if gaps.size and _exceeds(float(gaps.max()), tol * s):
        j = int(np.argmax(gaps))
        return (f"{label}: superdiagonal modulus mismatch at ({j},{j + 1}): "
                f"|{complex(sd[j]):.6g}| vs {ref_moduli[j]:.6g}")
    return None


def _a2_support(fr):
    """A2 is supported on the superdiagonal with the reference moduli;
    off-diagonal mass of finite scale triggers the x2-dependence
    diagnostic (the hypotheses hold wherever a step runs).  The entrywise
    support checks run before the coarser product checks, so a bumped
    modulus is reported as the support violation it is."""
    msg = _superdiagonal_support("A2", fr.ahat[1], np.abs(fr.entry.e_sd), fr.tol)
    if msg and np.isfinite(hs_norm(fr.ahat[1])):
        dep = x2_dependence(np.diag(fr.values).astype(np.complex128), fr.ahat[1])
        return msg, f"x2_dependence detected: {dep}"
    return (msg,) if msg else None


def _a3_adjoint_support(fr):
    """Mirror of ``_a2_support`` for A3 and its subdiagonal (snu2)."""
    msg = _superdiagonal_support("A3^H", fr.ahat[2].conj().T, np.abs(fr.entry.f_sd), fr.tol)
    return (msg,) if msg else None


def _adjoint_products(fr):
    """The products of the pencils other than (A1, A2 A3) are diagonal in
    A1's eigenbasis with the reference values."""
    for name in fr.entry.pencils[:-1]:  # the last is (A1, A2 A3)
        prod = _product(_SECOND_SLOT[name], fr.ahat)
        s = max(1.0, hs_norm(prod))
        label = name.removeprefix("A1, ")
        if _exceeds(hs_norm(prod - np.diag(prod.diagonal())), fr.tol * s):
            return (f"{label} is not diagonal in the A1 eigenbasis",)
        expected = np.diag(_product(_SECOND_SLOT[name], fr.entry.ref.matrices)).real
        gaps = np.abs(prod.diagonal() - expected)
        if _exceeds(float(gaps.max()), fr.tol * s):
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
    if not fr.phases.size:
        return None
    sigma = np.conj(_unit_phases(ahat[2].diagonal(-1), entry.f_sd))
    e_min, f_min = (float(np.abs(sd).min(initial=np.inf)) for sd in (entry.e_sd, entry.f_sd))
    phase_tol = fr.tol * max(1.0, hs_norm(ahat[1]) / e_min, hs_norm(ahat[2]) / f_min)
    phase_gap = float(np.abs(fr.phases - sigma).max())
    if _exceeds(phase_gap, phase_tol):
        return (f"phase mismatch between A2 and A3 "
                f"(Lambda != Sigma, max gap {phase_gap:.3g})",)
    return None


def _slot_residuals(mats, refs, w, norms) -> np.ndarray:
    """||a_i - w r_i w*||_HS / norms_i over the slot stacks, ``w`` a unitary
    or its diagonal; NaN where a product overflows, so the maximum over
    the slots (with numpy) is NaN too."""
    images = refs * (w[:, None] * w.conj()) if w.ndim == 1 else w @ refs @ w.conj().T
    return hs_norms(mats - images) / norms


# the explaining steps, then the name of the certification step
_SNU2_STEPS = (("step3", _a2_support), ("step3", _a3_adjoint_support),
               ("step2", _adjoint_products), ("step4", _phases), "step5")
_SL2_STEPS = (("step3", _a2_support), ("step2", _adjoint_products), ("step4", _phases),
              "step6")


# --- drivers ------------------------------------------------------------------

def _drive(t, tol, family, n, nu=None) -> RigidityReport:
    """The stages in the proof's order (certify, verify, explain), each
    run only where its output is read, on one reference lookup and one
    validation of the slots."""
    _check_tol(tol)
    entry, mats = _reference(family, n, nu), _slot_matrices(t)
    with np.errstate(over="ignore", invalid="ignore"):  # unverified products fail closed
        rep, frame = _reconstruct(mats, entry, tol)
    if rep.verdict == EQUIVALENT:
        return rep
    cond = _verify_conditions(mats, entry, tol)
    if not cond.all_passed:
        rep = RigidityReport(verdict=HYPOTHESIS_FAILED)
        if not cond.a1_normal:
            rep.diagnostics.append("A1 is not normal")
        rep.diagnostics.extend(f"pencil equality failed: {c.pencil}"
                               for c in cond.checks if not c.equal)
    elif frame is not None:
        rep = _explain(frame) or rep
    rep.condition_residuals.update(cond.residuals())
    return rep


def snu2_rigidity(t, n: int, nu: float, tol: float = DEFAULT_TOL) -> RigidityReport:
    """Reconstruct and certify first; verify the hypotheses only when
    certification fails.  ``tol`` must be finite and positive."""
    return _drive(t, tol, "snu2", n, nu)


def sl2_rigidity(t, n: int, tol: float = DEFAULT_TOL) -> RigidityReport:
    return _drive(t, tol, "sl2", n)


# --- spectral compressions and final certification -----------------------------

def compression_check(a1, b, lam, mu, tol: float = DEFAULT_TOL) -> bool:
    """Whether P b P = mu P for the spectral projection P of the normal
    matrix a1 at eigenvalue lam.

    Requires the line lam x1 + mu x2 = 1 to lie in the pair spectrum of
    (a1, b) with multiplicity 1, decided by rank tests on the line: with
    l = (lam s1, mu s2) in the coordinates of ``slot_scales``, M = y1 s1 a1
    + y2 s2 b - I is sampled at n+1 points of l.y = 1 spaced by 1/|l|.
    det M has degree <= n there, so the line is in the spectrum iff every
    sample has sigma_min <= tol max(1, sigma_max).  It is simple iff some
    sample also has sigma_(n-1) above that floor and |u* N v| > tol ||N||
    (u, v the last singular vectors, N the pencil along the line's normal):
    by Jacobi's formula d/ds det(M + sN) is then nonzero.  A line in the
    spectrum whose lam is unresolved (its cluster in ``spectral_projection``,
    at tol max(1, ||a1||), holds more than one eigenvalue of a1) raises
    ``MultiplicityError`` before that test: P would be the cluster's, and
    P b P = mu P would make the cluster's lines one line of multiplicity
    > 1 at this tol.
    """
    _check_tol(tol)
    a1, b = as_matrix(a1), as_matrix(b)
    if a1.shape != b.shape:
        raise ValueError("pair matrices must share one dimension")
    n, scales = a1.shape[0], slot_scales((a1, b))
    pencil = np.array([scales[0] * a1, scales[1] * b])
    nodes = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ell = np.array([lam, mu], dtype=np.complex128) * scales
        norm = hs_norm(ell)
        unit = ell / norm  # y_k = (conj(l) + w^k (l2, -l1)) / |l|^2
        points = (unit.conj() + nodes[:, None] * [unit[1], -unit[0]]) / norm
        samples = np.tensordot(points, pencil, 1) - np.eye(n)
    if not np.isfinite(samples).all():
        raise ValueError(f"line {lam} x1 + {mu} x2 = 1 has no finite sample points")
    u, sv, vh = np.linalg.svd(samples)
    floor = tol * np.maximum(1.0, sv[:, 0])
    if not (sv[:, -1] <= floor).all():
        raise LineNotInSpectrumError(
            f"line {lam} x1 + {mu} x2 = 1 is not in the pair spectrum")
    proj = spectral_projection(a1, lam, tol)
    rank = round(np.trace(proj).real)
    if rank > 1:
        raise MultiplicityError(
            f"lambda {lam} is unresolved: {rank} eigenvalues of a1 cluster within "
            f"tol max(1, ||a1||) = {tol * max(1.0, hs_norm(a1)):.3g}")
    normal = np.tensordot(unit.conj(), pencil, 1)
    slope = np.abs(np.einsum("ki,ij,kj->k", u[:, :, -1].conj(), normal, vh[:, -1].conj()))
    if not ((slope > tol * hs_norm(normal)) & (n == 1 or sv[:, -2] > floor)).any():
        raise MultiplicityError("line has multiplicity > 1; the compression "
                                "identity requires multiplicity 1")
    resid = hs_norm(proj @ b @ proj - mu * proj)
    return resid <= tol * max(1.0, hs_norm(b))


def certify_equivalence(t, ref, w, tol: float = DEFAULT_TOL) -> float:
    """Max over the three slots of ||t_i - w ref_i w*||_HS, normalized by
    max(1, ||ref_i||_HS) so the figure is comparable across the scale
    range of the ladder matrices.  ``w`` must be unitary (``_is_unitary``'s
    test).  The result is NaN when a slot's product overflows float64, so
    it never compares <= tol."""
    _check_tol(tol)
    mats, refs, w = _slot_matrices(t), _slot_matrices(ref), as_matrix(w)
    if not mats.shape[1] == refs.shape[1] == w.shape[0]:
        raise DimensionMismatchError(f"candidate, reference and witness sizes differ: "
                                     f"{mats.shape[1]}, {refs.shape[1]}, {w.shape[0]}")
    if not _is_unitary(w, tol):
        raise NotUnitaryError("witness is not unitary within tolerance")
    return float(_slot_residuals(mats, refs, w, np.maximum(1.0, hs_norms(refs))).max())
