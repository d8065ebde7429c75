import warnings

import numpy as np
import pytest

from specrig import spectrum
from specrig.generators import (c_coeff, counterexample_tuple, h_coeff,
                                sl2_generators, snu2_generators)
from specrig.linalg import NotNormalError
from specrig.poly import PRUNE_REL, MultiPoly
from specrig.spectrum import (PencilSyntaxError, det_pencil, evaluate_expr, lines_of_pair,
                              parse_pencil, slot_scales, spectra_equal, x2_dependence)

from conftest import (coeff_gap, cofactor_det, poly_value, random_complex, random_hermitian,
                      random_unitary, showcase_coeffs)


class TestParsePencil:
    """Each pencil slot parses to its (slot, adjoint) factors in product
    order."""

    def test_pair_with_adjoint(self):
        assert parse_pencil("A1, A2 A2^H") == [((0, False),), ((1, False), (1, True))]

    def test_product(self):
        assert parse_pencil("A2 A3") == [((1, False), (2, False))]
        assert parse_pencil("E^H F ^H H") == [((1, True), (2, True), (0, False))]

    def test_double_adjoint_collapses(self):
        assert parse_pencil("A2 ^H ^H") == [((1, False),)]
        assert parse_pencil("A2^H^H^H") == [((1, True),)]

    def test_letter_atoms_alias_slots(self):
        t = sl2_generators(3)
        for src in ("H", "A1"):
            expr = parse_pencil(src)[0]
            assert np.array_equal(evaluate_expr(expr, t.matrices), t.h)

    def test_syntax_error_offset(self):
        with pytest.raises(PencilSyntaxError) as err:
            parse_pencil("A1, A5")
        assert err.value.offset == 4  # points at the start of the bad token

    def test_empty_slot(self):
        with pytest.raises(PencilSyntaxError):
            parse_pencil("A1,,A2")

    def test_adjoint_of_nothing(self):
        with pytest.raises(PencilSyntaxError, match="^'\\^H' with nothing to adjoin") as err:
            parse_pencil("^H")
        assert err.value.offset == 0

    @pytest.mark.parametrize("src,message,offset", [
        # the whole string is tokenized first: a stray character later in
        # the string is reported ahead of the misplaced ^H or empty slot
        ("^Hx", "unexpected character 'x'", 2),
        ("A1,,A5", "unexpected character 'A'", 4)])
    def test_lex_error_precedes_parse_error(self, src, message, offset):
        with pytest.raises(PencilSyntaxError) as err:
            parse_pencil(src)
        assert str(err.value) == f"{message} at byte offset {offset}"
        assert err.value.offset == offset

    def test_adjoint_evaluates(self):
        t = sl2_generators(4)
        expr = parse_pencil("A2^H")[0]
        assert np.array_equal(evaluate_expr(expr, t.matrices), t.e.conj().T)


class TestDetPencil:
    @pytest.mark.parametrize("k,n", [(1, 3), (1, 40), (2, 2), (2, 7), (2, 24), (3, 4), (4, 3)])
    @pytest.mark.parametrize("affine", [True, False])
    def test_blocked_grid_matches_one_broadcast_grid(self, rng, k, n, affine):
        # the whole node grid as one broadcast stack and one det call: the
        # blocked evaluation must give the same bits
        mats = [random_complex(rng, n) for _ in range(k)]
        m = n + 1
        nodes = np.exp(2j * np.pi * np.arange(m) / m)
        stack = -np.eye(n) if affine else np.zeros((n, n))
        for i, mat in enumerate(mats):
            stack = stack + nodes.reshape((m,) + (1,) * (k - 1 - i) + (1, 1)) * mat
        values = np.linalg.det(stack)
        expected = MultiPoly(det_pencil(mats).vars, np.fft.fftn(values) / values.size)
        assert np.array_equal(det_pencil(mats, affine=affine).coeffs, expected.coeffs)

    def test_diagonal_pencil(self):
        lams = [1.5, -2.0, 0.5]
        p = det_pencil([np.diag(lams).astype(complex)])
        # (1.5 x - 1)(-2 x - 1)(0.5 x - 1): e1 = 0, e2 = -3.25, e3 = -1.5
        assert coeff_gap(p.coeffs, [-1.0, 0.0, 3.25, -1.5]) <= 1e-12

    def test_homogeneous_showcase(self):
        t = sl2_generators(3)
        p = det_pencil([t.h, t.e, t.f, -np.eye(3)], ("x", "y", "z", "t"), affine=False)
        assert coeff_gap(p.coeffs, showcase_coeffs()) <= 1e-10

    def test_against_cofactor_oracle_at_points(self, rng):
        for _ in range(3):
            mats = [random_complex(rng, 5) for _ in range(2)]
            p = det_pencil(mats)
            for _ in range(20):
                x = rng.uniform(-1, 1, size=2)
                direct = cofactor_det(x[0] * mats[0] + x[1] * mats[1] - np.eye(5))
                ours = poly_value(p.coeffs, x)
                assert abs(ours - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_constant_term(self, rng):
        for n in (2, 4, 6):
            mats = [random_complex(rng, n), random_hermitian(rng, n)]
            p = det_pencil(mats)
            const = p.terms.get((0, 0), 0j)
            assert abs(const - (-1) ** n) <= 1e-10

    def test_unitary_invariance(self, rng):
        a = random_hermitian(rng, 4)
        b = random_complex(rng, 4)
        w = random_unitary(rng, 4)
        p = det_pencil([a, b])
        q = det_pencil([w @ a @ w.conj().T, w @ b @ w.conj().T])
        assert coeff_gap(p.coeffs, q.coeffs) <= 1e-9

    def test_agreement_with_direct_evaluation(self, rng):
        mats = [random_complex(rng, 6) for _ in range(3)]
        p = det_pencil(mats)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=3)
            direct = np.linalg.det(sum(xi * m for xi, m in zip(x, mats)) - np.eye(6))
            assert abs(poly_value(p.coeffs, x) - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_too_many_variables(self, rng):
        with pytest.raises(ValueError):
            det_pencil([np.eye(2)] * 5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            det_pencil([np.eye(2), np.eye(3)])

    def test_no_matrix(self):
        with pytest.raises(ValueError, match="^pencil needs at least one matrix$"):
            det_pencil([])

    def test_one_name_per_matrix(self):
        with pytest.raises(ValueError, match="^need one variable name per pencil matrix$"):
            det_pencil([np.eye(2), np.eye(2)], ("x",))

    @pytest.mark.parametrize("names", [("x", "x"), ("x", "")])
    def test_names_distinct_and_non_empty(self, names):
        # both were accepted and written out as the polynomial's variables
        with pytest.raises(ValueError, match=r"^variable names must be distinct and "
                           rf"non-empty, got \['x', '{names[1]}'\]$"):
            det_pencil([np.eye(2), np.eye(2)], names)

    def test_overflowing_determinant_raises(self):
        # (H, F F^H) at F scaled by 1001: a node's determinant overflows, and
        # every coefficient came out NaN, with four numpy warnings
        t = snu2_generators(16, 0.05)
        f = 1001 * t.f
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the pencil's determinant overflows float64$"):
                det_pencil([t.h, f @ f.conj().T])

    def test_array_prune_matches_dict_prune(self, rng, monkeypatch):
        # det_pencil prunes the interpolated coefficient array; the result
        # must be the dict of every coefficient above PRUNE_REL times the
        # largest, -0.0 parts made 0.0: same terms, same values, same order
        dense, prune = [], spectrum._prune

        def recording(coeffs):
            dense.append(np.array(coeffs))
            return prune(coeffs)

        monkeypatch.setattr(spectrum, "_prune", recording)
        for n in range(1, 9):
            for k in (1, 2, 3, 4):
                for affine in (True, False):
                    mats = [random_complex(rng, n) for _ in range(k)]
                    p = det_pencil(mats, affine=affine)
                    (coeffs,) = dense.pop()
                    top = np.abs(coeffs).max()
                    kept = {e: complex(coeffs[e]) + 0j for e in np.ndindex(coeffs.shape)
                            if abs(coeffs[e]) > PRUNE_REL * top}
                    assert list(p.terms.items()) == list(kept.items()), (n, k, affine)

    def test_zero_pencil_is_zero_polynomial(self):
        for k in (1, 2, 3, 4):
            p = det_pencil([np.zeros((3, 3))] * k, affine=False)
            assert len(p.vars) == k
            assert p.terms == {}


    def test_conjugated_ladder_pair_against_mpmath(self, rng):
        # the scaled (A1, A2 A2^H) pencil of a unitary conjugate of the
        # n = 24 ladder is a product of 24 lines; expand that product at
        # 50 digits and compare every coefficient
        mpmath = pytest.importorskip("mpmath")
        n, nu = 24, 0.5
        t = snu2_generators(n, nu)
        b = t.e @ t.e.conj().T
        s1, s2 = slot_scales((t.h, b))
        w = random_unitary(rng, n)
        p = det_pencil([s1 * (w @ t.h @ w.conj().T), s2 * (w @ b @ w.conj().T)])
        with mpmath.workdps(50):
            exact = {(0, 0): mpmath.mpf(1)}
            for hj, bj in zip(np.diag(t.h).real, np.diag(b).real):
                line = {(1, 0): mpmath.mpf(s1) * mpmath.mpf(hj),
                        (0, 1): mpmath.mpf(s2) * mpmath.mpf(bj), (0, 0): mpmath.mpf(-1)}
                prod = {}
                for (i, j), c in exact.items():
                    for (di, dj), d in line.items():
                        prod[i + di, j + dj] = prod.get((i + di, j + dj), 0) + c * d
                exact = prod
            top = float(max(abs(c) for c in exact.values()))
            got = p.terms
            err = max(abs(got.get(e, 0j) - complex(exact.get(e, 0)))
                      for e in set(got) | set(exact))
        assert err <= 1e-12 * top, f"coefficient error {err:.3g} of {top:.3g}"


class TestLinesOfPair:
    @pytest.mark.parametrize("nu", [0.3, 0.5, -0.7])
    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_ladder_lines(self, n, nu):
        t = snu2_generators(n, nu)
        lines, certified = lines_of_pair(t.h, t.e @ t.e.conj().T)
        assert certified
        assert sum(l.mult for l in lines) == n
        got = sorted((l.coeffs[0].real, l.coeffs[1].real) for l in lines
                     for _ in range(l.mult))
        expected = sorted((h_coeff(n, j, nu), (nu * c_coeff(n, j + 1, nu)) ** 2)
                          for j in range(n))
        for (lg, mg), (le, me) in zip(got, expected):
            scale = max(1.0, abs(le), abs(me))
            assert abs(lg - le) <= 1e-9 * scale
            assert abs(mg - me) <= 1e-9 * scale

    def test_commuting_diagonals(self):
        lines, certified = lines_of_pair(np.diag([1.0, 2.0]).astype(complex),
                                         np.diag([3.0, 4.0]).astype(complex))
        assert certified
        assert sorted((l.coeffs[0].real, l.coeffs[1].real) for l in lines) \
            == [(1.0, 3.0), (2.0, 4.0)]

    def test_conic_refused(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        _, certified = lines_of_pair(a, b)
        assert not certified

    def test_multiplicity_grouping(self):
        lines, certified = lines_of_pair(np.diag([1.0, 1.0, 2.0]).astype(complex),
                                         np.diag([5.0, 5.0, 7.0]).astype(complex))
        assert certified
        mults = sorted(l.mult for l in lines)
        assert mults == [1, 2]

    def test_random_commuting_hermitian_pair(self, rng):
        n = 5
        w = random_unitary(rng, n)
        a = w @ np.diag(rng.normal(size=n)).astype(complex) @ w.conj().T
        b = w @ np.diag(rng.normal(size=n)).astype(complex) @ w.conj().T
        _, certified = lines_of_pair(a, b)
        assert certified

    def test_first_matrix_must_be_normal(self, rng):
        with pytest.raises(NotNormalError, match="^first matrix of the pair must be normal$"):
            lines_of_pair(random_complex(rng, 3), np.eye(3))

    def test_pair_must_share_one_dimension(self):
        with pytest.raises(ValueError, match="^pair matrices must share one dimension$"):
            lines_of_pair(np.eye(2), np.eye(3))

    @pytest.mark.xfail(strict=True, reason="mu is read off b in the arbitrary basis that "
                       "the eigensolver returns for a repeated eigenspace of a")
    def test_commuting_pair_with_repeated_eigenvalue(self, rng):
        # the docstring's claim: commuting normal pairs certify
        for lams in ([1, 1, 2, 3], [0.5, 0.5, 0.5, -1, 2, 3], [1j, 1j, 2, -1]):
            n = len(lams)
            w = random_unitary(rng, n)
            a = w @ np.diag(np.array(lams, dtype=complex)) @ w.conj().T
            b = w @ np.diag(rng.normal(size=n)).astype(complex) @ w.conj().T
            _, certified = lines_of_pair(a, b)
            assert certified, lams


class TestSpectraEqual:
    def test_tuple_vs_itself(self):
        t = snu2_generators(4, 0.6)
        results = spectra_equal(t, t, ["A1, A2 A2^H", "A1, A2 A3"])
        assert all(r.equal for r in results)

    def test_counterexample_vs_sl2(self):
        t = counterexample_tuple(1.0, 2.0, 2.0, 1.0)
        ref = sl2_generators(3)
        results = spectra_equal(t, ref, ["A1, A2, A3"])
        assert results[0].equal

    def test_unitary_conjugate(self, rng):
        t = snu2_generators(5, 0.5)
        w = random_unitary(rng, 5)
        conj = tuple(w @ m @ w.conj().T for m in t.matrices)
        results = spectra_equal(t, conj,
                                ["A1, A2 A2^H", "A1, A2^H A2", "A1, A2 A3"])
        assert all(r.equal for r in results)

    def test_pair_is_not_a_triple(self):
        a = np.eye(2)
        with pytest.raises(ValueError, match="expected a triple"):
            spectra_equal((a, a), (a, a), ["A1, A3"])

    def test_scaled_slot_detected(self):
        t = snu2_generators(4, 0.5)
        scaled = (t.h, 2.0 * t.e, t.f)
        results = spectra_equal(t, scaled, ["A1, A2 A2^H"])
        assert not results[0].equal

    @pytest.mark.parametrize("pencils", ["A1, A2 A2^H", "H"])
    def test_bare_string_rejected(self, pencils):
        # a string was read as its characters: "A1, A2 A2^H" raised a
        # PencilSyntaxError at 'A', and "H" compared the pencil (H) alone
        t = snu2_generators(4, 0.5)
        with pytest.raises(TypeError, match=r"^pencils must be a list of pencil strings, "
                                            r"e\.g\. \[.*\], not a str$"):
            spectra_equal(t, t, pencils)


class TestX2Dependence:
    def test_triangular_pencil_free(self):
        t = sl2_generators(5)
        assert not x2_dependence(t.h, t.e)

    def test_cycle_creates_dependence(self):
        t = sl2_generators(3)
        bumped = t.e.copy()
        bumped[2, 0] = 1.0
        assert x2_dependence(t.h, bumped)
        # cofactor oracle: det picks up 4 y^3 from the new cycle
        direct = cofactor_det(0.3 * t.h + 0.2 * bumped - np.eye(3))
        p = det_pencil([t.h, bumped])
        assert abs(poly_value(p.coeffs, [0.3, 0.2]) - direct) <= 1e-9 * max(1, abs(direct))

    def test_zero_second_slot_free(self):
        # the x2-degree is read off the determinant itself, so any pair
        # whose second slot actually enters the determinant reports True;
        # it is False exactly when x2 drops out
        assert not x2_dependence(np.diag([1.0, 2.0]).astype(complex),
                                 np.zeros((2, 2), dtype=complex))
        assert x2_dependence(np.diag([1.0, 2.0]).astype(complex),
                             np.diag([3.0, 4.0]).astype(complex))
