import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from specrig import exceptional
from specrig.exceptional import (ExceptionalRoot, corollary_check,
                                 exceptional_set, is_exceptional,
                                 multiplicity_profile, z_root)
from specrig.generators import c_coeff

# unique real root of z^3 + z^2 = 1 (cross-checked symbolically)
PLASTIC_ROOT = 0.7548776662466927


def root_polynomial(n, i, j):
    """Ascending coefficients of the pair's polynomial, from its definition:
    +1 on degrees 0..n-j-1, -1 on degrees n-i..n-1, zeros between."""
    return np.array([1.0 if d < n - j else -1.0 if d >= n - i else 0.0 for d in range(n)])


def library_coefficients(n, i, j):
    """The pair's column of ``exceptional._coefficients``, in ascending order."""
    return exceptional._coefficients(n, np.array([i]), np.array([j]))[::-1, 0]


def poly_value(coeffs, z):
    return sum(c * z**d for d, c in enumerate(coeffs))


def exceptional_nus(n):
    """Sorted list of every exceptional parameter: +-sqrt(z_ij) plus +-1."""
    nus = [r.nu for r in exceptional_set(n)]
    return sorted({1.0, -1.0, *nus, *(-nu for nu in nus)})


def sign_changes(coeffs):
    """Number of sign alternations among nonzero coefficients."""
    signs = [c for c in np.sign(coeffs) if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class TestRootPolynomial:
    """The library's coefficients against the definition."""

    def test_n4_pair(self):
        assert np.array_equal(library_coefficients(4, 2, 3), [1.0, 0.0, -1.0, -1.0])
        assert np.array_equal(root_polynomial(4, 2, 3), [1.0, 0.0, -1.0, -1.0])

    def test_n5_pair(self):
        assert np.array_equal(library_coefficients(5, 3, 4), [1.0, 0.0, -1.0, -1.0, -1.0])
        assert np.array_equal(root_polynomial(5, 3, 4), [1.0, 0.0, -1.0, -1.0, -1.0])

    def test_leading_and_constant(self):
        for n in range(4, 10):
            for i, j in itertools.combinations(range(n), 2):
                if i + j > n:
                    c = library_coefficients(n, i, j)
                    assert np.array_equal(c, root_polynomial(n, i, j))
                    assert c[0] == 1.0 and c[-1] == -1.0

    def test_index_constraints(self):
        with pytest.raises(ValueError):
            z_root(4, 1, 2)  # i + j = 3 <= 4
        with pytest.raises(ValueError):
            z_root(4, 3, 2)


class TestZRoot:
    def test_n4_value(self):
        r = z_root(4, 2, 3)
        assert 0.754877 < r.z < 0.754878
        assert abs(r.z - PLASTIC_ROOT) < 1e-13
        assert abs(r.z**3 + r.z**2 - 1.0) <= 1e-13

    def test_residual_small_everywhere(self):
        for n in range(4, 13):
            for r in exceptional_set(n):
                coeffs = root_polynomial(n, r.i, r.j)
                assert abs(poly_value(coeffs, r.z)) <= 1e-13

    def test_ladder_coefficients_collide_at_root(self):
        for n in (4, 6, 9):
            for r in exceptional_set(n):
                nu = r.nu
                assert abs(c_coeff(n, r.i, nu) ** 2 - c_coeff(n, r.j, nu) ** 2) <= 1e-10

    def test_descartes_bound(self):
        for n in range(4, 13):
            for i, j in itertools.combinations(range(n), 2):
                if i + j > n:
                    assert sign_changes(root_polynomial(n, i, j)) == 1


class TestRootContract:
    """An ExceptionalRoot is a NamedTuple of (n, i, j, z, nu), and the
    cached index pairs cannot be changed by a caller."""

    def test_fields_and_repr(self):
        assert ExceptionalRoot._fields == ("n", "i", "j", "z", "nu")
        assert repr(z_root(4, 2, 3)) == (
            "ExceptionalRoot(n=4, i=2, j=3, z=0.7548776662466927, nu=0.8688369618327093)")

    def test_hashable_immutable_and_tuple_equal(self):
        r = z_root(4, 2, 3)
        assert r == (4, 2, 3, r.z, r.nu) and hash(r) == hash((4, 2, 3, r.z, r.nu))
        assert {r, exceptional_set(4)[0]} == {r}
        with pytest.raises(AttributeError):
            r.nu = 0.5

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_index_pairs_cached_read_only(self, n):
        i, j = exceptional._index_pairs(n)
        again = exceptional._index_pairs(n)
        assert again[0] is i and again[1] is j
        for a in (i, j):
            with pytest.raises(ValueError):
                a[:1] = 0

    @pytest.mark.parametrize("n", [4, 9, 40])
    def test_returned_list_is_the_callers(self, n):
        roots = exceptional_set(n)
        roots.clear()
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if i + j > n]
        assert exceptional_set(n) == [z_root(n, i, j) for i, j in pairs]


class TestExceptionalSet:
    def test_n3_empty(self):
        assert exceptional_set(3) == []
        assert exceptional_nus(3) == [-1.0, 1.0]

    def test_n4_single_pair(self):
        roots = exceptional_set(4)
        assert len(roots) == 1
        assert (roots[0].i, roots[0].j) == (2, 3)
        assert roots[0].nu == pytest.approx(math.sqrt(PLASTIC_ROOT), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_count_formula(self, n):
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if i + j > n]
        assert len(exceptional_set(n)) == len(pairs)
        # S~ is symmetric under nu -> -nu and excludes +-1 counting
        assert len(exceptional_nus(n)) == 2 * len(pairs) + 2

    @pytest.mark.parametrize("n", range(2, 41))
    def test_scalar_and_array_kernels_match_z_root(self, n):
        # n <= 13 runs the scalar loop (at most _SCALAR_PAIRS pairs), from
        # n = 14 the array steps, both from certified brackets; all give
        # z_root's floats, bisected from [0, 1]
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if i + j > n]
        assert (len(pairs) <= exceptional._SCALAR_PAIRS) == (n <= 13)
        roots = exceptional_set(n)
        assert [(r.i, r.j) for r in roots] == pairs
        assert roots == [z_root(n, i, j) for i, j in pairs]

    def test_n200_memory_is_bounded(self):
        # the pairs are bisected a block at a time, so no (R, n) array of
        # all 9801 pairs' coefficients (15.7 MB) is ever built
        tracemalloc.start()
        try:
            roots = exceptional_set(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(roots) == 9801
        assert peak <= 8e6

    def test_original_multiplicity_equation(self):
        # 1 + z^n - z^(n-j) - z^(n-i) = 0 at every root
        for n in range(4, 13):
            for r in exceptional_set(n):
                val = 1.0 + r.z**n - r.z ** (n - r.j) - r.z ** (n - r.i)
                assert abs(val) <= 1e-11

    def test_positivity_bound_below_threshold(self):
        # for 1 <= i < j with i + j <= n the expression stays positive on
        # (0, 1), bounded below by the factored form (i = 0 never yields
        # a collision since c_0 = 0)
        grid = np.linspace(0.01, 0.99, 99)
        for n in (5, 8, 12):
            for i, j in itertools.combinations(range(1, n), 2):
                if i + j <= n:
                    vals = 1.0 + grid**n - grid ** (n - j) - grid ** (n - i)
                    bound = (1.0 - grid**i) * (1.0 - grid ** (n - i))
                    assert np.all(vals >= bound - 1e-12)
                    assert np.all(bound > 0.0)


def _plain_lockstep(n, i, j):
    """The pairs' roots bisected from [0, 1] with ``exceptional._step``
    until no end moves, and the brackets held after each step."""
    coeffs = exceptional._coefficients(n, i, j)
    lo, hi = np.zeros(i.size), np.ones(i.size)
    path = [(lo, hi)]
    while True:
        new_lo, new_hi = exceptional._step(coeffs, lo, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return 0.5 * (lo + hi), path
        lo, hi = new_lo, new_hi
        path.append((lo, hi))


def _hex(zs):
    return [float(z).hex() for z in zs]


class TestCertifiedStart:
    """Each pair's bisection starts from a dyadic bracket that the plain
    bisection from [0, 1] passes through, so the roots do not change."""

    @pytest.mark.parametrize("n", [32, 40, 64, 101, 150, 200])
    def test_roots_match_plain_lockstep(self, n):
        i, j = exceptional._index_pairs(n)
        if n > 100:  # a seeded sample of 200 pairs
            pick = np.sort(np.random.default_rng(n).choice(i.size, 200, replace=False))
            i, j = i[pick], j[pick]
        got = {(r.i, r.j): r.z for r in exceptional_set(n)}
        assert _hex(got[p] for p in zip(i.tolist(), j.tolist())) == _hex(_plain_lockstep(n, i, j)[0])

    @pytest.mark.parametrize("n", range(2, 81))
    def test_brackets_lie_on_plain_path(self, n):
        i, j = exceptional._index_pairs(n)
        lo, hi = exceptional._certified(exceptional._coefficients(n, i, j), n, i, j)
        levels = -np.log2(hi - lo)
        assert np.array_equal(levels, np.round(levels))
        path = _plain_lockstep(n, i, j)[1]
        for k, level in enumerate(levels.astype(int).tolist()):
            assert (lo[k], hi[k]) == (path[level][0][k], path[level][1][k]), (i[k], j[k])
        if n >= 8:  # every pair starts at most 18 steps from its fixed point
            assert levels.min() >= 36

    @pytest.mark.parametrize("kind", ["nan", "half", "one", "left_end", "right_end"])
    def test_any_approximation_gives_the_same_roots(self, monkeypatch, kind):
        # the approximation only buys speed; a bad one fails the certificate
        pairs = {n: exceptional._index_pairs(n) for n in (9, 16, 33, 64)}
        plain = {n: _plain_lockstep(n, *p)[0] for n, p in pairs.items()}
        ends = {n: exceptional._certified(exceptional._coefficients(n, *p), n, *p)
                for n, p in pairs.items()}
        fake = {"nan": lambda n, i: np.full(i.size, np.nan),
                "half": lambda n, i: np.full(i.size, 0.5),
                "one": lambda n, i: np.ones(i.size),
                "left_end": lambda n, i: ends[n][0],
                "right_end": lambda n, i: ends[n][1]}[kind]
        monkeypatch.setattr(exceptional, "_approximate", lambda n, i, j: fake(n, i))
        for n in pairs:
            assert _hex(r.z for r in exceptional_set(n)) == _hex(plain[n]), n


class TestMultiplicityProfile:
    def test_generic_nu_simple(self):
        profile = multiplicity_profile(4, 0.5)
        assert [m for _, m in profile] == [1, 1, 1, 1]

    def test_doubled_at_root(self):
        r = z_root(4, 2, 3)
        profile = multiplicity_profile(4, r.nu)
        assert sorted(m for _, m in profile) == [1, 1, 2]

    @pytest.mark.parametrize("n", [4, 5, 8, 11])
    def test_classical_pairing(self, n):
        # at nu = 1, c_i^2 = c_j^2 exactly when i + j = n
        profile = multiplicity_profile(n, 1.0)
        expected_doubles = sum(1 for m in range(1, n) if m < n - m)
        assert sum(1 for _, mult in profile if mult == 2) == expected_doubles

    @pytest.mark.parametrize("n", [48, 64])
    def test_exactly_one_double_at_every_root(self, n):
        # the small values need a gap relative to their own size: one
        # scaled by max|vals| merges them, e.g. at (n, i, j) = (48, 46, 47)
        for r in exceptional_set(n):
            profile = multiplicity_profile(n, r.nu)
            assert sorted(m for _, m in profile) == [1] * (n - 2) + [2], (r.i, r.j)

    @pytest.mark.parametrize("n", [0, -3])
    def test_dimension_checked_first(self, n):
        for nu in (0.5, math.nan):
            with pytest.raises(ValueError, match="^dimension must be >= 1$"):
                multiplicity_profile(n, nu)

    def test_is_exceptional_iff_doubled(self):
        n = 6
        on_set = [r.nu for r in exceptional_set(n)]
        off_set = [0.2, 0.5, -0.6]
        for nu in on_set:
            assert is_exceptional(n, nu)
            assert any(m == 2 for _, m in multiplicity_profile(n, nu))
        for nu in off_set:
            assert not is_exceptional(n, nu, tol=1e-6)
            assert all(m == 1 for _, m in multiplicity_profile(n, nu))


class TestCorollary:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_holds_through_n12(self, n):
        res = corollary_check(n)
        assert res
        assert res.violations == []

    def test_no_triple_coincidences(self):
        for n in range(4, 13):
            roots = exceptional_set(n)
            for a, b, c in itertools.combinations(roots, 3):
                assert not (abs(a.z - b.z) <= 1e-10 and abs(b.z - c.z) <= 1e-10)

    def test_vacuous_for_n3(self):
        assert corollary_check(3)


TOLS = (1e-9, 1e-6, 0.8)


def _no_bisection(*args):
    raise AssertionError("bisected")


def _within_full_scan(nus, nu, tol):
    return any(abs(nu - s) <= tol for s in nus)


class TestIsExceptionalPruned:
    """is_exceptional bisects a pair only while its root may lie within tol
    of nu; the answer must be the full scan's over exceptional_nus."""

    @pytest.mark.parametrize("n", [*range(2, 41), 64, 104])
    def test_matches_full_scan(self, n):
        # every parameter up to n = 10, then six seeded ones, +-1 and the
        # last pair's root: from n = 103 the pairs span two blocks, each
        # bisected on its own, and that root lies in the last
        nus = exceptional_nus(n)
        picks = nus if n <= 10 else [*np.random.default_rng(n).choice(nus, 6).tolist(),
                                     -1.0, 1.0, exceptional_set(n)[-1].nu]
        for tol in TOLS:
            queries = [math.nan, math.inf, -math.inf, 0.0, 0.5, -0.3]
            for s in picks:
                for q in (s, s + tol, s - tol):
                    queries += [q, float(np.nextafter(q, 2.0)), float(np.nextafter(q, -2.0))]
            for q in queries:
                assert is_exceptional(n, q, tol) == _within_full_scan(nus, q, tol), (q, tol)

    def test_non_finite_and_small_dimension(self):
        assert not is_exceptional(6, math.nan)
        assert not is_exceptional(6, math.inf) and not is_exceptional(6, -math.inf)
        for n in (0, 1):
            with pytest.raises(ValueError, match="dimension must be >= 2"):
                is_exceptional(n, math.nan)

    def test_does_not_bisect_every_pair(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("full bisection")
        monkeypatch.setattr(exceptional, "exceptional_set", refuse)
        assert is_exceptional(32, z_root(32, 20, 30).nu)
        assert corollary_check(24)

    @pytest.mark.parametrize("n", [10, 32])
    def test_sweep_settles_roots_and_far_parameters(self, monkeypatch, n):
        # at a root (either sign) and 1e-6 or more from every exceptional
        # parameter, as the benchmark draws its queries, nothing is bisected
        nus = np.array(exceptional_nus(n))
        rng = np.random.default_rng(n)
        far = [nu for nu in rng.uniform(-0.99, 0.99, 60) if np.abs(nus - nu).min() > 1e-6]
        monkeypatch.setattr(exceptional, "_bisect", _no_bisection)
        assert all(is_exceptional(n, nu) for nu in nus)
        assert not any(is_exceptional(n, nu) for nu in far)

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_band_edges_bisect_only_undecided_pairs(self, monkeypatch, tol):
        # nu = s +- tol puts the root z = s^2 within an ulp or so of a band
        # end, where no bound places it: that pair, and only pairs with a
        # root that close to an end, are bisected
        n, nus = 12, exceptional_nus(12)
        bisect, bisected, total = exceptional._bisect, [], []

        def spy(n, i, j):
            bisected.extend(zip(i.tolist(), j.tolist()))
            total.append(i.size)
            return bisect(n, i, j)
        monkeypatch.setattr(exceptional, "_bisect", spy)
        roots = {(r.i, r.j): r.z for r in exceptional_set(n)}
        for s in nus[1:-1]:
            for edge in (s + tol, s - tol):
                for q in (edge, math.nextafter(edge, 2.0), math.nextafter(edge, -2.0)):
                    del bisected[:]
                    assert is_exceptional(n, q, tol) == _within_full_scan(nus, q, tol), q
                    ends = [z for m in (q, -q) for z in exceptional._band(m, tol)]
                    for p in bisected:
                        assert min(abs(roots[p] - z) for z in ends) <= 1e-14, (q, p)
        assert 0 < sum(total) <= 2 * len(total)

    @pytest.mark.parametrize("n,nu,tol", [(32, -1e-8, 1e-8), (32, 0.5, 0.49),
                                          (64, -1e-9, 1e-9)])
    def test_cancelling_band_ends_are_exact(self, monkeypatch, n, nu, tol):
        # nu +- tol nearly cancels, so a band end lies far beyond the 8
        # floats beside its guess fl((nu -+ tol)^2): it is still the exact
        # end, and only pairs with a root beside an end are bisected
        nus, roots = exceptional_nus(n), {(r.i, r.j): r.z for r in exceptional_set(n)}
        for m in (nu, -nu):
            a, b = exceptional._band(m, tol)
            assert a == math.inf or (m - math.sqrt(a) <= tol and (
                a == 0.0 or m - math.sqrt(math.nextafter(a, -1.0)) > tol)), (m, a)
            assert b == -math.inf or (m - math.sqrt(b) >= -tol and (
                b == 1.0 or m - math.sqrt(math.nextafter(b, 2.0)) < -tol)), (m, b)
        bisect, bisected = exceptional._bisect, []

        def spy(n, i, j):
            bisected.extend(zip(i.tolist(), j.tolist()))
            return bisect(n, i, j)
        monkeypatch.setattr(exceptional, "_bisect", spy)
        assert is_exceptional(n, nu, tol) == _within_full_scan(nus, nu, tol)
        ends = [z for m in (nu, -nu) for z in exceptional._band(m, tol)]
        for p in bisected:
            assert min(abs(roots[p] - z) for z in ends) <= 1e-14, p

    def test_two_blocks_one_power_table(self, monkeypatch):
        # n = 104 splits the pairs into two blocks, and the last pair's root
        # lies in the second: one table of power sums serves both
        i, _ = exceptional._index_pairs(104)
        assert len(list(exceptional._blocks(104, i.size))) == 2
        power_sums, tables = exceptional._power_sums, []
        monkeypatch.setattr(exceptional, "_power_sums",
                            lambda n, x: tables.append(x) or power_sums(n, x))
        nu = -exceptional_set(104)[-1].nu
        monkeypatch.setattr(exceptional, "_bisect", _no_bisection)
        assert is_exceptional(104, nu)
        assert not is_exceptional(104, 0.123456)
        assert len(tables) == 2

    @pytest.mark.parametrize("n", [5, 17, 40])
    def test_sweep_values_within_four_error_bounds(self, n):
        # f~ = S_(n-j) - (S_n - S_(n-i)) from the power table, against exact
        # rational arithmetic at each point, and 4E with E = n gamma_2n
        i, j = exceptional._index_pairs(n)
        x = [0.0, 0.5, PLASTIC_ROOT, 0.9, math.nextafter(1.0, 0.0), 1.0]
        s = exceptional._power_sums(n, x)
        for row, p in zip(s, x):
            exact = [Fraction(0)]
            for k in range(n):
                exact.append(exact[-1] + Fraction(p) ** k)
            got = row[n - j] - (row[n] - row[n - i])
            want = [exact[n - b] - (exact[n] - exact[n - a]) for a, b in zip(i, j)]
            worst = max(abs(Fraction(g) - w) for g, w in zip(got.tolist(), want))
            assert worst <= 4 * exceptional._error_bound(n), (n, p)

    def test_n200_memory_is_bounded(self):
        nu = z_root(200, 120, 150).nu
        for call in (lambda: is_exceptional(200, nu), lambda: corollary_check(200)):
            tracemalloc.start()
            try:
                assert call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"
