"""Tests for the finite-field layer and the character-sum identities."""

import cmath
import functools
import gc
import math
import random
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from monodromy import charsums
from monodromy.charsums import (
    FIELD_SIZE_GUARD,
    _companion,
    _decode_int,
    _is_irreducible,
    _mat_pow,
    _switchsum_sides,
    belyi_values,
    build_field,
    exp_sum,
    gauss_sum,
    gauss_sum_raw,
    gauss_sums_all,
    jacobi_sum,
    mellin_suite,
    mellin_sum,
    switchsum_exhaustive,
)
from monodromy.cli import MELLIN_PAIRS, MELLIN_QS
from monodromy.qz import is_prime

from charsum_oracles import (
    Elements,
    additive_char,
    exp_sum_naive,
    is_irreducible_trial,
    mellin_sum_naive,
    mult_char,
    poly_mulmod,
    poly_trim,
)

ABS_TOL = 1e-9
ORTHO_TOL = 1e-12


def small_fields():
    return [build_field(p, r) for p, r in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))]


def oracle_field(p, r):
    """(modulus, generator, exp, log, trace) built one element at a time.

    The modulus is the first irreducible in encoding order; the generator is
    the first unit whose powers, walked with ``poly_mulmod``, reach q-1
    elements before returning to 1; Tr(t) sums the constant coefficients
    (encodings mod p) of the r Frobenius conjugates t^(p^i), since the trace
    lies in F_p.
    """
    q, m = p**r, p**r - 1
    modulus = next(c for c in (_decode_int(k, p, r) + [1] for k in range(q))
                   if is_irreducible_trial(c, p))

    def powers(g):
        gp, acc, out = poly_trim(_decode_int(g, p, r)), [1], [[1]]
        while True:
            acc = poly_mulmod(acc, gp, modulus, p)
            if acc == [1]:
                return out
            out.append(acc)

    for generator in range(1, q):
        walk = powers(generator)
        if len(walk) == m:
            break
    exp = [sum(c * p**i for i, c in enumerate(a)) for a in walk]
    log = [-1] * q
    for k, t in enumerate(exp):
        log[t] = k
    frob = [p**i for i in range(r)]
    trace = [0] + [sum(exp[log[t] * f % m] for f in frob) % p for t in range(1, q)]
    return tuple(modulus), generator, tuple(exp), tuple(log), tuple(trace)


def all_monic(p, deg):
    """Every monic polynomial over F_p of degree deg, as coefficient lists."""
    return [_decode_int(k, p, deg) + [1] for k in range(p**deg)]


class TestIrreducibility:
    def test_first_condition_alone_is_not_enough(self):
        # over F_2 both split into distinct factors of degree dividing 6, so
        # x^64 = x mod f and the first condition alone would accept them
        for f in ([1, 1, 0, 0, 1, 0, 1],  # (x+1)(x^2+x+1)(x^3+x+1)
                  [1, 1, 1, 1, 1, 1, 1]):  # (x^3+x+1)(x^3+x^2+1)
            X = _companion(f, 2)
            assert np.array_equal(_mat_pow(X, 2**6, 2), X)
            assert not _is_irreducible(f, 2)

    def test_square_is_rejected(self):
        assert not _is_irreducible([1, 0, 1, 0, 1], 2)  # (x^2+x+1)^2

    def test_matches_trial_division(self):
        polys = [(p, f) for p, top in ((2, 6), (3, 6), (5, 3), (7, 3))
                 for deg in range(1, top + 1) for f in all_monic(p, deg)]
        assert len(polys) == 1772
        for p, f in polys:
            assert _is_irreducible(f, p) == is_irreducible_trial(f, p), (p, f)

    def test_one_representation_of_the_field(self):
        # field arithmetic is the companion matrix alone: list-polynomial
        # helpers live in the test oracles
        source = Path(charsums.__file__).read_text()
        assert "def _poly_" not in source
        assert "raw_pow" not in source


class TestBuildField:
    def test_f8_modulus_and_size(self):
        F = build_field(2, 3)
        assert F.q == 8
        assert F.modulus == (1, 1, 0, 1)  # x^3 + x + 1

    def test_prime_field_degenerate_modulus(self):
        F = build_field(2, 1)
        assert F.q == 2 and len(F.modulus) == 2

    def test_f9(self):
        F = build_field(3, 2)
        assert F.q == 9 and F.modulus == (1, 0, 1)  # x^2 + 1

    def test_guard(self):
        with pytest.raises(ValueError):
            build_field(2, 21)
        # rejected by its degree, before 3^(10^7) is formed or printed
        with pytest.raises(ValueError, match=r"field size 3\^10000000 exceeds guard"):
            build_field(3, 10**7)

    def test_exp_log_bijection(self):
        for F in small_fields():
            assert sorted(F.exp) == list(range(1, F.q))
            for t in range(1, F.q):
                assert F.exp[F.log[t]] == t

    def test_generator_has_full_order(self):
        for F in small_fields():
            if F.q == 2:
                continue
            n = F.q - 1
            powers = {Elements(F).power(F.generator, k) for k in range(n)}
            assert len(powers) == n

    def test_field_axioms_sampled(self):
        # multiplication read off the tables distributes over the oracle's
        # digitwise addition, on every triple
        F = build_field(3, 2)
        E = Elements(F)

        def table_mul(a, b):
            return 0 if a == 0 or b == 0 else int(F.exp[(F.log[a] + F.log[b]) % (F.q - 1)])

        for a, b, c in product(range(F.q), repeat=3):
            assert table_mul(a, E.add(b, c)) == E.add(table_mul(a, b), table_mul(a, c))

    def test_json_export(self):
        F = build_field(2, 3)
        d = F.as_json_dict()
        assert d == {"p": 2, "r": 3, "modulus": [1, 1, 0, 1], "generator": [0, 1, 0]}

    def test_tables_match_per_element_oracle(self):
        fields = [(p, r) for p in range(2, 2049) if is_prime(p)
                  for r in range(1, 12) if p**r <= 2048]
        # 46337 and 46349 straddle the step of exp from int32 to int64; at
        # 65521 the doubling's products g^n * exp[k] pass 2^31
        for p, r in fields + [(2, 16), (1021, 1), (46337, 1), (46349, 1), (65521, 1)]:
            F = build_field(p, r)
            got = (F.modulus, F.generator, *(tuple(t.tolist()) for t in (F.exp, F.log, F.trace)))
            assert got == oracle_field(p, r), (p, r)
            exp_dtype = np.int64 if r == 1 and (p - 1) ** 2 >= 2**31 else np.int32
            assert (F.exp.dtype, F.log.dtype, F.trace.dtype) == (exp_dtype, np.int64, np.int64)

    def test_cache_is_bounded_and_releases_fields(self):
        build_field.cache_clear()
        first = build_field(2, 3)
        gauss_sums_all(first)
        jacobi_sum(first, 1, 2)
        _switchsum_sides(first)(1)
        evicted = weakref.ref(first)
        del first
        for p in filter(is_prime, range(3, 180)):  # 40 more fields
            F = build_field(p, 1)
            gauss_sums_all(F)
            jacobi_sum(F, 1, 2)
        del F
        gc.collect()
        assert build_field.cache_info().currsize <= 32
        assert evicted() is None

    def test_field_caches_only_psi_by_log(self):
        # the one derived table the sums re-read at size; the rest are per call
        cached = [name for name, v in vars(charsums.FieldPresentation).items()
                  if isinstance(v, functools.cached_property)]
        assert cached == ["_psi_by_log"]

    def test_sums_leave_at_most_36_bytes_per_element(self):
        # exp (int32), log and trace (int64) are 20 bytes per element, and
        # psi by log (complex128) 16 more; no sum may leave another table
        F = build_field(2, 16)
        gauss_sums_all(F)
        gauss_sum_raw(F, 3)
        jacobi_sum(F, 3, 5)
        held = sum(v.nbytes for v in vars(F).values() if isinstance(v, np.ndarray))
        assert held <= 36 * F.q

    def test_tables_are_read_only(self):
        F = build_field(3, 2)
        for table in (F.exp, F.log, F.trace):
            with pytest.raises(ValueError):
                table[1] = 0

    def test_equality_and_hash_come_from_the_presentation(self):
        build_field.cache_clear()
        F = build_field(2, 6)
        gauss_sums_all(F)
        mellin_suite(F, (3, 2))
        _switchsum_sides(F)(3)
        build_field.cache_clear()
        G = build_field(2, 6)
        assert G is not F and G == F and hash(G) == hash(F)
        assert G != build_field(2, 5)

    def test_trace_additive_and_surjective(self):
        for F in small_fields():
            E = Elements(F)
            traces = {F.trace[t] for t in range(F.q)}
            assert traces == set(range(F.p))
            for a in range(min(F.q, 6)):
                for b in range(min(F.q, 6)):
                    assert F.trace[E.add(a, b)] == (F.trace[a] + F.trace[b]) % F.p


class TestCharacters:
    def test_psi_at_zero(self):
        for F in small_fields():
            assert additive_char(F, 0) == 1

    def test_psi_plus_minus_one_char2(self):
        F = build_field(2, 3)
        assert {additive_char(F, t) for t in range(F.q)} <= {1 + 0j, -1 + 0j}

    def test_psi_orthogonality(self):
        for F in small_fields():
            total = sum(additive_char(F, t) for t in range(F.q))
            assert abs(total) < ORTHO_TOL * F.q

    def test_trivial_char(self):
        F = build_field(3, 2)
        assert all(abs(mult_char(F, 0, t) - 1) < ORTHO_TOL for t in range(1, F.q))

    def test_char_at_generator(self):
        F = build_field(3, 2)
        m = F.q - 1
        for a in range(m):
            want = cmath.exp(2j * cmath.pi * a / m)
            assert abs(mult_char(F, a, F.generator) - want) < ORTHO_TOL

    def test_char_homomorphism(self):
        # chi reads the log table; the product is the oracle's, so this
        # checks the tables against the field on every pair of units
        for F in (build_field(2, 4), build_field(3, 2)):
            E = Elements(F)
            for a in (1, 3, 7):
                for t1, t2 in product(range(1, F.q), repeat=2):
                    lhs = mult_char(F, a, E.mul(t1, t2))
                    rhs = mult_char(F, a, t1) * mult_char(F, a, t2)
                    assert abs(lhs - rhs) < 1e-12

    def test_char_orthogonality(self):
        F = build_field(5, 2)
        for a in (1, 2, 11):
            total = sum(mult_char(F, a, t) for t in range(1, F.q))
            assert abs(total) < 1e-10

    def test_char_rejects_zero(self):
        F = build_field(2, 3)
        with pytest.raises(ValueError):
            mult_char(F, 1, 0)


class TestGaussSums:
    def test_f2_value(self):
        F = build_field(2, 1)
        assert abs(gauss_sum(F, 0) - 1) < ORTHO_TOL

    def test_trivial_char_value(self):
        for F in small_fields():
            assert abs(gauss_sum(F, 0) - 1) < 1e-10

    def test_modulus_small_fields(self):
        for F in small_fields():
            for a in range(1, F.q - 1):
                assert abs(abs(gauss_sum(F, a)) - math.sqrt(F.q)) < ABS_TOL

    def test_modulus_all_fields_up_to_1024(self):
        from monodromy.qz import is_prime

        for p in range(2, 1025):
            if not is_prime(p):
                continue
            r = 1
            while p**r <= 1024:
                F = build_field(p, r)
                if F.q > 2:
                    g = gauss_sums_all(F)
                    dev = np.max(np.abs(np.abs(g[1:]) - math.sqrt(F.q)))
                    assert dev < ABS_TOL * math.sqrt(F.q), (p, r, dev)
                r += 1

    def test_batched_matches_direct(self):
        F = build_field(3, 3)
        g = gauss_sums_all(F)
        for a in (0, 1, 5, 13, 25):
            assert abs(g[a] - gauss_sum(F, a)) < 1e-9

    def test_quadratic_gauss_sum_f3(self):
        # the quadratic character of F_3: raw sum is i*sqrt(3), so the
        # signed sum squares to -3
        F = build_field(3, 1)
        g = gauss_sum(F, 1)
        assert abs(g * g - (-3)) < ABS_TOL


class TestJacobiSums:
    def test_both_trivial(self):
        for F in small_fields():
            assert abs(jacobi_sum(F, 0, 0) - (F.q - 2)) < ORTHO_TOL

    def test_gauss_factorization(self):
        F = build_field(2, 4)
        m = F.q - 1
        for a1 in (1, 2, 7):
            for a2 in (3, 4, 11):
                if (a1 + a2) % m == 0:
                    continue
                lhs = jacobi_sum(F, a1, a2)
                rhs = (
                    gauss_sum_raw(F, a1)
                    * gauss_sum_raw(F, a2)
                    / gauss_sum_raw(F, (a1 + a2) % m)
                )
                assert abs(lhs - rhs) < ABS_TOL

    def test_product_trivial_needs_minus_sign(self):
        """For chi1*chi2 trivial the correct complex identity is
        J = -G(chi1)G(chi2)/q; the quotient form without the minus holds
        only at the level of absolute values / valuations."""
        for F in (build_field(2, 4), build_field(3, 2), build_field(5, 2)):
            m = F.q - 1
            for a in (1, 2, 5):
                if a % m == 0:
                    continue
                lhs = jacobi_sum(F, a, m - a)
                rhs = -gauss_sum_raw(F, a) * gauss_sum_raw(F, m - a) / F.q
                assert abs(lhs - rhs) < ABS_TOL
                # and J(chi, chibar) = -chi(-1)
                chi_minus1 = mult_char(F, a, Elements(F).neg(1))
                assert abs(lhs - (-chi_minus1)) < ABS_TOL

    def test_one_trivial(self):
        F = build_field(3, 2)
        for a in (1, 3, 5):
            assert abs(jacobi_sum(F, 0, a) - (-1)) < ABS_TOL
            assert abs(jacobi_sum(F, a, 0) - (-1)) < ABS_TOL


class TestExpSum:
    def test_nonzero_linear_vanishes(self):
        F = build_field(3, 2)
        # f = x, s + t != 0: sum psi((s+t)x) = 0
        assert abs(exp_sum(F, [0, 1], 2, 5)) < 1e-10 or Elements(F).add(2, 5) == 0

    def test_constant_polynomial(self):
        F = build_field(2, 3)
        c = 5
        val = exp_sum(F, [c], 3, 0)
        assert abs(val - F.q * additive_char(F, Elements(F).mul(3, c))) < 1e-10

    def test_char2_values_are_integers(self):
        F = build_field(2, 3)
        coeffs = [0, 0, 0, 1, 0, 1]  # x^5 + x^3
        for s in (1, 3, 7):
            for t in (0, 2, 5):
                v = exp_sum(F, coeffs, s, t)
                assert abs(v.imag) < ORTHO_TOL
                assert abs(v.real - round(v.real)) < 1e-9

    def test_translation_invariance(self):
        # |sum psi(s f(x+alpha) + t x)| = |sum psi(s f(x) + t x)| for the
        # two-exponent f; shifting x multiplies the sum by a root of unity
        for (p, r) in ((2, 3), (3, 2), (5, 1)):
            F = build_field(p, r)
            E = Elements(F)
            for (d, e) in ((2, 2), (3, 2), (5, 3)):
                fvals = belyi_values(F, d, e)
                for alpha in (1, 2):
                    for s, t in ((1, 1), (2, 3)):
                        base = sum(
                            E.psi(E.add(E.mul(s, fvals[x]), E.mul(t, x)))
                            for x in range(F.q)
                        )
                        shifted = sum(
                            E.psi(
                                E.add(E.mul(s, fvals[E.add(x, alpha)]), E.mul(t, x))
                            )
                            for x in range(F.q)
                        )
                        assert abs(abs(base) - abs(shifted)) < 1e-9


@pytest.mark.parametrize("p,r", [(p, r) for p in range(2, 64) if is_prime(p)
                                 for r in range(1, 7) if p**r <= 64])
def test_exp_sum_matches_per_element_oracle(p, r):
    """exp_sum against Horner's rule in list-polynomial arithmetic, with the
    trace as the sum of the Frobenius conjugates: equal at p = 2, within
    1e-9 at odd p.  The control oracle drops the t*x term and must
    disagree."""
    F = build_field(p, r)
    rng = random.Random(F.q)
    control_differs = False
    for _ in range(6):
        f = [rng.randrange(F.q) for _ in range(rng.randrange(1, 9))]  # degree <= 7
        s, t = rng.randrange(F.q), rng.randrange(F.q)
        got, want = exp_sum(F, f, s, t), exp_sum_naive(F, f, s, t)
        assert got == want if p == 2 else abs(got - want) < 1e-9, (f, s, t, got, want)
        control_differs |= abs(got - exp_sum_naive(F, f, s, t, linear=False)) > 1e-9
    assert control_differs


@pytest.mark.parametrize("p,r", [(p, r) for p in (2, 3, 5, 7) for r in range(1, 7) if p**r <= 64])
def test_belyi_values_match_per_element(p, r):
    F = build_field(p, r)
    E = Elements(F)
    for d in range(9):
        for e in range(9):
            want = [E.mul(E.power(x, d), E.power(E.sub(x, 1), e)) for x in range(F.q)]
            assert belyi_values(F, d, e).tolist() == want, (d, e)


class TestMellin:
    @pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (2, 3), (3, 2)])
    def test_regrouped_matches_naive(self, p, r):
        F = build_field(p, r)
        m = F.q - 1
        for a in range(m):
            for b in range(m):
                v1 = mellin_sum(F, (3, 2), a, b)
                v2 = mellin_sum_naive(F, (3, 2), a, b)
                assert abs(v1 - v2) < 1e-9

    def test_trivial_trivial_value(self):
        for F in (build_field(2, 3), build_field(3, 2), build_field(2, 4)):
            S = mellin_sum(F, (2, 2), 0, 0)
            assert abs(S - F.q * (F.q - 2)) < 1e-9

    def test_trivial_chi_gives_gauss(self):
        F = build_field(2, 4)
        for b in (1, 5, 9):
            S = mellin_sum(F, (3, 2), 0, b)
            assert abs(S - F.q * gauss_sum_raw(F, b)) < 1e-8

    @pytest.mark.parametrize("pair", [(2, 2), (3, 2), (5, 3)])
    def test_closed_forms_small_fields(self, pair):
        for F in (build_field(2, 3), build_field(3, 2), build_field(2, 4)):
            rows = mellin_suite(F, pair)
            assert len(rows) == (F.q - 1) ** 2
            worst = max(row.rel_error for row in rows)
            assert worst < 1e-9

    def test_single_matches_suite(self):
        for p, r in ((2, 3), (3, 2)):
            F = build_field(p, r)
            rows = {(row.a_chi, row.a_eta): row for row in mellin_suite(F, (4, 3))}
            for key, row in rows.items():
                direct = mellin_sum(F, (4, 3), *key)
                assert abs(direct - row.computed) < 1e-9

    def test_guard(self):
        F = build_field(2, 7)
        with pytest.raises(ValueError):
            mellin_sum(F, (2, 2), 1, 1)

    def test_suite_and_closed_form_guard(self):
        # the closed forms come from q x q tables and their O(q^3) products
        F = build_field(2, 7)
        with pytest.raises(ValueError):
            mellin_suite(F, (2, 2))


@pytest.mark.parametrize("q", MELLIN_QS)
def test_mellin_row_errors_match_python_abs(q):
    """abs_error and rel_error are the Python abs of each row's difference,
    bit for bit, so worst_rel_err reads as it did per row."""
    F = _mellin_field(q)
    for pair in MELLIN_PAIRS:
        for row in mellin_suite(F, pair):
            err = abs(row.computed - row.expected)
            assert row.abs_error == err
            assert row.rel_error == err / max(abs(row.expected), 1.0)


@pytest.mark.parametrize("q", [4, 27, 64])
def test_mellin_rows_hold_python_scalars(q):
    """Rows are MellinRows of Python scalars, not numpy ones, which the CLI's
    JSON would print alike."""
    F = _mellin_field(q)
    types = (int, int, str, complex, complex, float, float)
    for row in mellin_suite(F, MELLIN_PAIRS[0]):
        assert type(row) is charsums.MellinRow
        assert tuple(map(type, row)) == types, row


def closed_form_oracle(F, pair, a_chi, a_eta):
    """The four closed-form cases for one (chi, eta), one Gauss or Jacobi
    sum at a time."""
    d, e = pair
    m = F.q - 1
    a_chi %= m
    a_eta %= m
    if a_chi == 0 and a_eta == 0:
        return complex(F.q * (F.q - 2)), "trivial-trivial"
    if a_chi == 0:
        return F.q * gauss_sum_raw(F, a_eta), "trivial-eta"
    chibar_neg1_e = mult_char(F, -a_chi * e, Elements(F).neg(1))
    if a_eta == 0:
        J = jacobi_sum(F, (-d * a_chi) % m, (-e * a_chi) % m)
        return -gauss_sum_raw(F, a_chi) * chibar_neg1_e * J, "chi-trivial-eta"
    J = jacobi_sum(F, (-d * a_chi - a_eta) % m, (-e * a_chi) % m)
    return gauss_sum_raw(F, a_chi) * gauss_sum_raw(F, a_eta) * chibar_neg1_e * J, "nontrivial"


def _mellin_field(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    return build_field(p, round(math.log(q, p)))


@pytest.mark.parametrize(
    "q,pair",
    [(q, pair) for q in MELLIN_QS if q <= 32 for pair in MELLIN_PAIRS]
    + [(49, (5, 3)), (64, (5, 3))],
)
def test_mellin_suite_matches_per_row_oracle(q, pair):
    F = _mellin_field(q)
    assert F.q == q
    rows = mellin_suite(F, pair)
    assert len(rows) == (q - 1) ** 2
    for row in rows:
        want, case = closed_form_oracle(F, pair, row.a_chi, row.a_eta)
        assert row.case == case
        assert abs(row.expected - want) <= 1e-12 * abs(want), (row, want)


class TestSwitchsum:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_exhaustive_small(self, r):
        checked, equal = switchsum_exhaustive(r)
        assert checked == equal == 4**r

    def test_exhaustive_depth_guard(self):
        with pytest.raises(ValueError, match="exceeds 13"):
            switchsum_exhaustive(14)

    def test_sides_are_even_integers(self):
        roots = switch_roots(build_field(2, 4))
        for y, xs in roots.items():
            assert len(xs) == 2  # x and x+1


def switch_roots(F):
    """The roots of w^2 + w = z, keyed by z, one element at a time."""
    E, roots = Elements(F), {}
    for x in range(F.q):
        roots.setdefault(E.add(E.mul(x, x), x), []).append(x)
    return roots


def switch_side(F, roots, s, z):
    """sum of psi(s*x) over the roots x of x^2 + x = z, psi as integers +-1."""
    E = Elements(F)
    return sum(1 - 2 * F.trace[E.mul(s, x)] for x in roots.get(z, ()))


class TestSwitchsumSides:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_sides_match_per_pair_oracle(self, r):
        F = build_field(2, r)
        roots = switch_roots(F)
        sides = _switchsum_sides(F)
        for t in range(F.q):
            lhs, rhs = sides(t)
            t2 = Elements(F).mul(t, t)
            assert lhs.tolist() == [switch_side(F, roots, t, y) for y in range(F.q)]
            assert rhs.tolist() == [switch_side(F, roots, y, t2) for y in range(F.q)]
            assert lhs.tolist() == rhs.tolist()

    # over F_2 (where t^2 = t) and F_4 the two pairings agree on every (t, y),
    # so the control starts at r = 3
    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_roots_of_t_in_place_of_t_squared_disagree(self, r):
        F = build_field(2, r)
        roots = switch_roots(F)
        sides = _switchsum_sides(F)
        checked = equal = 0
        for t in range(F.q):
            lhs, _ = sides(t)
            for y in range(F.q):
                checked += 1
                equal += lhs[y] == switch_side(F, roots, y, t)
        assert equal < checked
