"""Tests for the exact (Q/Z) layer and the V-function."""

import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodromy import qz
from monodromy.qz import QzClass, _as_class, digit_sum, is_prime, kubert_v, mult_order


def v_reference(p: int, num: int, den: int, blocks: int = 1) -> Fraction:
    """Independent V evaluation on a non-minimal representative.

    Uses r' = blocks * ord(p mod den) directly from the definition; the
    production path always uses the minimal r.
    """
    r = mult_order(p, den) * blocks
    a = (num % den) * (p**r - 1) // den
    return Fraction(digit_sum(a, p), r * (p - 1))


class TestPrime:
    @pytest.mark.parametrize("n", [0, 1, 4, 9, 100])
    def test_invalid(self, n):
        with pytest.raises(ValueError, match="not prime"):
            kubert_v(n, "1/3")

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_matches_sieve(self):
        # past 41^2 the Miller-Rabin path decides; compare both paths to a sieve
        n = 20_000
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for q in range(2, math.isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytearray(len(range(q * q, n, q)))
        assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong probable primes to the bases 2..7 and 2..23 respectively
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1) and is_prime(10**15 + 37)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_past_primality_bound_rejected(self):
        with pytest.raises(ValueError, match="primality bound"):
            kubert_v(2**89 - 1, "1/3")


class TestQzClass:
    def test_normalization(self):
        assert QzClass(9, 15) == QzClass(3, 5)
        assert QzClass(-1, 7) == QzClass(6, 7)
        assert QzClass(8, 7) == QzClass(1, 7)
        assert QzClass(5, -15) == QzClass(2, 3)
        assert QzClass(14, 7) == QzClass(0, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            QzClass(1, 0)

    def test_parse(self):
        assert QzClass.parse("3/31") == QzClass(3, 31)
        assert QzClass.parse("-1/7") == QzClass(6, 7)
        assert QzClass.parse("0") == QzClass(0, 1)
        assert QzClass.parse("2") == QzClass(0, 1)

    def test_negate(self):
        assert -QzClass(1, 7) == QzClass(6, 7)
        assert -QzClass(0, 1) == QzClass(0, 1)
        assert -QzClass(3, 31) == QzClass(28, 31)

    def test_scale(self):
        assert QzClass(1, 7).scale(8) == QzClass(1, 7)
        assert QzClass(1, 7).scale(-3) == QzClass(4, 7)
        assert QzClass(3, 31).scale(0) == QzClass(0, 1)

    def test_arithmetic(self):
        x = QzClass(1, 7)
        assert x + x == QzClass(2, 7)
        assert x - QzClass(3, 7) == QzClass(5, 7)
        assert -x == QzClass(6, 7)

    def test_immutable_and_hashable(self):
        x = QzClass(1, 7)
        with pytest.raises(AttributeError):
            x.num = 2
        assert len({QzClass(1, 7), QzClass(8, 7), QzClass(2, 7)}) == 2

    def test_str(self):
        assert str(QzClass(3, 31)) == "3/31"

    def test_other_operands_are_not_classes(self):
        # an int or a string is not read as a class: + and - refuse it, == is false
        x = QzClass(1, 7)
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x - 1
        assert x != "1/7" and not x == "1/7"

    def test_repr_round_trips(self):
        x = QzClass(-3, 31)
        assert repr(x) == "QzClass(28, 31)" and eval(repr(x)) == x


class TestMultOrder:
    @pytest.mark.parametrize("p,den,expected", [(2, 7, 3), (2, 1, 1), (3, 8, 2)])
    def test_examples(self, p, den, expected):
        assert mult_order(p, den) == expected

    def test_rejects_p_dividing_den(self):
        with pytest.raises(ValueError):
            mult_order(2, 6)

    @pytest.fixture
    def cap_3(self, monkeypatch):
        # the cap is read at call time; the cache must not serve an uncapped order
        mult_order.cache_clear()
        monkeypatch.setattr(qz, "MULT_ORDER_CAP", 3)
        yield
        mult_order.cache_clear()

    def test_cap(self, cap_3):
        with pytest.raises(ArithmeticError):
            mult_order(2, 11)  # true order is 10

    def test_cap_is_also_a_value_error(self, cap_3):
        # the CLI's error boundary turns ValueError into exit 2
        with pytest.raises(ValueError, match="exceeds cap 3"):
            mult_order(2, 13)

    def test_agrees_with_search(self):
        for p in (2, 3, 5, 7):
            for den in range(1, 60):
                if math.gcd(p, den) != 1:
                    continue
                r = 1
                while pow(p, r, den) != 1 % den:
                    r += 1
                assert mult_order(p, den) == r


class TestDigitSum:
    @pytest.mark.parametrize("n,base,expected", [(0, 2, 0), (5, 2, 2), (255, 16, 30), (80, 3, 8)])
    def test_examples(self, n, base, expected):
        assert digit_sum(n, base) == expected

    def test_bad_bases_are_refused_before_the_loop(self):
        # in a subprocess, so that a base that never ends the loop fails the
        # test instead of hanging it
        script = (
            "from monodromy.qz import digit_sum\n"
            "for n, base in [(5, 1), (5, 1.0), (5, 0), (5, -2), (5.0, 2)]:\n"
            "    try:\n"
            "        digit_sum(n, base)\n"
            "    except (TypeError, ValueError) as exc:\n"
            "        print(type(exc).__name__)\n"
            "    else:\n"
            "        print('served')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=30, check=True)
        assert res.stdout.split() == ["ValueError", "TypeError", "ValueError", "ValueError",
                                      "TypeError"]


class TestKubertV:
    @pytest.mark.parametrize(
        "p,x,expected",
        [
            (2, "0", Fraction(0)),
            (2, "1/7", Fraction(1, 3)),
            (7, "1/3", Fraction(1, 3)),
            (2, "4/7", Fraction(1, 3)),
            (2, "1/3", Fraction(1, 2)),
            (3, "1/2", Fraction(1, 2)),
            (5, "1/4", Fraction(1, 4)),
        ],
    )
    def test_examples(self, p, x, expected):
        assert kubert_v(p, x) == expected

    @pytest.mark.parametrize("x", [0, 5, "0", "3/3", "-7/7", Fraction(2), QzClass(0, 5)])
    @pytest.mark.parametrize("p", [2, 3, 5, 9001])
    def test_zero_class(self, p, x):
        # each spelling of 0 in Q/Z, through every branch of _as_class
        zero = _as_class(x)
        assert (zero.num, zero.den) == (0, 1)
        assert kubert_v(p, x) == 0

    def test_rejects_p_in_denominator(self):
        with pytest.raises(ValueError):
            kubert_v(2, QzClass(1, 6))

    def test_accepts_fraction_and_string(self):
        assert kubert_v(2, Fraction(1, 7)) == Fraction(1, 3)
        assert kubert_v(2, "8/7") == Fraction(1, 3)

    @given(
        p=st.sampled_from([2, 3, 5, 7, 11]),
        num=st.integers(min_value=1, max_value=10**6),
        den=st.integers(min_value=2, max_value=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_complement_identity(self, p, num, den):
        if den % p == 0:
            den += 1
            if den % p == 0 or den < 2:
                return
        x = QzClass(num, den)
        if x.is_zero():
            assert kubert_v(p, x) == 0
        else:
            assert kubert_v(p, x) + kubert_v(p, -x) == 1

    @given(
        p=st.sampled_from([2, 3, 5]),
        num=st.integers(min_value=0, max_value=10**4),
        den=st.integers(min_value=2, max_value=200),
        k=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_galois_invariance(self, p, num, den, k):
        if den % p == 0:
            return
        x = QzClass(num, den)
        assert kubert_v(p, x.scale(p**k)) == kubert_v(p, x)

    @given(
        p=st.sampled_from([2, 3, 5]),
        num=st.integers(min_value=1, max_value=500),
        den=st.integers(min_value=2, max_value=100),
        blocks=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_representation_independence(self, p, num, den, blocks):
        if den % p == 0:
            return
        x = QzClass(num, den)
        assert kubert_v(p, x) == v_reference(p, x.num, x.den, blocks)

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        num=st.integers(min_value=0, max_value=10**5),
        den=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_and_denominator(self, p, num, den):
        if den % p == 0:
            return
        x = QzClass(num, den)
        v = kubert_v(p, x)
        assert 0 <= v < 1
        r = mult_order(p, x.den)
        assert (Fraction(r * (p - 1)) * v).denominator == 1


def closed_form_1(p, a, b, c):
    return Fraction(a, 2 * c) - Fraction(b, 2 * c) + Fraction(1, c * (p - 1))


def closed_form_2(p, a, b, c):
    return Fraction(a, 2 * c) + Fraction(b, 2 * c) - Fraction(1, c * (p - 1))


def _vf_cells(max_c):
    for p in (2, 3, 5):
        for b in (1, 2):
            for a in (3 * b, 5 * b):
                for c in range(b, max_c + 1):
                    yield p, a, b, c


class TestVFunctionClosedForms:
    """The two digit-block closed forms.

    Their derivation computes the digit sum of the representative
    N = (p^a+1)/(p^b+1) (part 1) resp. p^a-1-N (part 2) over denominator
    p^c-1, so each holds exactly when that representative is < p^c-1; the
    formula value can even leave [0,1) outside that range.
    """

    def test_part1_on_validity_domain(self):
        hit = 0
        for p, a, b, c in _vf_cells(12):
            n = (p**a + 1) // (p**b + 1)
            if n < p**c - 1:
                x = QzClass(p**a + 1, (p**b + 1) * (p**c - 1))
                assert kubert_v(p, x) == closed_form_1(p, a, b, c), (p, a, b, c)
                hit += 1
        assert hit > 60

    def test_part2_on_validity_domain(self):
        hit = 0
        for p, a, b, c in _vf_cells(12):
            m = (p ** (a + b) - p**b - 2) // (p**b + 1)
            if m < p**c - 1:
                x = QzClass(p ** (a + b) - p**b - 2, (p**b + 1) * (p**c - 1))
                assert kubert_v(p, x) == closed_form_2(p, a, b, c), (p, a, b, c)
                hit += 1
        assert hit > 40

    def test_formulas_fail_below_validity_domain(self):
        # c >= b alone is not enough: at (p,a,b,c)=(2,3,1,2) the class is
        # 9/9 = 0 with V = 0 while the formula gives 1
        x = QzClass(2**3 + 1, (2 + 1) * (2**2 - 1))
        assert x.is_zero()
        assert kubert_v(2, x) == 0
        assert closed_form_1(2, 3, 1, 2) == 1


def test_every_lru_cache_is_bounded():
    """Every lru_cache in every module of the package, on functions or on classes."""
    package = import_module("monodromy")
    mods = [package] + [import_module(f"monodromy.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]
    owners = mods + [v for mod in mods for v in vars(mod).values() if isinstance(v, type)]
    caches = {
        f"{owner.__name__}.{name}": fn
        for owner in owners
        for name, fn in vars(owner).items()
        if callable(getattr(fn, "cache_info", None))
    }
    assert {"monodromy.qz.mult_order", "monodromy.fm_exponents.classify_fm_exponent",
            "monodromy.fm_exponents.fm_exponent_set", "monodromy.criteria._level_tables",
            "monodromy.criteria._belyi_join", "monodromy.criteria.default_max_r",
            "monodromy.charsums.build_field", "monodromy.catalog._index"} <= caches.keys()
    assert [name for name, fn in caches.items() if fn.cache_info().maxsize is None] == []


# cached entry points: (module, function, int arguments, the same with one float)
FLOAT_CALLS = [
    ("qz", "mult_order", (2, 7), (2.0, 7)),
    ("qz", "mult_order", (2, 7), (2, 7.0)),
    ("fm_exponents", "fm_exponent_set", (2, 10), (2.0, 10)),
    ("fm_exponents", "fm_exponent_set", (2, 10), (2, 10.5)),
    ("fm_exponents", "classify_fm_exponent", (2, 3), (2.0, 3)),
    ("charsums", "build_field", (2, 2), (2, 2.0)),
    ("charsums", "build_field", (2, 2), (2.0, 2)),
    ("charsums", "switchsum_exhaustive", (2,), (2.0,)),
    ("criteria", "default_max_r", (2,), (2.0,)),
]


def test_cached_functions_refuse_floats_in_a_fresh_process():
    script = (
        "from importlib import import_module\n"
        f"for module, name, _, args in {FLOAT_CALLS!r}:\n"
        "    try:\n"
        "        getattr(import_module('monodromy.' + module), name)(*args)\n"
        "    except TypeError:\n"
        "        print('refused')\n"
        "    else:\n"
        "        print('served')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert res.stdout.split() == ["refused"] * len(FLOAT_CALLS)


@pytest.mark.parametrize("module,name,ints,floats", FLOAT_CALLS,
                         ids=[f"{name}{floats}" for _, name, _, floats in FLOAT_CALLS])
def test_cached_functions_refuse_floats_after_an_int_call(module, name, ints, floats):
    # the int call fills the cache; a float must not be served from its entry
    fn = getattr(import_module(f"monodromy.{module}"), name)
    fn(*ints)
    with pytest.raises(TypeError):
        fn(*floats)


def test_every_all_resolves_without_duplicates():
    """Each public __all__ names what its module binds, each name once, and
    the package's star import binds exactly its __all__."""
    package = import_module("monodromy")
    mods = [package] + [import_module(f"monodromy.{m}")
                        for m in ("qz", "fm_exponents", "criteria", "catalog", "charsums")]
    for mod in mods:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__
    namespace = {}
    exec("from monodromy import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)
