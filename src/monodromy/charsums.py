"""Literal character sums over small finite fields.

This is the numeric oracle layer: fields F_{p^r} are built explicitly
(lexicographically smallest monic irreducible modulus, smallest generator,
full discrete-log tables), characters are evaluated through those tables,
and the exponential / Gauss / Jacobi / Mellin sums are computed by direct
summation so they can be compared against the exact V-function layer and
against the closed-form identities they are supposed to satisfy.

Elements are integer-encoded coefficient vectors in the power basis of the
modulus, the constant coefficient being the least significant base-p digit.
Fields are immutable once built and all sums are pure functions of them.
A field is its tables: it has no element arithmetic.  A product is one
exp/log read, and no sum needs field addition, because Tr is F_p-linear:
psi(s f(x) + t x) is fixed by the traces of the monomials s c_i x^i and
t x, summed mod p.  ``exp_sum`` rejects encodings outside [0, q).

Prime fields are built from residues: the modulus is x, each element is
its own residue and its own trace, the generator is the least primitive
root (integer ``pow`` against one factorization of p - 1), and the exp
table is filled by baby-step/giant-step, entry iB + j being
(g^B)^i g^j mod p for B = ceil(sqrt(p - 1)): about 2 sqrt(p) Python-int
products and one outer product.  When r >= 2 field arithmetic is r x r
matrices over F_p acting on digit rows.  Rabin's test on the companion
matrix X picks the modulus, and a full-order test on element matrices the
generator.  The powers X^0 .. X^(r-1) give every element's matrix and the
basis traces Tr(x^i) = trace(X^i).  The exp table is filled by doubling:
rows [n, 2n) are rows [0, n) times the n-th power of the generator's
matrix, so about log2(q) numpy matmuls build it, and ``trace`` is the
digit rows times the basis traces.  ``log`` is one scatter of exp.  The
tables are read-only numpy arrays, which every sum reads directly.  Two
fields are equal, and hash alike, when their presentations (p, r, q,
modulus, generator) are, since those determine the tables.  Caches are
bounded: ``build_field`` keeps the 32 most recent fields, and each field
caches one derived table, psi(g^k) by k, which the Gauss FFT,
``gauss_sum_raw`` and both Mellin paths re-read; it is freed with the
field.  Every other table is computed by the sum that reads it: a
character value chi_a(g^k) is exp(2 pi i (a k mod m) / m) from its integer
index, and log(1 - g^k) is one gather of the exp and log tables.

The Mellin and switch checks build their tables per call and keep none.
``mellin_suite`` makes one character table R[a, k] = chi_a(g^k), and it
serves the literal S-matrix, the Gauss vector G and the Jacobi table J that
the closed forms are assembled from.  The switch identity is checked a
block of t at a time, as two integer arrays over (t, y) of at most
SWITCH_BLOCK_CELLS cells each (a row, q <= 2^SWITCH_MAX_R, always fits),
so its temporaries are bounded whatever q is; psi(a b) is read from a
parity table, since Tr(a b) is F_2-bilinear.

Sign conventions: ``gauss_sum`` returns -sum_{t != 0} chi(t) psi(t) (so the
trivial character gives exactly 1), while the classical factorizations of
Jacobi sums hold for the unsigned sum, available as ``gauss_sum_raw``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .qz import _as_prime_int

__all__ = [
    "FieldPresentation",
    "MellinRow",
    "build_field",
    "exp_sum",
    "gauss_sum",
    "gauss_sum_raw",
    "gauss_sums_all",
    "jacobi_sum",
    "mellin_suite",
    "mellin_sum",
    "switchsum_exhaustive",
]

FIELD_SIZE_GUARD = 2**20
MELLIN_Q_GUARD = 64
SWITCH_MAX_R = 13  # 4^r (t, y) pairs over F_{2^r}, within the searches' 10^8-cell budget
SWITCH_BLOCK_CELLS = 2**16  # (t, y) cells per array of one switch block


def _companion(poly: list[int], p: int) -> np.ndarray:
    """Multiplication by x modulo the monic ``poly``, acting on digit rows."""
    r = len(poly) - 1
    X = np.eye(r, k=1, dtype=np.int64)
    X[-1] = np.negative(poly[:r]) % p
    return X


def _mat_pow(M: np.ndarray, n: int, p: int) -> np.ndarray:
    """M^n mod p by square-and-multiply; entries stay below p, so int64 sums
    of products stay below r*p^2 <= 20*2^20 when r >= 2 and p^r <= 2^20."""
    out = np.eye(len(M), dtype=np.int64)
    while n:
        if n & 1:
            out = out @ M % p
        M = M @ M % p
        n >>= 1
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Rabin's test on the companion matrix X: X^q = X, and A = X^(p^(r/l)) - X
    a unit for each prime l | r, that is A^(q-1) = I, as a^q = a throughout the
    product of fields F_p[x]/(poly) once X^q = X."""
    r = len(poly) - 1
    if r == 1:
        return True
    if poly[0] == 0 or sum(poly) % p == 0:  # a root at 0 or 1
        return False
    q, X, one = p**r, _companion(poly, p), np.eye(r, dtype=np.int64)
    return np.array_equal(_mat_pow(X, q, p), X) and all(
        np.array_equal(_mat_pow((_mat_pow(X, p ** (r // ell), p) - X) % p, q - 1, p), one)
        for ell in _factor(r))


def _decode_int(m: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(m % p)
        m //= p
    return out


def _factor(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldPresentation:
    """A concrete model of F_{p^r}: its presentation, its exp/log/trace
    tables as read-only arrays, and one table cached from them, psi(g^k)
    by k.

    ``exp[k]`` is generator^k for 0 <= k < q-1 and ``log[t]`` inverts it on
    the units (log[0] is -1 and must not be used).  ``trace[t]`` is the
    absolute trace into F_p.  There is no element arithmetic: the sums read
    the tables directly.
    """

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    exp: np.ndarray = field(compare=False, repr=False)
    log: np.ndarray = field(compare=False, repr=False)
    trace: np.ndarray = field(compare=False, repr=False)

    # cached on the instance, so it is freed with the field
    @cached_property
    def _psi_by_log(self) -> np.ndarray:
        """psi(generator^k) indexed by k."""
        return _psi_roots(self.p)[self.trace[self.exp]]

    def as_json_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "modulus": list(self.modulus),
            "generator": _decode_int(self.generator, self.p, self.r),
        }


@lru_cache(maxsize=32, typed=True)  # typed: a float p or r raises, as on a cold cache
def build_field(p: int, r: int) -> FieldPresentation:
    """Deterministic presentation of F_{p^r} (guarded at p^r <= 2^20).

    The modulus is the monic irreducible of degree r whose non-leading
    coefficient vector, read as a base-p integer (constant term least
    significant), is smallest; the generator is the unit of full order with
    the smallest element encoding.  Prime fields are built from residues
    (the modulus is x); r >= 2 builds the tables from r x r matrices.
    """
    p, r = _as_prime_int(p), operator.index(r)
    if r < 1:
        raise ValueError("degree must be >= 1")
    # p >= 2, so p^r passes the guard once r passes its bit length
    if r >= FIELD_SIZE_GUARD.bit_length() or p**r > FIELD_SIZE_GUARD:
        raise ValueError(f"field size {p}^{r} exceeds guard {FIELD_SIZE_GUARD}")
    q, m = p**r, p**r - 1
    # a unit g generates iff g^(m/l) != 1 for every prime l | m
    cofactors = [m // f for f in _factor(m)]
    modulus, generator, exp, trace = (_residue_tables(p, cofactors) if r == 1
                                      else _matrix_tables(p, r, cofactors))
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(m)
    for table in (exp, log, trace):
        table.flags.writeable = False
    return FieldPresentation(p=p, r=r, q=q, modulus=tuple(modulus), generator=generator,
                             exp=exp, log=log, trace=trace)


def _residue_tables(p: int, cofactors: list[int]):
    """Modulus, generator, exp and trace of F_p, whose modulus x makes each
    element its own residue and its own trace; the generator is the least
    primitive root."""
    generator = next(g for g in range(1, p) if all(pow(g, c, p) != 1 for c in cofactors))
    # exp[i B + j] = (g^B)^i g^j by baby-step/giant-step, B = ceil(sqrt(m)):
    # the B baby steps and ceil(m / B) giant steps are Python ints, and one
    # outer product joins them.  The products reach (p-1)^2, so they are
    # formed in int64; the table is int32, since every entry is below p.
    m = p - 1
    B = math.isqrt(m - 1) + 1
    baby = [1]
    for _ in range(B - 1):
        baby.append(baby[-1] * generator % p)
    step, giant = baby[-1] * generator % p, [1]
    for _ in range((m - 1) // B):
        giant.append(giant[-1] * step % p)
    exp = (np.multiply.outer(np.array(giant, dtype=np.int64), baby) % p).ravel()[:m]
    return [0, 1], generator, exp.astype(np.int32), np.arange(p, dtype=np.int64)


def _matrix_tables(p: int, r: int, cofactors: list[int]):
    """Modulus, generator, exp and trace of F_{p^r} for r >= 2, from r x r
    matrices over F_p acting on digit rows."""
    q, m = p**r, p**r - 1
    modulus = next(c for c in (_decode_int(k, p, r) + [1] for k in range(q))
                   if _is_irreducible(c, p))

    # X^0 .. X^(r-1) for the companion matrix X: the matrix of an element is
    # its digits dotted with them, and Tr(x^i) is the matrix trace of X^i.
    X = _companion(modulus, p)
    powers = np.array([_mat_pow(X, i, p) for i in range(r)])

    def matrix(t: int) -> np.ndarray:
        return (np.dot(_decode_int(t, p, r), powers.reshape(r, -1)) % p).reshape(r, r)

    # The encodings below p are the constants, whose order divides
    # p - 1 < m, so the search for a unit of order m starts at p.
    generator = next(g for g in range(p, q) if not any(
        np.array_equal(_mat_pow(matrix(g), c, p), powers[0]) for c in cofactors))

    # Row i of ``step`` holds the digits of x^i * generator, so row k of
    # ``digits`` (generator^k) times step^n is row k + n.  Matmul entries
    # stay below r*(p-1)^2 <= 2*1020^2 when r >= 2 and p^r <= 2^20, so
    # int32 holds them.
    step = matrix(generator).astype(np.int32)
    digits = np.zeros((m, r), dtype=np.int32)
    digits[0, 0] = 1
    n = 1
    while n < m:
        k = min(n, m - n)
        np.matmul(digits[:k], step, out=digits[n:n + k])
        digits[n:n + k] %= p
        step = step @ step % p
        n += k
    exp = digits @ p ** np.arange(r, dtype=np.int32)

    # The absolute trace is F_p-linear, so Tr(t) for arbitrary t is a digit
    # dot-product against the basis traces Tr(x^i).
    trace = np.zeros(q, dtype=np.int64)
    trace[exp] = digits @ (np.trace(powers, axis1=1, axis2=2) % p).astype(np.int32) % p
    return modulus, generator, exp, trace


# ---------------------------------------------------------------------------
# characters and sums

def _psi_roots(p: int) -> np.ndarray:
    """psi at trace k, indexed by k < p; exactly +-1 in characteristic 2."""
    if p == 2:
        return np.array([1.0 + 0j, -1.0 + 0j])
    return np.exp(2j * np.pi * np.arange(p) / p)


def _chars(m: int, a, k) -> np.ndarray:
    """chi_a(g^k) = exp(2 pi i (a k mod m) / m) for m = q - 1, broadcast over
    integer a and k.  Each value is a function of the reduced index alone,
    so every table that holds it holds the same float."""
    return np.exp(2j * np.pi * ((a % m) * k % m) / m)


def _log_one_minus(F: FieldPresentation) -> np.ndarray:
    """log(1 - generator^k) indexed by k; -1 at k = log(1) = 0.

    -g^k is g^(k + log(-1)), and adding 1 changes only the constant base-p
    digit.
    """
    t = np.roll(F.exp, -int(F.log[F.p - 1]))
    return F.log[t - t % F.p + (t + 1) % F.p]


def gauss_sum(F: FieldPresentation, a: int) -> complex:
    """-sum over units of chi_a(t) psi(t); the trivial character gives 1.

    The t=0 term is taken as 0 (the character is extended by zero), which
    makes the trivial-character value -(-1) = 1.
    """
    return -gauss_sum_raw(F, a)


def gauss_sum_raw(F: FieldPresentation, a: int) -> complex:
    """sum over units of chi_a(t) psi(t) (the sign under which the classical
    Gauss/Jacobi factorizations hold verbatim)."""
    return complex(np.dot(_chars(F.q - 1, operator.index(a), np.arange(F.q - 1)), F._psi_by_log))


def gauss_sums_all(F: FieldPresentation) -> np.ndarray:
    """gauss_sum for every character index at once.

    G_raw(a) = sum_k exp(2*pi*i*a*k/(q-1)) psi(g^k) is the inverse DFT of
    psi indexed by discrete log (scaled by q-1): the identical finite sum,
    just batched.
    """
    m = F.q - 1
    return -(m * np.fft.ifft(F._psi_by_log))


def jacobi_sum(F: FieldPresentation, a1: int, a2: int) -> complex:
    """J(chi_1, chi_2) = sum over x != 0, 1 of chi_1(x) chi_2(1-x).

    Characters are extended by zero at 0; for both characters trivial the
    value is q - 2.
    """
    m, a1, a2 = F.q - 1, operator.index(a1), operator.index(a2)
    chi2 = _chars(m, a2, _log_one_minus(F))
    chi2[0] = 0  # 1 - g^0 = 0
    return complex(np.dot(_chars(m, a1, np.arange(m)), chi2))


def exp_sum(F: FieldPresentation, f_coeffs, s: int, t: int) -> complex:
    """sum over x in F of psi(s*f(x) + t*x); coefficients are low-to-high
    field-element encodings, and they, s and t must lie in [0, q).

    The trace of each monomial a*c*x^i (s*c_i*x^i, and t*x) is one read of
    g^(log a + log c + i log x), 0 at x = 0 unless i = 0 (0^0 = 1); their
    sum mod p, over every x at once, indexes the p roots of unity.
    """
    s, t, *coeffs = map(operator.index, (s, t, *f_coeffs))
    if not all(0 <= v < F.q for v in (s, t, *coeffs)):
        raise ValueError(f"field element encodings must lie in [0, {F.q})")
    m = F.q - 1
    trace = np.zeros(F.q, dtype=np.int64)
    for a, c, i in [(s, c, i) for i, c in enumerate(coeffs)] + [(t, 1, 1)]:
        if a and c:
            monomial = F.trace[F.exp[(F.log[a] + F.log[c] + i * F.log) % m]]
            monomial[0] *= i == 0
            trace += monomial
    return complex(_psi_roots(F.p)[trace % F.p].sum())


def belyi_values(F: FieldPresentation, d: int, e: int) -> np.ndarray:
    """f(x) = x^d (x-1)^e evaluated on all of F (element encodings), for
    d, e >= 0: g^(d log x + e log(x-1)), and 0 where a zero base has a
    positive exponent.  x - 1 differs from x only in the constant base-p
    digit, and log 0 = -1 drops out of a zero exponent.  The exponents are
    reduced mod q - 1 first, so the int64 products cannot overflow."""
    d, e = operator.index(d), operator.index(e)
    if d < 0 or e < 0:
        raise ValueError("exponents must be >= 0")
    m = F.q - 1
    x = np.arange(F.q)
    out = F.exp[(d % m * F.log + e % m * F.log[x - x % F.p + (x - 1) % F.p]) % m]
    out[0] *= d == 0
    out[1] *= e == 0
    return out


def _char_table(F: FieldPresentation, chars) -> np.ndarray:
    """chi_a(g^k) as [i, k] for a = chars[i]; guarded to q <= MELLIN_Q_GUARD,
    since the Mellin tables built from it are O(q^2) and their products
    O(q^3)."""
    if F.q > MELLIN_Q_GUARD:
        raise ValueError(f"q={F.q} exceeds the Mellin guard {MELLIN_Q_GUARD}")
    return _chars(F.q - 1, np.asarray(chars)[:, None], np.arange(F.q - 1))


def _linear_sums(F: FieldPresentation, R: np.ndarray) -> np.ndarray:
    """T[i, v] = sum over units s of chi(s) psi(s*v), for every v in F and
    the characters whose values chi(g^k) are the rows of R: R times the
    matrix of psi(g^k * v) = psi(g^(k + log v)), filled by one gather."""
    m = F.q - 1
    psi_prod = np.empty((m, F.q), dtype=complex)  # psi(g^k * v) as [k, v]
    psi_prod[:, 0] = 1
    psi_prod[:, 1:] = F._psi_by_log[(np.arange(m)[:, None] + F.log[1:]) % m]
    return R @ psi_prod


def mellin_sum(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """S(chi, eta) = sum over units s,t of chi(s) eta(t) sum_x psi(s f(x) + t x)
    with f(x) = x^d (x-1)^e.

    Evaluated by regrouping the triple sum per x (exact rearrangement of
    finitely many terms); guarded to q <= MELLIN_Q_GUARD.
    """
    d, e = pair
    chars = [operator.index(a_chi), operator.index(a_eta)]
    T_chi, T_eta = _linear_sums(F, _char_table(F, chars))
    fvals = belyi_values(F, d, e)
    return complex(np.sum(T_chi[fvals] * T_eta))


def _closed_forms(F: FieldPresentation, pair, R: np.ndarray) -> np.ndarray:
    """The predicted S[a_chi, a_eta] for every character pair, from the full
    character table R[a, k] = chi_a(g^k).

    G = R @ psi(g^k) holds every unsigned Gauss sum, and J = R @ C.T every
    Jacobi sum, with C[a2, k] = chi_a2(1 - g^k) (0 at k = 0, where 1 - x = 0).
    Cases: trivial/trivial gives q(q-2); chi trivial gives q*G(eta);
    eta trivial gives -G(chi) chibar(-1)^e J(chibar^d, chibar^e); both
    nontrivial give G(chi) G(eta) chibar(-1)^e J(chibar^d etabar, chibar^e).
    """
    d, e = pair
    q, m = F.q, F.q - 1
    G = R @ F._psi_by_log
    C = R[:, _log_one_minus(F)]
    C[:, 0] = 0
    J = R @ C.T  # J(chi_a1, chi_a2) as [a1, a2]
    a = np.arange(m)[:, None]
    b = np.arange(m)
    chibar_neg1_e = R[:, [-e * int(F.log[F.p - 1]) % m]]  # chi_a(g^(-e log(-1)))
    G_eta = np.where(b == 0, -1, G)  # eta trivial: -G(chi) in place of G(chi) G(eta)
    out = G[:, None] * G_eta * chibar_neg1_e * J[(-d * a - b) % m, (-e * a) % m]
    out[0] = q * G
    out[0, 0] = q * (q - 2)
    return out


# the closed-form cases: both characters trivial, chi trivial, eta trivial,
# neither
_CASES = ("trivial-trivial", "trivial-eta", "chi-trivial-eta", "nontrivial")


class MellinRow(NamedTuple):
    """One character pair of ``mellin_suite``: which closed-form case it
    falls in, S(chi_a_chi, chi_a_eta) by summation and by the closed form,
    |computed - expected|, and that over max(|expected|, 1)."""

    a_chi: int
    a_eta: int
    case: str
    computed: complex
    expected: complex
    abs_error: float
    rel_error: float


def mellin_suite(F: FieldPresentation, pair) -> list[MellinRow]:
    """S(chi, eta) for every character pair, against the closed forms.

    The closed forms hold for d, e >= 1, so an exponent below 1 raises
    ValueError before any table is built (``mellin_sum`` and
    ``belyi_values`` take d, e >= 0).  One character table
    R[a, k] = chi_a(g^k), built per call, serves both sides: the full
    S-matrix, by the same per-x regrouping as ``mellin_sum`` batched over
    all characters, and the Gauss vector G and Jacobi table J that the
    closed forms are assembled from.  The errors are taken as arrays too,
    and each row is read off the raveled tables.
    """
    d, e = pair = tuple(map(operator.index, pair))
    if d < 1 or e < 1:
        raise ValueError("exponents must be >= 1")
    m = F.q - 1
    R = _char_table(F, range(m))
    A = _linear_sums(F, R)  # T_a(v) as [a, v]
    S = A[:, belyi_values(F, d, e)] @ A.T  # S[a_chi, a_eta]
    expected = _closed_forms(F, pair, R)
    # np.hypot rounds as Python's abs(complex) does; np.abs need not
    diff = S - expected
    abs_error = np.hypot(diff.real, diff.imag)
    rel_error = abs_error / np.maximum(np.hypot(expected.real, expected.imag), 1.0)
    tt, te, ct, nt = _CASES
    a_chi = [*chain.from_iterable(repeat(a, m) for a in range(m))]
    cases = [tt] + [te] * (m - 1) + ([ct] + [nt] * (m - 1)) * (m - 1)
    return list(map(partial(tuple.__new__, MellinRow), zip(
        a_chi, list(range(m)) * m, cases,
        *(v.ravel().tolist() for v in (S, expected, abs_error, rel_error)))))


# ---------------------------------------------------------------------------
# switchsum (p = 2): sum over roots of x^2+x=y of psi(tx) switches with
# the sum over roots of u^2+u=t^2 of psi(uy); both sides exact integers.

def _switchsum_sides(F: FieldPresentation):
    """Both sides of the identity as integer arrays over (t, y), yielded
    as (lhs, rhs) for consecutive blocks of t from t = 0, each of
    SWITCH_BLOCK_CELLS // q rows (at least one): lhs[t, y] = sum of
    psi(t x) over x^2 + x = y, rhs[t, y] = sum of psi(u y) over
    u^2 + u = t^2.

    w -> w^2 + w is F_2-linear with kernel {0, 1}, so each z has no root or
    two, adjacent in a stable argsort of w^2 + w; ``has`` marks the z with
    two.  Tr(a b) is F_2-bilinear: it is the parity of a & tm[b], bit i of
    tm[b] being Tr(x^i b) for the basis element x^i (encoded 2^i), so
    psi(a b) is one read of a length-q table of (-1)^parity.  Temporaries
    are O(SWITCH_BLOCK_CELLS) whatever q is."""
    q, m = F.q, F.q - 1
    exp, log = F.exp, F.log
    unit = log >= 0
    w = np.arange(q)
    square = np.where(unit, exp[2 * log % m], 0)
    z_of_w = square ^ w  # w^2 + w
    order = np.argsort(z_of_w, kind="stable")
    counts = np.bincount(z_of_w, minlength=q)
    first = np.minimum(np.cumsum(counts) - counts, q - 2)  # a rootless z may start at q
    has = counts > 0
    tm = np.zeros(q, dtype=np.int64)
    for i in range(F.r):
        tm |= np.where(unit, F.trace[exp[(log[1 << i] + log) % m]], 0) << i
    tm0, tm1 = tm[order[first]], tm[order[first + 1]]  # of z's two roots
    psi = np.ones(1, dtype=np.int8)  # (-1)^parity(n), by n
    while len(psi) < q:
        psi = np.concatenate((psi, -psi))

    rows = max(1, SWITCH_BLOCK_CELLS // q)
    for start in range(0, q, rows):
        t = w[start:start + rows, None]
        t2 = square[start:start + rows, None]
        lhs = (psi[t & tm0] + psi[t & tm1]) * has
        rhs = (psi[tm0[t2] & w] + psi[tm1[t2] & w]) * has[t2]
        yield lhs, rhs


def switchsum_exhaustive(r: int) -> tuple[int, int]:
    """Check the identity on all (t, y) pairs over F_{2^r}; returns
    (pairs checked, pairs equal).  r is at most SWITCH_MAX_R."""
    if r > SWITCH_MAX_R:
        raise ValueError(f"switchsum depth r = {r} exceeds {SWITCH_MAX_R} (4^r pairs)")
    F = build_field(2, r)
    checked = equal = 0
    for lhs, rhs in _switchsum_sides(F):
        checked += lhs.size
        equal += int(np.count_nonzero(lhs == rhs))
    return checked, equal
