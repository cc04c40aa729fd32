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

Field arithmetic is r x r matrices over F_p acting on digit rows.  Rabin's
test on the companion matrix X picks the modulus, and a full-order test on
element matrices the generator (integer ``pow`` in prime fields).  The
powers X^0 .. X^(r-1) give every element's matrix and the basis traces
Tr(x^i) = trace(X^i).  The exp table is filled by doubling: rows [n, 2n)
are rows [0, n) times the n-th power of the generator's matrix, so about
log2(q) numpy matmuls build it.  ``log`` is one scatter of it, and
``trace`` the digit rows times the basis traces.  The tables are
read-only numpy arrays, which every sum reads directly.  Two fields are
equal, and hash alike, when their presentations (p, r, q, modulus,
generator) are, since those determine the tables.  Caches are bounded:
``build_field`` keeps the 32 most recent fields, and the O(q) tables
derived from a field (character values, psi by discrete log, log(1 - g^k))
are cached on the field itself, so they are freed with it.

The Mellin and switch checks build their tables per call and keep none.
``mellin_suite`` makes one character table R[a, k] = chi_a(g^k), and it
serves the literal S-matrix, the Gauss vector G and the Jacobi table J that
the closed forms are assembled from.  The switch
identity is checked one t at a time, as two integer vectors over every y.

Sign conventions: ``gauss_sum`` returns -sum_{t != 0} chi(t) psi(t) (so the
trivial character gives exactly 1), while the classical factorizations of
Jacobi sums hold for the unsigned sum, available as ``gauss_sum_raw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import starmap
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
    "mellin_closed_form",
    "mellin_suite",
    "mellin_sum",
    "switchsum_check",
    "switchsum_exhaustive",
]

FIELD_SIZE_GUARD = 2**20
MELLIN_Q_GUARD = 64
SWITCH_MAX_R = 13  # 4^r (t, y) pairs over F_{2^r}, within the searches' 10^8-cell budget


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
    """A concrete model of F_{p^r} with exp/log tables, as read-only arrays.

    ``exp[k]`` is generator^k for 0 <= k < q-1 and ``log[t]`` inverts it on
    the units (log[0] is -1 and must not be used).  ``trace[t]`` is the
    absolute trace into F_p.
    """

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    exp: np.ndarray = field(compare=False, repr=False)
    log: np.ndarray = field(compare=False, repr=False)
    trace: np.ndarray = field(compare=False, repr=False)

    # -- element arithmetic ------------------------------------------------
    def coeffs(self, t: int) -> tuple[int, ...]:
        return tuple(_decode_int(t, self.p, self.r))

    def encode(self, coeffs) -> int:
        t = 0
        for c in reversed(list(coeffs)):
            t = t * self.p + (c % self.p)
        return t

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.encode(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.encode(-c for c in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % (self.q - 1)])

    def power(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return int(self.exp[int(self.log[a]) * n % (self.q - 1)])

    @property
    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- characters ----------------------------------------------------------
    # Derived tables are cached on the instance, so they are freed with the
    # field.
    def psi(self, t: int) -> complex:
        return self._psi_table[t]

    @cached_property
    def _psi_table(self) -> np.ndarray:
        if self.p == 2:  # exactly +-1 in characteristic 2
            roots = np.array([1.0 + 0j, -1.0 + 0j])
        else:
            roots = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        return roots[self.trace]

    @cached_property
    def _unit_roots(self) -> np.ndarray:
        m = self.q - 1
        return np.exp(2j * np.pi * np.arange(m) / m)

    @cached_property
    def _psi_by_log(self) -> np.ndarray:
        """psi(generator^k) indexed by k."""
        return self._psi_table[self.exp]

    @cached_property
    def _log_one_minus(self) -> np.ndarray:
        """log(1 - generator^k) indexed by k; -1 at k = log(1) = 0.

        -g^k is g^(k + (q-1)/2) for odd p and g^k for p = 2, and adding 1
        changes only the constant base-p digit.
        """
        p = self.p
        t = np.roll(self.exp, -((self.q - 1) // 2 if p > 2 else 0))
        return self.log[t - t % p + (t + 1) % p]

    def as_json_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "modulus": list(self.modulus),
            "generator": list(self.coeffs(self.generator)),
        }


@lru_cache(maxsize=32)
def build_field(p: int, r: int) -> FieldPresentation:
    """Deterministic presentation of F_{p^r} (guarded at p^r <= 2^20).

    The modulus is the monic irreducible of degree r whose non-leading
    coefficient vector, read as a base-p integer (constant term least
    significant), is smallest; the generator is the unit of full order with
    the smallest element encoding.
    """
    p = _as_prime_int(p)
    if r < 1:
        raise ValueError("degree must be >= 1")
    # p >= 2, so p^r passes the guard once r passes its bit length
    if r >= FIELD_SIZE_GUARD.bit_length() or p**r > FIELD_SIZE_GUARD:
        raise ValueError(f"field size {p}^{r} exceeds guard {FIELD_SIZE_GUARD}")
    q, m = p**r, p**r - 1
    modulus = next(c for c in (_decode_int(k, p, r) + [1] for k in range(q))
                   if _is_irreducible(c, p))

    # X^0 .. X^(r-1) for the companion matrix X: the matrix of an element is
    # its digits dotted with them, and Tr(x^i) is the matrix trace of X^i.
    X = _companion(modulus, p)
    powers = np.array([_mat_pow(X, i, p) for i in range(r)])

    def matrix(t: int) -> np.ndarray:
        return (np.dot(_decode_int(t, p, r), powers.reshape(r, -1)) % p).reshape(r, r)

    def is_one(g: int, n: int) -> bool:
        """Whether g^n = 1; by integer pow when r = 1, where the modulus is x
        and elements are residues mod p."""
        return (pow(g, n, p) == 1 if r == 1
                else np.array_equal(_mat_pow(matrix(g), n, p), powers[0]))

    # When r >= 2 the encodings below p are the constants, whose order
    # divides p - 1 < m, so the search for a unit of order m starts at p.
    generator = next(g for g in range(1 if r == 1 else p, q)
                     if not any(is_one(g, m // f) for f in _factor(m)))

    # Row i of ``step`` holds the digits of x^i * generator, so row k of
    # ``digits`` (generator^k) times step^n is row k + n.  Matmul entries
    # stay below r*(p-1)^2: int64 suffices for every q <= FIELD_SIZE_GUARD,
    # and int32 (always when r >= 2) halves the m x r digit matrix.
    dtype = np.int32 if r * (p - 1) ** 2 < 2**31 else np.int64
    step = matrix(generator).astype(dtype)
    digits = np.zeros((m, r), dtype=dtype)
    digits[0, 0] = 1
    n = 1
    while n < m:
        k = min(n, m - n)
        np.matmul(digits[:k], step, out=digits[n:n + k])
        digits[n:n + k] %= p
        step = step @ step % p
        n += k
    exp = digits @ p ** np.arange(r, dtype=dtype)
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(m)

    # The absolute trace is F_p-linear, so Tr(t) for arbitrary t is a digit
    # dot-product against the basis traces Tr(x^i).
    trace = np.zeros(q, dtype=np.int64)
    trace[exp] = digits @ (np.trace(powers, axis1=1, axis2=2) % p).astype(dtype) % p
    for table in (exp, log, trace):
        table.flags.writeable = False

    return FieldPresentation(p=p, r=r, q=q, modulus=tuple(modulus), generator=generator,
                             exp=exp, log=log, trace=trace)


# ---------------------------------------------------------------------------
# characters and sums

def _chi_vector(F: FieldPresentation, a: int) -> np.ndarray:
    """chi_a(generator^k) for k = 0..q-2."""
    m = F.q - 1
    return F._unit_roots[(a % m) * np.arange(m) % m]


def gauss_sum(F: FieldPresentation, a: int) -> complex:
    """-sum over units of chi_a(t) psi(t); the trivial character gives 1.

    The t=0 term is taken as 0 (the character is extended by zero), which
    makes the trivial-character value -(-1) = 1.
    """
    return -gauss_sum_raw(F, a)


def gauss_sum_raw(F: FieldPresentation, a: int) -> complex:
    """sum over units of chi_a(t) psi(t) (the sign under which the classical
    Gauss/Jacobi factorizations hold verbatim)."""
    return complex(np.dot(_chi_vector(F, a), F._psi_by_log))


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
    m = F.q - 1
    chi1 = _chi_vector(F, a1)
    logs2 = F._log_one_minus
    valid = logs2 >= 0
    chi2 = np.zeros(m, dtype=complex)
    chi2[valid] = F._unit_roots[(a2 % m) * logs2[valid] % m]
    return complex(np.dot(chi1, chi2))


def exp_sum(F: FieldPresentation, f_coeffs, s: int, t: int) -> complex:
    """sum over x in F of psi(s*f(x) + t*x); coefficients are low-to-high
    field-element encodings."""
    coeffs = list(f_coeffs)
    total = 0j
    for x in F.elements:
        v = 0
        for c in reversed(coeffs):
            v = F.add(F.mul(v, x), c)
        total += F.psi(F.add(F.mul(s, v), F.mul(t, x)))
    return total


def belyi_values(F: FieldPresentation, d: int, e: int) -> np.ndarray:
    """f(x) = x^d (x-1)^e evaluated on all of F (element encodings), for
    d, e >= 0: g^(d log x + e log(x-1)), and 0 where a zero base has a
    positive exponent.  x - 1 differs from x only in the constant base-p
    digit, and log 0 = -1 drops out of a zero exponent.  The exponents are
    reduced mod q - 1 first, so the int64 products cannot overflow."""
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
    m = F.q - 1
    return F._unit_roots[np.outer(np.asarray(chars) % m, np.arange(m)) % m]


def _linear_sums(F: FieldPresentation, R: np.ndarray) -> np.ndarray:
    """T[i, v] = sum over units s of chi(s) psi(s*v), for every v in F and
    the characters whose values chi(g^k) are the rows of R: R times the
    matrix of psi(g^k * v) = psi(g^(k + log v)), filled by one gather."""
    m = F.q - 1
    psi_prod = np.empty((m, F.q), dtype=complex)  # psi(g^k * v) as [k, v]
    psi_prod[:, 0] = F.psi(0)
    psi_prod[:, 1:] = F._psi_by_log[(np.arange(m)[:, None] + F.log[1:]) % m]
    return R @ psi_prod


def mellin_sum(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """S(chi, eta) = sum over units s,t of chi(s) eta(t) sum_x psi(s f(x) + t x)
    with f(x) = x^d (x-1)^e.

    Evaluated by regrouping the triple sum per x (exact rearrangement of
    finitely many terms); guarded to q <= MELLIN_Q_GUARD.
    """
    d, e = pair
    T_chi, T_eta = _linear_sums(F, _char_table(F, [a_chi, a_eta]))
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
    C = R[:, F._log_one_minus]
    C[:, 0] = 0
    J = R @ C.T  # J(chi_a1, chi_a2) as [a1, a2]
    a = np.arange(m)[:, None]
    b = np.arange(m)
    chibar_neg1_e = F._unit_roots[(-a * F.log[F.neg(1)] * e) % m]
    G_eta = np.where(b == 0, -1, G)  # eta trivial: -G(chi) in place of G(chi) G(eta)
    out = G[:, None] * G_eta * chibar_neg1_e * J[(-d * a - b) % m, (-e * a) % m]
    out[0] = q * G
    out[0, 0] = q * (q - 2)
    return out


def _case(a_chi: int, a_eta: int) -> str:
    if a_chi == 0:
        return "trivial-trivial" if a_eta == 0 else "trivial-eta"
    return "chi-trivial-eta" if a_eta == 0 else "nontrivial"


def mellin_closed_form(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> tuple[complex, str]:
    """The predicted value of S(chi, eta) and which case produced it: one cell
    of the table ``mellin_suite`` checks against (G is the unsigned Gauss
    sum); guarded to q <= MELLIN_Q_GUARD."""
    m = F.q - 1
    a, b = a_chi % m, a_eta % m
    return complex(_closed_forms(F, pair, _char_table(F, range(m)))[a, b]), _case(a, b)


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

    One character table R[a, k] = chi_a(g^k), built per call, serves both
    sides: the full S-matrix, by the same per-x regrouping as ``mellin_sum``
    batched over all characters, and the Gauss vector G and Jacobi table J
    that the closed forms are assembled from.  The errors are taken as arrays
    too, and each row is read off the raveled tables.
    """
    d, e = pair
    m = F.q - 1
    R = _char_table(F, range(m))
    A = _linear_sums(F, R)  # T_a(v) as [a, v]
    S = A[:, belyi_values(F, d, e)] @ A.T  # S[a_chi, a_eta]
    expected = _closed_forms(F, pair, R)
    # np.hypot rounds as Python's abs(complex) does; np.abs need not
    diff = S - expected
    abs_error = np.hypot(diff.real, diff.imag)
    rel_error = abs_error / np.maximum(np.hypot(expected.real, expected.imag), 1.0)
    a, b = (v.tolist() for v in np.divmod(np.arange(m * m), m))
    return list(starmap(MellinRow, zip(
        a, b, map(_case, a, b),
        *(v.ravel().tolist() for v in (S, expected, abs_error, rel_error)))))


# ---------------------------------------------------------------------------
# switchsum (p = 2): sum over roots of x^2+x=y of psi(tx) switches with
# the sum over roots of u^2+u=t^2 of psi(uy); both sides exact integers.

def _switchsum_sides(F: FieldPresentation):
    """A function of t giving both sides of the identity as integer vectors
    over every y: lhs[y] = sum of psi(t x) over x^2 + x = y, rhs[y] = sum of
    psi(u y) over u^2 + u = t^2.  Memory is O(q) per t."""
    if F.p != 2:
        raise ValueError("switchsum is a characteristic-2 identity")
    m = F.q - 1
    exp, log = F.exp, F.log
    unit = log >= 0
    psi = 1 - 2 * F.trace  # psi as +-1 integers

    def times(t: int) -> np.ndarray:
        """t * x for every x in F."""
        if t == 0:
            return np.zeros(F.q, dtype=np.int64)
        return np.where(unit, exp[(log[t] + log) % m], 0)

    y_of_x = np.where(unit, exp[2 * log % m], 0) ^ np.arange(F.q)  # x^2 + x

    def sides(t: int) -> tuple[np.ndarray, np.ndarray]:
        tx = times(t)
        lhs = np.zeros(F.q, dtype=np.int64)
        np.add.at(lhs, y_of_x, psi[tx])
        rhs = np.zeros(F.q, dtype=np.int64)
        for u in np.flatnonzero(y_of_x == tx[t]):
            rhs += psi[times(int(u))]
        return lhs, rhs

    return sides


def switchsum_check(F: FieldPresentation, t: int, y: int) -> bool:
    """Exact-integer equality of the two root sums; p = 2 only."""
    lhs, rhs = _switchsum_sides(F)(t)
    return bool(lhs[y] == rhs[y])


def switchsum_exhaustive(r: int) -> tuple[int, int]:
    """Check the identity on all (t, y) pairs over F_{2^r}; returns
    (pairs checked, pairs equal).  r is at most SWITCH_MAX_R."""
    if r > SWITCH_MAX_R:
        raise ValueError(f"switchsum depth r = {r} exceeds {SWITCH_MAX_R} (4^r pairs)")
    F = build_field(2, r)
    sides = _switchsum_sides(F)
    checked = equal = 0
    for t in F.elements:
        lhs, rhs = sides(t)
        checked += F.q
        equal += int(np.count_nonzero(lhs == rhs))
    return checked, equal
