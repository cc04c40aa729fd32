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

The exp table is filled by doubling: multiplication by the generator is an
r x r matrix over F_p acting on digit rows, and rows [n, 2n) are rows [0, n)
times its n-th power, so about log2(q) numpy matmuls build it.  ``log`` is
one scatter of it, and ``trace`` the digit rows times the traces of the basis
monomials, each the matrix trace of a power of the modulus' companion
matrix.  The tables are stored as tuples of Python ints.  Caches are
bounded: ``build_field`` keeps the 32 most recent fields, and the tables
derived from a field (character values, Artin-Schreier roots) are cached on
the field itself, so they are freed with it.

Sign conventions: ``gauss_sum`` returns -sum_{t != 0} chi(t) psi(t) (so the
trivial character gives exactly 1), while the classical factorizations of
Jacobi sums hold for the unsigned sum, available as ``gauss_sum_raw``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .qz import _as_prime_int

__all__ = [
    "FieldPresentation",
    "MellinRow",
    "additive_char",
    "build_field",
    "exp_sum",
    "gauss_sum",
    "gauss_sum_raw",
    "gauss_sums_all",
    "jacobi_sum",
    "mellin_closed_form",
    "mellin_suite",
    "mellin_sum",
    "mellin_sum_naive",
    "mult_char",
    "switchsum_check",
    "switchsum_exhaustive",
]

FIELD_SIZE_GUARD = 2**20
MELLIN_Q_GUARD = 64


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Product of coefficient lists reduced by a monic modulus, over F_p."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    r = len(mod) - 1
    for i in range(len(prod) - 1, r - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(r):
                prod[i - r + j] = (prod[i - r + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_divisible(num: list[int], den: list[int], p: int) -> bool:
    """Whether the monic-leading ``den`` divides ``num`` over F_p."""
    num = num[:]
    inv_lead = pow(den[-1], -1, p)
    while len(num) >= len(den) and _poly_trim(num):
        shift = len(num) - len(den)
        factor = (num[-1] * inv_lead) % p
        for j, dj in enumerate(den):
            num[shift + j] = (num[shift + j] - factor * dj) % p
        _poly_trim(num)
    return not _poly_trim(num)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for ddeg in range(1, deg // 2 + 1):
        for m in range(p**ddeg):
            den = _decode_int(m, p, ddeg) + [1]
            if _poly_divisible(poly[:], den, p):
                return False
    return True


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
    """A concrete model of F_{p^r} with exp/log tables.

    ``exp[k]`` is generator^k for 0 <= k < q-1 and ``log[t]`` inverts it on
    the units (log[0] is -1 and must not be used).  ``trace[t]`` is the
    absolute trace into F_p.
    """

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    exp: tuple[int, ...]
    log: tuple[int, ...]
    trace: tuple[int, ...]

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
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def power(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    @property
    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- characters ----------------------------------------------------------
    # Derived tables are cached on the instance: they are freed with the
    # field, and a lookup never hashes the field's O(q) tables.
    def psi(self, t: int) -> complex:
        return self._psi_table[t]

    @cached_property
    def _psi_table(self) -> np.ndarray:
        if self.p == 2:  # exactly +-1 in characteristic 2
            roots = np.array([1.0 + 0j, -1.0 + 0j])
        else:
            roots = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        return roots[np.array(self.trace)]

    @cached_property
    def _unit_roots(self) -> np.ndarray:
        m = self.q - 1
        return np.exp(2j * np.pi * np.arange(m) / m)

    @cached_property
    def _psi_by_log(self) -> np.ndarray:
        """psi(generator^k) indexed by k."""
        return self._psi_table[np.array(self.exp)]

    @cached_property
    def _log_one_minus(self) -> np.ndarray:
        """log(1 - generator^k) indexed by k; -1 at k = log(1) = 0.

        -g^k is g^(k + (q-1)/2) for odd p and g^k for p = 2, and adding 1
        changes only the constant base-p digit.
        """
        p = self.p
        t = np.roll(np.array(self.exp), -((self.q - 1) // 2 if p > 2 else 0))
        return np.array(self.log)[t - t % p + (t + 1) % p]

    @cached_property
    def _switchsum_roots(self) -> dict[int, list[int]]:
        """The roots of x^2 + x = z, keyed by z."""
        roots: dict[int, list[int]] = {}
        for x in self.elements:
            roots.setdefault(self.add(self.mul(x, x), x), []).append(x)
        return roots

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
    q = p**r
    if q > FIELD_SIZE_GUARD:
        raise ValueError(f"field size {q} exceeds guard {FIELD_SIZE_GUARD}")

    modulus = None
    for m in range(q):
        cand = _decode_int(m, p, r) + [1]
        if _is_irreducible(cand, p):
            modulus = cand
            break
    assert modulus is not None

    m = q - 1
    prime_factors = _factor(m) if m > 1 else []

    def poly_of(t: int) -> list[int]:
        return _poly_trim(_decode_int(t, p, r))

    def raw_mul(a: list[int], b: list[int]) -> list[int]:
        return _poly_mulmod(a, b, modulus, p)

    def raw_pow(a: list[int], n: int) -> list[int]:
        out, base = [1], a[:]
        while n:
            if n & 1:
                out = raw_mul(out, base)
            base = raw_mul(base, base)
            n >>= 1
        return out

    generator = None
    for g in range(1, q):
        gp = poly_of(g)
        if all(raw_pow(gp, m // f) != [1] for f in prime_factors):
            generator = g
            break
    assert generator is not None

    # Row i of ``step`` holds the digits of x^i * generator, so row k of
    # ``digits`` (generator^k) times step^n is row k + n.  Matmul entries
    # stay below r*(p-1)^2: int64 suffices for every q <= FIELD_SIZE_GUARD,
    # and int32 (always when r >= 2) halves the m x r digit matrix.
    dtype = np.int32 if r * (p - 1) ** 2 < 2**31 else np.int64
    gp = poly_of(generator)
    step = np.array([(raw_mul([0] * i + [1], gp) + [0] * r)[:r] for i in range(r)],
                    dtype=dtype)
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

    # Tr(x^k) is the matrix trace of multiplication by x^k, the k-th power of
    # the modulus' companion matrix (entries < p, so int64 sums stay below
    # r*p^2 <= 2^40 when p^r <= 2^20).  The absolute trace is F_p-linear, so
    # Tr(t) for arbitrary t is a digit dot-product against these.
    companion = np.eye(r, k=1, dtype=np.int64)
    companion[-1] = np.negative(modulus[:r]) % p
    tr_basis, power = [], np.eye(r, dtype=np.int64)
    for _ in range(r):
        tr_basis.append(int(np.trace(power)) % p)
        power = power @ companion % p

    trace = np.zeros(q, dtype=np.int64)
    trace[exp] = digits @ np.array(tr_basis, dtype=dtype) % p
    del digits  # the largest array here; drop it before the tuples are made

    return FieldPresentation(
        p=p, r=r, q=q,
        modulus=tuple(modulus),
        generator=generator,
        exp=tuple(exp.tolist()),
        log=tuple(log.tolist()),
        trace=tuple(trace.tolist()),
    )


# ---------------------------------------------------------------------------
# characters and sums

def additive_char(F: FieldPresentation, t: int) -> complex:
    """psi(t) = exp(2*pi*i * Tr(t) / p); exactly +-1 when p = 2."""
    return complex(F.psi(t))


def mult_char(F: FieldPresentation, a: int, t: int) -> complex:
    """chi_a(t) = exp(2*pi*i * a*log(t) / (q-1)) for a unit t; rejects t = 0."""
    if t == 0:
        raise ValueError("multiplicative characters are defined on units; t=0 rejected")
    a %= F.q - 1
    return complex(F._unit_roots[(a * F.log[t]) % (F.q - 1)])


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
    """f(x) = x^d (x-1)^e evaluated on all of F (element encodings)."""
    out = np.zeros(F.q, dtype=np.int64)
    for x in F.elements:
        out[x] = F.mul(F.power(x, d), F.power(F.sub(x, 1), e))
    return out


def _linear_sums(F: FieldPresentation, chars) -> np.ndarray:
    """T[i, v] = sum over units s of chi_a(s) psi(s*v) for a = chars[i], for
    every v in F: the characters' values times the matrix of psi(g^k * v)."""
    m = F.q - 1
    R = np.array([_chi_vector(F, a) for a in chars])  # chi_a(g^k) as [i, k]
    psi_by_log = F._psi_by_log
    psi_prod = np.empty((m, F.q), dtype=complex)  # psi(g^k * v) as [k, v]
    psi_prod[:, 0] = F.psi(0)
    for v in range(1, F.q):
        psi_prod[:, v] = np.roll(psi_by_log, -F.log[v])
    return R @ psi_prod


def mellin_sum(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """S(chi, eta) = sum over units s,t of chi(s) eta(t) sum_x psi(s f(x) + t x)
    with f(x) = x^d (x-1)^e.

    Evaluated by regrouping the triple sum per x (exact rearrangement of
    finitely many terms); guarded to q <= MELLIN_Q_GUARD.
    """
    d, e = pair
    if F.q > MELLIN_Q_GUARD:
        raise ValueError(f"q={F.q} exceeds the triple-sum guard {MELLIN_Q_GUARD}")
    T_chi, T_eta = _linear_sums(F, [a_chi, a_eta])
    fvals = belyi_values(F, d, e)
    return complex(np.sum(T_chi[fvals] * T_eta))


def mellin_sum_naive(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """The same triple sum with no regrouping at all (tiny-q test oracle)."""
    d, e = pair
    total = 0j
    for s in F.units():
        for t in F.units():
            inner = 0j
            for x in F.elements:
                fx = F.mul(F.power(x, d), F.power(F.sub(x, 1), e))
                inner += F.psi(F.add(F.mul(s, fx), F.mul(t, x)))
            total += mult_char(F, a_chi, s) * mult_char(F, a_eta, t) * inner
    return total


def mellin_closed_form(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> tuple[complex, str]:
    """The predicted value of S(chi, eta) and which case produced it.

    Cases: trivial/trivial gives q(q-2); chi trivial gives q*G(eta);
    eta trivial gives -G(chi) chibar(-1)^e J(chibar^d, chibar^e); both
    nontrivial give G(chi) G(eta) chibar(-1)^e J(chibar^d etabar, chibar^e).
    G here is the unsigned Gauss sum.
    """
    d, e = pair
    m = F.q - 1
    a_chi %= m
    a_eta %= m
    if a_chi == 0 and a_eta == 0:
        return complex(F.q * (F.q - 2)), "trivial-trivial"
    if a_chi == 0:
        return F.q * gauss_sum_raw(F, a_eta), "trivial-eta"
    neg_one_log = F.log[F.neg(1)]
    chibar_neg1_e = complex(F._unit_roots[(-a_chi * neg_one_log * e) % m])
    if a_eta == 0:
        J = jacobi_sum(F, (-d * a_chi) % m, (-e * a_chi) % m)
        return -gauss_sum_raw(F, a_chi) * chibar_neg1_e * J, "chi-trivial-eta"
    J = jacobi_sum(F, (-d * a_chi - a_eta) % m, (-e * a_chi) % m)
    return (
        gauss_sum_raw(F, a_chi) * gauss_sum_raw(F, a_eta) * chibar_neg1_e * J,
        "nontrivial",
    )


@dataclass(frozen=True)
class MellinRow:
    a_chi: int
    a_eta: int
    case: str
    computed: complex
    expected: complex

    @property
    def abs_error(self) -> float:
        return abs(self.computed - self.expected)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.expected), 1.0)
        return self.abs_error / scale


def mellin_suite(F: FieldPresentation, pair) -> list[MellinRow]:
    """S(chi, eta) for every character pair, against the closed forms.

    The full S-matrix is assembled by the same per-x regrouping as
    ``mellin_sum``, batched over all characters.
    """
    d, e = pair
    m = F.q - 1
    A = _linear_sums(F, range(m))  # T_a(v) as [a, v]
    fvals = belyi_values(F, d, e)
    S = A[:, fvals] @ A.T  # S[a_chi, a_eta]
    rows = []
    for a in range(m):
        for b in range(m):
            expected, case = mellin_closed_form(F, pair, a, b)
            rows.append(MellinRow(a, b, case, complex(S[a, b]), expected))
    return rows


# ---------------------------------------------------------------------------
# switchsum (p = 2): sum over roots of x^2+x=y of psi(tx) switches with
# the sum over roots of u^2+u=t^2 of psi(uy); both sides exact integers.

def switchsum_check(F: FieldPresentation, t: int, y: int) -> bool:
    """Exact-integer equality of the two root sums; p = 2 only."""
    if F.p != 2:
        raise ValueError("switchsum is a characteristic-2 identity")
    roots = F._switchsum_roots
    lhs = sum(1 - 2 * F.trace[F.mul(t, x)] for x in roots.get(y, ()))
    t2 = F.mul(t, t)
    rhs = sum(1 - 2 * F.trace[F.mul(u, y)] for u in roots.get(t2, ()))
    return lhs == rhs


def switchsum_exhaustive(r: int) -> tuple[int, int]:
    """Check the identity on all (t, y) pairs over F_{2^r}; returns
    (pairs checked, pairs equal)."""
    F = build_field(2, r)
    roots = F._switchsum_roots
    psi_int = [1 - 2 * tr for tr in F.trace]
    checked = equal = 0
    for t in F.elements:
        t2 = F.mul(t, t)
        rhs_roots = roots.get(t2, ())
        for y in F.elements:
            lhs = sum(psi_int[F.mul(t, x)] for x in roots.get(y, ()))
            rhs = sum(psi_int[F.mul(u, y)] for u in rhs_roots)
            checked += 1
            equal += lhs == rhs
    return checked, equal
