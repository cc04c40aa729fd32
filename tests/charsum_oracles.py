"""Per-element character oracles for the charsums tests.

Each evaluates one value at a time from a field's tables, with none of the
batching the library uses, so the tests can check the batched sums against
them.
"""

from monodromy.charsums import FieldPresentation


def additive_char(F: FieldPresentation, t: int) -> complex:
    """psi(t) = exp(2*pi*i * Tr(t) / p); exactly +-1 when p = 2."""
    return complex(F.psi(t))


def mult_char(F: FieldPresentation, a: int, t: int) -> complex:
    """chi_a(t) = exp(2*pi*i * a*log(t) / (q-1)) for a unit t; rejects t = 0."""
    if t == 0:
        raise ValueError("multiplicative characters are defined on units; t=0 rejected")
    a %= F.q - 1
    return complex(F._unit_roots[(a * F.log[t]) % (F.q - 1)])


def mellin_sum_naive(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """The triple sum of ``mellin_sum`` with no regrouping at all (tiny q)."""
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
