"""A tour of the Kubert V-function.

V_p is defined on classes a/b in Q/Z with b prime to p.  Writing the class
over the denominator p^r - 1 (r = order of p mod b), its value is the base-p
digit sum of the numerator divided by r*(p-1).  This script walks through the
digit mechanics and the two structural identities everything else relies on.
"""

from fractions import Fraction

from monodromy import QzClass, kubert_v, mult_order
from monodromy.qz import digit_sum


def show(p, x):
    x = QzClass.parse(x)
    r = mult_order(p, x.den)
    a = x.num * (p**r - 1) // x.den
    digits = []
    n = a
    while n:
        digits.append(n % p)
        n //= p
    print(
        f"  V_{p}({x}) = {kubert_v(p, x)}   "
        f"[r={r}, numerator {a} has base-{p} digits {digits or [0]}, "
        f"sum {digit_sum(a, p)}, over {r}*({p}-1)]"
    )


print("Values by digit sums:")
for p, x in [(2, "1/7"), (2, "4/7"), (7, "1/3"), (2, "1/3"), (3, "11/80"), (5, "7/24")]:
    show(p, x)

print("\nComplement identity V(x) + V(-x) = 1 for x != 0:")
for p, x in [(2, "3/31"), (3, "2/13"), (5, "7/24")]:
    x = QzClass.parse(x)
    print(f"  p={p}: V({x}) + V({-x}) = {kubert_v(p, x) + kubert_v(p, -x)}")

print("\nGalois invariance V(p*x) = V(x) (multiplying by p permutes digits):")
for p, x in [(2, "1/7"), (3, "1/8")]:
    x = QzClass.parse(x)
    chain = [str(x.scale(p**k)) for k in range(4)]
    vals = {str(kubert_v(p, x.scale(p**k))) for k in range(4)}
    print(f"  p={p}: orbit {' -> '.join(chain)} all have V = {vals.pop()}")

print("\nThe value never depends on which p^r - 1 denominator is used:")
x = QzClass(1, 7)
for blocks in (1, 2, 3):
    r = mult_order(2, 7) * blocks
    a = x.num * (2**r - 1) // x.den
    print(f"  over 2^{r}-1: digit sum {digit_sum(a, 2)} / ({r}*1) = {Fraction(digit_sum(a, 2), r)}")
