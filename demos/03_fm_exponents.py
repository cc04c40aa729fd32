"""FM-exponents: symbolic classification against numeric search.

An exponent d is an FM-exponent for p when its prime-to-p part lies in one
of four families.  The equivalent numeric statement is that
V(x) + V(-d*x) >= 1/2 for every nonzero x.  Here the classifier and a
bounded exhaustive search check each other on a range of exponents.
"""

from monodromy import classify_fm_exponent, monomial_search, mult_order

for p in (2, 3, 5):
    fm = [d for d in range(1, 41) if classify_fm_exponent(p, d).is_fm]
    print(f"p={p}: FM-exponents up to 40: {fm}")

print("\nFamily witnesses for a few classifications:")
for p, d in [(2, 3), (2, 9), (3, 14), (2, 11), (5, 7), (2, 12)]:
    v = classify_fm_exponent(p, d)
    print(f"  p={p}, d={d}: {v.family}, parameters {v.parameters}, prime-to-p part {v.prime_to_p_part}")

print("\nNon-FM exponents come with explicit violating classes:")
for p, d in [(2, 7), (2, 15), (3, 11), (5, 4)]:
    res = monomial_search(p, d, max_r=8)
    assert res.found
    x = res.violation.x
    print(
        f"  p={p}, d={d}: V({x}) + V(-{d}*{x}) = {res.violation.w_value} "
        f"< 1/2 at level r={mult_order(p, x.den)}"
    )

print("\nFM-exponents survive the same search (bounded evidence):")
for p, d in [(2, 3), (5, 7), (3, 14)]:
    res = monomial_search(p, d, max_r=8)
    assert not res.found
    print(f"  p={p}, d={d}: no violation up to r=8")
