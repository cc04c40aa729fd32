"""The three family catalogs and the scan-vs-theorems crosscheck.

Three lists are shipped as data: 37 candidate families (pairs whose
members A, B, A+B are all FM-exponents), the 14 final families that are
actually integral, and the 9 binomial cases.  The brute-force FM-pair scan
must reproduce the candidate union exactly, and every candidate outside the
final list must be killed by a search violation.
"""

from monodromy import classify_binomial, classify_pair, enumerate_family, fm_pair_scan
from monodromy.catalog import _canonical, candidate_union, crosscheck

print("Some family enumerations (bound 60):")
for theorem, item, p in [("final", 3, 2), ("final", 13, 3), ("candidates", 4, 2), ("candidates", 37, 7)]:
    pairs = enumerate_family((theorem, item), p, 60)
    print(f"  {theorem} #{item}, p={p}: {[tuple(q) for q in pairs][:8]}{' ...' if len(pairs) > 8 else ''}")

print("\nMembership of a few pairs in the final classification (p=2):")
for pair in [(3, 3), (9, 13), (1, 12), (9, 3), (5, 6)]:
    cls = classify_pair(2, pair, "final")
    items = [(m.family.index, "rev" if m.reversed else "dir") for m in cls.memberships]
    print(f"  {pair}: {'in ' + str(items) if items else 'not in the final list'}")

print("\nBinomial cases on prime-to-p parts:")
for p, pair in [(2, (13, 3)), (5, (7, 35)), (3, (7, 4)), (2, (7, 3))]:
    cls = classify_binomial(p, pair)
    items = sorted({m.family.index for m in cls.memberships})
    print(f"  p={p} {pair} (reduced {tuple(cls.reduced_pair)}): cases {items or 'none'}")

print("\nScan equals candidate union (up to reversal), small bounds:")
for p in (2, 3, 5, 7):
    scan = _canonical(fm_pair_scan(p, 60))
    assert scan == candidate_union(p, 60)
    print(f"  p={p}: {len(scan)} unordered pairs up to 60, exact match")

print("\nCrosscheck at p=7 (the lone candidate family dies):")
rep = crosscheck(7, 5, max_r=3)
for row in rep.rows:
    w = row.search.violation if row.search and row.search.violation else None
    extra = f", witness W({w.x},{w.y})={w.w_value}" if w else ""
    print(f"  {row.pair}: member={row.is_final_member} status={row.status}{extra}")

print("\nCrosscheck at p=5, bound 8:")
rep = crosscheck(5, 8)
counts = {}
for row in rep.rows:
    counts[row.status] = counts.get(row.status, 0) + 1
print(f"  statuses: {counts}; anomalies: {len(rep.anomalies)}")
