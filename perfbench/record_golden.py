"""Record the first witness of every seed-0 `negative` input.

The benchmark compares each seed-0 witness with this record, because the
first witness in search order is part of the search contract.  Run from the
repository root, only at a commit whose search order is the reference:

    python3 perfbench/record_golden.py
"""

import json
import sys

import run

if __name__ == "__main__":
    problem = run.use_checkout_source()
    if problem:
        sys.exit(f"error: {problem}")
    import workloads as wl

    api = wl.make_api()
    work = wl.setup("negative", api, wl.GOLDEN_SEED)
    rows = []
    for p, pair in work.inputs["items"]:
        res = api.belyi_search(p, pair)
        rows.append(res.violation.as_dict())
    rows.sort(key=lambda w: (w["p"], w["d"], w["e"]))
    lines = ",\n".join(json.dumps(w, sort_keys=True) for w in rows)
    text = f'{{"commit": "{run.git_commit()}", "witnesses": [\n{lines}\n]}}\n'
    wl.GOLDEN_PATH.write_text(text, encoding="utf-8")
    print(f"{len(rows)} witnesses at commit {run.git_commit()} -> {wl.GOLDEN_PATH.name}")
