"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --out FILE` appends, one per run.
For every workload and metric found in both files this prints each
side's median and quartiles over its runs and the change of the median.
End-to-end metrics are judged against their bound in BENCHMARK.json:
`WORSE` when the new median is worse than the base median by more than
the bound, and `spread` when either side's quartile distance exceeds
the bound, so the difference cannot be resolved.  The share of failed
operations is compared too.  Exits 1 when any metric is WORSE or the
failed shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): [result, ...]} from a JSON-lines file."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[(r["workload"], r["trace"])].append(r)
    return runs


def summary(values):
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def failed_share(results):
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def compare(base, new, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines, worse = [], False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        lines.append(f"{workload} ({'traced' if trace else 'untraced'}; "
                     f"{len(base[key])} vs {len(new[key])} runs)")
        (bf, ba), (nf, na) = failed_share(base[key]), failed_share(new[key])
        if bf * na != nf * ba:
            worse = True
            lines.append(f"  failed share differs: {bf}/{ba} vs {nf}/{na}")
        names = [n for n in metrics
                 if all(n in r["metrics"] for r in base[key] + new[key])]
        for name in names:
            spec_m = metrics[name]
            b = summary([r["metrics"][name]["value"] for r in base[key]])
            n = summary([r["metrics"][name]["value"] for r in new[key]])
            change = (n[0] - b[0]) / b[0] if b[0] else 0.0
            verdict = ""
            if "bound" in spec_m:
                bound = spec_m["bound"]
                loss = change if spec_m["better"] == "lower" else -change
                spread = max((s[2] - s[1]) / s[0] if s[0] else 0.0
                             for s in (b, n))
                if loss > bound:
                    verdict = f"WORSE (bound {bound:.0%})"
                    worse = True
                elif spread > bound:
                    verdict = f"spread {spread:.1%} > bound {bound:.0%}"
                else:
                    verdict = f"ok (bound {bound:.0%})"
            lines.append(
                f"  {name:32s} {b[0]:12.6g} [{b[1]:.6g}, {b[2]:.6g}]  ->"
                f" {n[0]:12.6g} [{n[1]:.6g}, {n[2]:.6g}] {spec_m['unit']:6s}"
                f" {change:+8.1%}  {verdict}")
    return lines, worse


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, worse = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
