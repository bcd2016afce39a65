"""Random-program sweep: solve 3,000 programs of
`answer_corpus.random_text`, all drawn from one `random.Random(7)`, under
the default configuration, and print how many ended in each status and
a sha256 of their canonical records (`answer_corpus.record`, one sorted
JSON line each, as the corpus prints them).

    PYTHONPATH=src python3 tools/sweep.py

Two revisions gave the same answers on the sweep when the outputs are
the same; the digest moves with any bound of any answer set, any grid
verdict and any diagnostic.  A run takes a few seconds.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random

import unasp
from answer_corpus import random_text, record

PROGRAMS = 3000
SEED = 7


def main():
    rng = random.Random(SEED)
    config = unasp.SolverConfig()
    statuses = collections.Counter()
    digest = hashlib.sha256()
    for k in range(PROGRAMS):
        out = record(f"sweep/{k}", random_text(rng), config)
        statuses[out.get("status", "error")] += 1
        digest.update(json.dumps(out, sort_keys=True, default=repr).encode())
        digest.update(b"\n")
    for status, n in sorted(statuses.items()):
        print(status, n)
    print("sha256", digest.hexdigest())


if __name__ == "__main__":
    main()
