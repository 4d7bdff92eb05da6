"""Recompute every stored reference of the benchmark from scratch.

    python3 perfbench/recompute.py [KEY ...]

Evaluates each case of ``oracles.STORED_CASES`` with mpmath (no loctime
code is involved) and rewrites ``references.json`` next to this file.
With KEY arguments only those cases are recomputed and the others are
kept.  Prints each value, the mpmath error estimate, the change against
the previous file and the time taken.  The 2-D erf cases and the kernel
case take 15 to 25 s each; the whole run takes about a minute and a half.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import oracles

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())["references"]


def main(argv: list[str]) -> int:
    keys = argv or list(oracles.STORED_CASES)
    unknown = [k for k in keys if k not in oracles.STORED_CASES]
    if unknown:
        print(f"unknown reference keys: {unknown}", file=sys.stderr)
        return 2
    old = load()
    new = {k: v for k, v in old.items() if k in oracles.STORED_CASES}
    for key in keys:
        t0 = time.perf_counter()
        value, err = oracles.compute_stored(key)
        dt = time.perf_counter() - t0
        prev = old.get(key, {}).get("value")
        change = "new" if prev is None else f"change {value - prev:+.3e}"
        print(f"{key:32s} {value!r:>24} mpmath err {err:.1e}  {change}  "
              f"({dt:.1f} s)", flush=True)
        new[key] = {"value": value, "mpmath_error": err}
        save(new)
    return 0


def save(refs: dict) -> None:
    """Write after every case, so an interrupted run keeps its results."""
    REFERENCES.write_text(json.dumps(
        {"generator": "perfbench/recompute.py (mpmath)",
         "references": {k: refs[k] for k in oracles.STORED_CASES if k in refs}},
        indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
