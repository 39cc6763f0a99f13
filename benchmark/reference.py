"""Fixed reference kernels that set the unit of the benchmark's pass times.

Usage::

    python3 benchmark/reference.py poly|group|steps|emit

The benchmark runs one of these in a fresh process after every case, on the
same CPU as the cases, and reports a workload's pass time as a multiple of
the kernel's time in the same run (see README.md).  Each kernel does, in
plain Python and at a small fixed size, the kind of work that dominates one
workload, so that a host slowing down slows both alike:

- ``poly``: truncated products of sparse polynomials in q, t, u held in dicts
  keyed by exponent triples (``deep-cap``);
- ``group``: enumeration of colored permutations with their descent
  statistics (``verify``);
- ``steps``: enumeration of the lattice points of cube slices and their
  monomial weights, then descent sets of same-support colored windows
  (``all-steps``);
- ``emit``: per-element statistics serialised as indented JSON and as TSV
  (``emit``).

Nothing here imports the package, so no change to the program changes the
kernels.  Each prints a checksum that ``run.py`` checks.  Do not change them:
that would change the unit of every recorded figure.
"""

import dataclasses
import functools
import itertools
import json
import sys
from typing import NamedTuple


def _multiply(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for (q1, t1, u1), c1 in a.items():
        for (q2, t2, u2), c2 in b.items():
            t = t1 + t2
            if t <= cap:
                key = (q1 + q2, t, u1 + u2)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def poly() -> int:
    cap = 20
    base = {(0, 0, 0): 1, (1, 1, 0): 1, (2, 1, 1): 1, (1, 2, 1): 1, (3, 1, 2): 1, (0, 1, 3): 1}
    product = base
    for _ in range(cap):
        product = _multiply(product, base, cap)
    return len(product) + sum(product.values())


@dataclasses.dataclass(frozen=True)
class _Window:
    pi: tuple
    colors: tuple

    def __post_init__(self):
        object.__setattr__(self, "pi", tuple(self.pi))
        object.__setattr__(self, "colors", tuple(self.colors))
        if sorted(self.pi) != list(range(1, len(self.pi) + 1)):
            raise ValueError(f"not a permutation: {self.pi}")


def _descent_set(w: _Window) -> set[int]:
    keys = [(1, 0)] + [(0, -v) if c else (1, v) for v, c in zip(w.pi, w.colors)]
    return {i for i in range(len(w.pi)) if keys[i] > keys[i + 1]}


def _descents(pi: tuple, colors: tuple) -> list[int]:
    keys = [(1, 0)] + [(0, -v) if c else (1, v) for v, c in zip(pi, colors)]
    return [i for i in range(len(pi)) if keys[i] > keys[i + 1]]


def group() -> int:
    r, n = 3, 5
    counts: dict = {}
    for pi in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(r), repeat=n):
            d = _descent_set(_Window(pi, colors))
            key = (sum(d), len(d), sum(colors))
            counts[key] = counts.get(key, 0) + 1
    return sum((q + 1) * (t + 2) * (u + 3) * c for (q, t, u), c in counts.items())


class _Point(NamedTuple):
    v: tuple
    k: int


class _Monomial(NamedTuple):
    q: int
    t: int
    u: int


@functools.lru_cache(maxsize=None)
def _weight(j: int, k: int) -> _Monomial:
    if j <= k:
        return _Monomial(j, 0, 0)
    return _Monomial((j - 1) % k, 0, (j - 1) // k)


def steps() -> int:
    n, cap = 4, 7
    counts: dict = {}
    for eps in itertools.product(range(2), repeat=n):
        for k in range(1, cap + 1):
            ranges = [range(k * e + (1 if e else 0), k * (e + 1) + 1) for e in eps]
            for v in itertools.product(*ranges):
                point = _Point(v, k)
                q = u = 0
                for j in point.v:
                    weight = _weight(j, point.k)
                    q += weight.q
                    u += weight.u
                key = _Monomial(q, point.k, u)
                counts[key] = counts.get(key, 0) + 1
    total = sum((q + 1) * (t + 2) * (u + 3) * c for (q, t, u), c in counts.items())
    n = 5
    for colors in itertools.product(range(3), repeat=n):
        same_support = tuple(2 if c else 0 for c in colors)
        for pi in itertools.permutations(range(1, n + 1)):
            total += _descent_set(_Window(pi, colors)) == _descent_set(_Window(pi, same_support))
    return total


def emit() -> int:
    r, n = 4, 4
    rows = []
    for pi in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(r), repeat=n):
            d = _descents(pi, colors)
            rows.append({
                "window": "[" + " ".join(f"{v}^{c}" for v, c in zip(pi, colors)) + "]",
                "Des": d, "des": len(d), "maj": sum(d), "col": sum(colors),
            })
    text = json.dumps(rows, indent=2) + "\n"
    tsv = "".join(
        "\t".join((row["window"], json.dumps(row["Des"], separators=(",", ":")),
                   str(row["des"]), str(row["maj"]), str(row["col"]))) + "\n"
        for row in rows
    )
    return len(text) + len(tsv)


KERNELS = {"poly": poly, "group": group, "steps": steps, "emit": emit}

if __name__ == "__main__":
    print(KERNELS[sys.argv[1]]())
