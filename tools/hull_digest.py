"""One sha256 over the exact hulls and polytope-route reports of fixed inputs.

    python3 tools/hull_digest.py [CHECKOUT]

CHECKOUT is the root of a checkout (default: the one holding this file);
its `src/` is imported, and its `bench/inputs.py` supplies the inputs,
read only.  Run it on two checkouts: equal digests mean that `hull_edges`
returned the same vertices, edges and facets, in the same order, and
`phi_polytope_check` the same reports, on every input.

The inputs are:
- every case of the `polytope` workload at seeds 1-5: the hull of its
  orbit points and its `PhiReport`;
- RANDOM_SETS seeded point sets, most of them degenerate: on a line or a
  plane in a larger space, cube corners, a point set lifted by a
  dependent or constant coordinate, and rational points.

Needs what the checkout's own code needs; prints the digest, then the
number of hulls and reports it covers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

SEEDS = (1, 2, 3, 4, 5)
RANDOM_SETS = 1500
RANDOM_SEED = 2027


def random_sets(rng: random.Random, count: int) -> list[list[tuple]]:
    """Seeded distinct point sets of 1-12 points in dimension 1-5."""
    out = []
    while len(out) < count:
        dim = rng.randint(1, 5)
        n = rng.randint(1, 12)
        kind = rng.choice(("general", "line", "plane", "cube", "lifted", "rational"))

        def vec(lo=-4, hi=4, d=dim):
            return tuple(rng.randint(lo, hi) for _ in range(d))

        if kind == "line" or kind == "plane":
            base = vec()
            dirs = [vec(-2, 2) for _ in range(1 if kind == "line" else 2)]
            pts = [
                tuple(b + sum(t * d[c] for t, d in zip(ts, dirs)) for c, b in enumerate(base))
                for ts in (vec(-3, 3, len(dirs)) for _ in range(n))
            ]
        elif kind == "cube":
            pts = rng.sample(list(itertools.product((0, 1), repeat=dim)), min(n, 2**dim))
        elif kind == "lifted":
            low = [vec(d=max(dim - 1, 1)) for _ in range(n)]
            k = rng.randint(-2, 2)
            constant = rng.random() < 0.5
            pts = [(k, *p) if constant else (k * p[0] + p[-1], *p) for p in low]
        elif kind == "rational":
            pts = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
                   for _ in range(n)]
        else:
            pts = [vec() for _ in range(n)]
        pts = list(dict.fromkeys(pts))
        if pts:
            out.append(pts)
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import inputs
    from weylret.exact import hull_edges
    from weylret.matroid import orbit_points, phi_polytope_check
    from weylret.retraction import SubsetM
    from weylret.weyl import GroupDescriptor

    h = hashlib.sha256()

    def feed(*parts) -> None:
        h.update(repr(parts).encode())
        h.update(b"\n")

    def feed_hull(points) -> None:
        hull = hull_edges(points)
        feed("hull", hull.vertices, hull.edges,
             [(f.normal, str(f.offset), f.mask) for f in hull.facets])

    hulls = reports = 0
    for seed in SEEDS:
        for case in inputs.polytope(seed)["cases"]:
            group = GroupDescriptor.simple(case["typ"], case["n"])
            M = SubsetM(group, tuple(group.element(w) for w in case["windows"]))
            feed_hull(orbit_points(M)[0])
            r = phi_polytope_check(M)
            feed("phi", r.is_phi, [w.window for w in r.vertices],
                 [(a.window, b.window) for a, b in r.edges],
                 [(a.window, b.window) for a, b in r.offending], r.nu)
            hulls += 1
            reports += 1
    for points in random_sets(random.Random(RANDOM_SEED), RANDOM_SETS):
        feed_hull(points)
        hulls += 1
    print(h.hexdigest())
    print(f"{hulls} hulls, {reports} reports")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
