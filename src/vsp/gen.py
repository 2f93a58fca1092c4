"""Seeded instance families.

Every family is a pure function of its parameters and seed, so identical
configurations yield byte-identical files.  Sizes outside a family's domain,
and sizes a family does not take, raise `InputError` before any random draw.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction

from .errors import InputError
from .graph import CapGraph


def _need(ok: bool, rule: str) -> None:
    if not ok:
        raise InputError(f"out-of-range size: {rule}")


def _attach_pendants(rng, edges, hosts, k, start=1000):
    terms = []
    for i in range(k):
        t = start + i
        terms.append(t)
        edges.append((rng.choice(hosts), t, 1))
    return terms


def gen_dumbbell(k: int = 6, side: int = 5, seed: int = 0) -> CapGraph:
    """Two cliques joined by one bridge; k degree-1 terminals split evenly."""
    _need(side >= 1 and k >= 0, "dumbbell needs side >= 1 and k >= 0")
    rng = random.Random(seed)
    left = list(range(1, side + 1))
    right = list(range(side + 1, 2 * side + 1))
    edges = []
    for blob in (left, right):
        for i, u in enumerate(blob):
            for v in blob[i + 1:]:
                edges.append((u, v, 1))
    edges.append((left[-1], right[0], 1))
    terms = []
    for i in range(k):
        t = 1000 + i
        hosts = left if i % 2 == 0 else right
        terms.append(t)
        edges.append((rng.choice(hosts), t, 1))
    return CapGraph(left + right + terms, edges, terms)


def gen_grid(rows: int = 4, cols: int = 4, k: int = 4, seed: int = 0) -> CapGraph:
    _need(rows >= 1 and cols >= 1 and k >= 0, "grid needs rows, cols >= 1 and k >= 0")
    rng = random.Random(seed)
    vid = lambda r, c: r * cols + c + 1
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1))
    border = sorted(
        {vid(r, c) for r in range(rows) for c in range(cols)
         if r in (0, rows - 1) or c in (0, cols - 1)}
    )
    terms = _attach_pendants(rng, edges, border, k)
    return CapGraph(list(range(1, rows * cols + 1)) + terms, edges, terms)


def gen_regular(n: int = 12, d: int = 3, k: int = 4, seed: int = 0) -> CapGraph:
    """Random d-regular-ish connected core with k degree-1 terminals."""
    _need(n >= 2 and k >= 0, "regular needs n >= 2 and k >= 0")
    rng = random.Random(seed)
    core = list(range(1, n + 1))
    edges = [(core[i - 1], core[i], 1) for i in range(1, n)]
    deg = {v: 0 for v in core}
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    tries = 0
    while min(deg.values()) < d and tries < 50 * n:
        tries += 1
        u, v = rng.sample(core, 2)
        if deg[u] < d + 1 and deg[v] < d + 1:
            edges.append((u, v, 1))
            deg[u] += 1
            deg[v] += 1
    terms = _attach_pendants(rng, edges, core, k)
    return CapGraph(core + terms, edges, terms)


def gen_welllinked(n: int = 10, k: int = 5, seed: int = 0, extra: int = 3) -> CapGraph:
    """Dense core (cycle plus chords plus a hub) built to pass the exact
    1/3-well-linkedness check for desk sizes."""
    _need(n >= 2 and k >= 0, "welllinked needs n >= 2 and k >= 0")
    rng = random.Random(seed)
    core = list(range(1, n + 1))
    edges = [(core[i], core[(i + 1) % n], 1) for i in range(n)]
    for i in range(n // 2):
        edges.append((core[i], core[i + n // 2], 1))
    for _ in range(extra * n // 2):
        u, v = rng.sample(core, 2)
        edges.append((u, v, 1))
    terms = _attach_pendants(rng, edges, core, k)
    return CapGraph(core + terms, edges, terms)


def gen_chamber(
    body_n: int = 24, chamber_n: int = 140, k: int = 6, attach: int = 2, seed: int = 0
) -> CapGraph:
    """A well-linked body with terminals plus a large blob hanging off a thin
    attachment: the blob is a contractible set for the flow machinery."""
    _need(body_n >= 2 and k >= 0 and 0 <= attach <= min(body_n, chamber_n),
          "chamber needs body_n >= 2, k >= 0 and 0 <= attach <= body_n, chamber_n")
    rng = random.Random(seed)
    body = list(range(1, body_n + 1))
    edges = []
    for i in range(2, body_n + 1):
        edges.append((rng.randint(1, i - 1), i, 1))
    for _ in range(2 * body_n):
        u, v = rng.sample(body, 2)
        edges.append((u, v, 1))
    terms = _attach_pendants(rng, edges, body[: body_n // 2], k)
    chamber = list(range(100, 100 + chamber_n))
    for i in range(1, chamber_n):
        edges.append((chamber[rng.randint(0, i - 1)], chamber[i], 1))
    for _ in range(chamber_n // 2):
        u, v = rng.sample(chamber, 2)
        edges.append((u, v, 1))
    for j in range(attach):
        edges.append((body[-1 - j], chamber[j], 1))
    return CapGraph(body + chamber + terms, edges, terms)


def gen_capacitated(
    n: int = 8, k: int = 3, seed: int = 0, cap_max: int = 4
) -> CapGraph:
    """Connected graph with capacities in half-units of [1, cap_max] and
    terminals of arbitrary degree."""
    _need(n >= 2 and 0 <= k <= n and cap_max >= 1,
          "capacitated needs n >= 2, 0 <= k <= n and cap_max >= 1")
    rng = random.Random(seed)
    verts = list(range(1, n + 1))

    def cap():
        return Fraction(rng.randint(2, 2 * cap_max), 2)

    edges = []
    for i in range(2, n + 1):
        edges.append((rng.randint(1, i - 1), i, cap()))
    for _ in range(n // 2 + 1):
        u, v = rng.sample(verts, 2)
        edges.append((u, v, cap()))
    terms = rng.sample(verts, k)
    return CapGraph(verts, edges, terms)


def gen_random_unit(n: int = 12, m: int = 20, k: int = 4, seed: int = 0) -> CapGraph:
    """Connected random unit multigraph; terminals are core vertices of
    arbitrary degree."""
    _need(n >= 2 and 0 <= k <= n, "random needs n >= 2 and 0 <= k <= n")
    rng = random.Random(seed)
    verts = list(range(1, n + 1))
    edges = []
    for i in range(2, n + 1):
        edges.append((rng.randint(1, i - 1), i, 1))
    while len(edges) < m:
        u, v = rng.sample(verts, 2)
        edges.append((u, v, 1))
    terms = rng.sample(verts, k)
    return CapGraph(verts, edges, terms)


_GENERATORS = {
    "dumbbell": gen_dumbbell,
    "grid": gen_grid,
    "regular": gen_regular,
    "welllinked": gen_welllinked,
    "chamber": gen_chamber,
    "capacitated": gen_capacitated,
    "random": gen_random_unit,
}
FAMILIES = tuple(_GENERATORS)


def generate(family: str, seed: int = 0, **kw) -> CapGraph:
    """The instance of `family` at `seed`; `kw` holds sizes the family takes,
    and any other size raises `InputError` naming the ones it takes."""
    if family not in _GENERATORS:
        raise InputError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    fn = _GENERATORS[family]
    sizes = [p for p in inspect.signature(fn).parameters if p != "seed"]
    extra = sorted(set(kw) - set(sizes))
    if extra:
        raise InputError(f"{family} takes sizes {', '.join(sizes)}, not {', '.join(extra)}")
    return fn(seed=seed, **kw)
