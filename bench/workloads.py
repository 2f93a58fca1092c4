"""Seeded benchmark workloads.

Each workload is a list of instances: an input graph plus the `vsp build`
flags to use on it.  Everything that varies is drawn from the benchmark seed,
so the same seed gives the same graphs; the program only ever sees the graph
files.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from vsp import gen
from vsp.graph import CapGraph

CUT_TERMINAL_DEGREE_MAX = 11  # keeps the exact sparsest-cut enumeration small

# (family, parameters, instances): the families of the acceptance cut corpus.
# The random family is kept small because its terminals have arbitrary degree
# and a heavy-tailed build time, which would make totals swing between seeds.
CUT_SPECS = (
    ("grid", dict(rows=4, cols=5, k=6), 20),
    ("grid", dict(rows=3, cols=4, k=5), 20),
    ("regular", dict(n=30, d=3, k=6), 20),
    ("regular", dict(n=32, d=3, k=5), 20),
    ("dumbbell", dict(k=6, side=5), 20),
    ("dumbbell", dict(k=8, side=4), 20),
    ("welllinked", dict(n=12, k=8), 20),
    ("welllinked", dict(n=10, k=5), 20),
    ("random", dict(n=16, m=22, k=4), 20),
    ("random", dict(n=14, m=18, k=4), 20),
)
CUT_CAPACITATED = 8  # gen_capacitated(n=10, k=4) built through --eps 1/2

# The fixed instances below do not follow the seed.  Capacitated flow
# instances drawn per seed move quality_max (1.0 to 1.8) and steiner_nodes
# (1 to 4 each) by more than any useful bound, and gen_chamber seeds other
# than the three the acceptance suite uses are not known to finish.
FLOW_CAPACITATED_SEEDS = (0, 1)
CHAMBER_SEEDS = (5, 6, 7)

# ((vertices, terminals), graphs) for flow_router
ROUTER_MIX = (((7, 4), 2), ((8, 4), 5))

AGGRESSIVE = ("--profile", "aggressive")


@dataclass(frozen=True)
class Instance:
    name: str
    graph: CapGraph
    mode: str  # "cut" | "flow"
    build_flags: tuple[str, ...] = ()


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cut_corpus(seed: int) -> list[Instance]:
    rng = _rng(seed, "cut_corpus")
    out = []
    for family, params, count in CUT_SPECS:
        for i in range(count):
            while True:
                g = gen.generate(family, seed=rng.randrange(1 << 30), **params)
                if g.total_terminal_degree() <= CUT_TERMINAL_DEGREE_MAX:
                    break
            out.append(Instance(f"{family}-k{params['k']}-{i}", g, "cut"))
    for i in range(CUT_CAPACITATED):
        g = gen.gen_capacitated(n=10, k=4, seed=rng.randrange(1 << 30))
        out.append(Instance(f"capacitated-{i}", g, "cut", ("--eps", "1/2")))
    return out


def router_graph(seed: int) -> CapGraph:
    """The acceptance suite's flow-router recipe: a random unit graph on 7-10
    vertices with 4-5 degree-1 terminals."""
    rng = random.Random(seed)
    n = rng.randint(7, 10)
    edges = [(i, i + 1, 1) for i in range(1, n)]
    for _ in range(n):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.append((u, v, 1))
    k = rng.randint(4, 5)
    terms = []
    for i, h in enumerate(rng.sample(range(1, n + 1), k)):
        terms.append(500 + i)
        edges.append((h, 500 + i, 1))
    return CapGraph(list(range(1, n + 1)) + terms, edges, terms)


def flow_router(seed: int) -> list[Instance]:
    """Recipe graphs in a fixed mix of sizes: LP sizes follow the vertex and
    terminal counts, so fixing the mix keeps the total work close from seed
    to seed.  Two graphs with n = 7 and five with n = 8, all with 4
    terminals: of the recipe's sizes, n = 8 varied least in time from graph
    to graph.  Larger graphs and 5-terminal graphs are left out because
    their time per graph varies by up to 1.8x, which would dominate the
    spread between seeds."""
    rng = _rng(seed, "flow_router")
    out = []
    for (n, k), count in ROUTER_MIX:
        for i in range(count):
            while True:
                g = router_graph(rng.randrange(1 << 30))
                if (g.n - g.k, g.k) == (n, k):
                    break
            out.append(Instance(f"router-n{n}-k{k}-{i}", g, "flow", AGGRESSIVE))
    for s in FLOW_CAPACITATED_SEEDS:
        g = gen.gen_capacitated(n=8, k=3, seed=s)
        out.append(Instance(f"capacitated-{s}", g, "flow", AGGRESSIVE + ("--eps", "1/2")))
    return out


def large_mixed(seed: int) -> list[Instance]:
    rng = _rng(seed, "large_mixed")
    out = [
        Instance("grid20-cut", gen.gen_grid(20, 20, k=8, seed=rng.randrange(1 << 30)), "cut"),
        Instance("grid10-flow", gen.gen_grid(10, 10, k=8, seed=rng.randrange(1 << 30)), "flow"),
    ]
    for s in CHAMBER_SEEDS:
        out.append(Instance(f"chamber-{s}", gen.gen_chamber(seed=s), "flow",
                            AGGRESSIVE + ("--no-precheck",)))
    return out


WORKLOADS = {
    "cut_corpus": cut_corpus,
    "flow_router": flow_router,
    "large_mixed": large_mixed,
}
