import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from basincycles import DEFAULT_SCALE, load_landscape, make_landscape

DATA = Path(__file__).parent / "data"
FIG1_PATH = DATA / "fig1.json"

# the 11-state chain fixture: energies a..k = 2,5,1,2,2,2,4,3,0,1,5
FIG1_ENERGIES = dict(zip("abcdefghijk", [2, 5, 1, 2, 2, 2, 4, 3, 0, 1, 5]))
FIG1_EDGES = list(zip("abcdefghij", "bcdefghijk"))


@pytest.fixture(scope="session")
def fig1():
    return load_landscape(FIG1_PATH.read_text())


@pytest.fixture(scope="session")
def two_state():
    return make_landscape({"x": 0, "y": 1}, [("x", "y", "0.5")])


def make_fig1_shuffled(rng):
    """Same landscape as fig1, states and edges in a random order."""
    order = list(FIG1_ENERGIES)
    rng.shuffle(order)
    edges = list(FIG1_EDGES)
    rng.shuffle(edges)
    edges = [(y, x) if rng.random() < 0.5 else (x, y) for x, y in edges]
    return make_landscape([(s, FIG1_ENERGIES[s]) for s in order], edges)


def draw_landscape(data, scale=DEFAULT_SCALE):
    """A connected landscape on 2-8 states with energies 0..6 (whole units):
    a random spanning tree plus up to 12 extra edges."""
    n = data.draw(st.integers(2, 8))
    energies = data.draw(
        st.lists(st.integers(0, 6), min_size=n, max_size=n), label="energies"
    )
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
        ),
        label="extra-edges",
    )
    ids = [f"s{i}" for i in range(n)]
    edges = {frozenset((ids[i], ids[p])) for i, p in enumerate(parents, start=1)}
    edges.update(frozenset((ids[a], ids[b])) for a, b in extra if a != b)
    return make_landscape(
        {ids[i]: energies[i] for i in range(n)},
        sorted(tuple(sorted(e)) for e in edges),
        scale,
    )


def components(landscape, members):
    """The connected components of ``members`` in the positive-rate graph,
    by union-find over the edge list: a reference that shares no code with
    the package's graph walk."""
    parent = {x: x for x in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in landscape.edge_pairs():
        if x in parent and y in parent:
            parent[find(x)] = find(y)
    groups = {}
    for x in members:
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def grid_text(side: int, max_energy: int, seed: int) -> str:
    """A side x side 4-neighbour grid with integer energies uniform in
    0..max_energy, drawn row by row from ``random.Random(seed)``; one state
    and one edge per line."""
    rng = random.Random(seed)
    ids = [[f"r{r}c{c}" for c in range(side)] for r in range(side)]
    states = [
        {"id": ids[r][c], "energy": str(rng.randint(0, max_energy))}
        for r in range(side)
        for c in range(side)
    ]
    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append([ids[r][c], ids[r][c + 1]])
            if r + 1 < side:
                edges.append([ids[r][c], ids[r + 1][c]])
    lines = ['{', '  "energy_scale": 1000000,', '  "states": [']
    lines.append(",\n".join(f"    {json.dumps(s)}" for s in states))
    lines.append("  ],")
    lines.append('  "edges": [')
    lines.append(",\n".join(f"    {json.dumps(e)}" for e in edges))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dense_kernel(kern):
    """The kernel as an n x n matrix, read entry by entry from ``kern.prob``."""
    return np.array([[kern.prob(x, y) for y in kern.states] for x in kern.states])


def reference_jumps(landscape, beta):
    """The jump tables ``(leave, nbr, cdf)`` derived the dense way: fill an
    n x n Metropolis matrix from the energies and rates, then read each row's
    positive off-diagonal entries back out in row-major order with
    ``np.nonzero``.  The kernel builder must match it bit for bit."""
    states = landscape.states
    n = len(states)
    matrix = np.zeros((n, n))
    for i, x in enumerate(states):
        for y in landscape.neighbors(x):
            climb = max(0, landscape.energy(y).units - landscape.energy(x).units)
            p = float(landscape.rate(x, y)) * math.exp(-beta * (climb / landscape.scale))
            matrix[i, states.index(y)] = p
    positive = matrix > 0
    np.fill_diagonal(positive, False)
    rows, cols = np.nonzero(positive)
    prob = matrix[rows, cols]
    degree = np.bincount(rows, minlength=n)
    ends = np.cumsum(degree)
    slot = np.arange(rows.size) - np.repeat(ends - degree, degree)
    last = np.arange(n)
    some = degree > 0
    last[some] = cols[ends[some] - 1]
    width = max(1, int(degree.max()))
    nbr = np.repeat(last[:, None], width, axis=1)
    nbr[rows, slot] = cols
    leave = np.minimum(np.bincount(rows, weights=prob, minlength=n), 1.0)
    mass = np.zeros((n, width))
    mass[rows, slot] = prob
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.cumsum(mass, axis=1) / leave[:, None]
    cdf[np.arange(width) >= (degree - 1)[:, None]] = 1.0
    return leave, nbr, cdf


def ks_two_sample(a, b):
    """The two-sample Kolmogorov-Smirnov statistic of ``a`` and ``b`` and its
    asymptotic p-value: Kolmogorov's series at Stephens' corrected
    ``(sqrt(n) + 0.12 + 0.11 / sqrt(n)) * D``.  Ties (integer times) only
    make it conservative."""
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    d = float(
        np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / a.size
                - np.searchsorted(b, grid, side="right") / b.size
            )
        )
    )
    n = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    if lam < 0.2:
        return d, 1.0
    p = 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * lam * lam) for k in range(1, 101))
    return d, min(max(p, 0.0), 1.0)
