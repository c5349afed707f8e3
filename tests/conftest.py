import json
import math
import os
import random
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from basincycles import DEFAULT_SCALE, Energy, equivalence, load_landscape, make_landscape
from basincycles.energy import from_units, parse_exact
from basincycles.equivalence import ConditionRecord, EquivalenceReport
from basincycles.errors import (
    AsymmetricEdge,
    DisconnectedGraph,
    DuplicateState,
    MalformedInput,
    RowSumExceedsOne,
    ScaleOverflow,
    UnknownStateInEdge,
)
from basincycles.graphcycles import DecompositionTrace
from basincycles.landscape import exterior_boundary
from basincycles.pathcycles import enumerate_path_cycles, set_key

DATA = Path(__file__).parent / "data"
FIG1_PATH = DATA / "fig1.json"
SRC = Path(__file__).resolve().parents[1] / "src"

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


def floor_units(landscape, members):
    """The least energy units on the exterior boundary of ``members``;
    ``math.inf`` for the whole space."""
    return min(map(landscape.units, exterior_boundary(landscape, members)), default=math.inf)


def is_cycle(landscape, members):
    """The definition of a path cycle: a singleton, or one component whose
    maximum lies strictly below the floor of its exterior boundary."""
    members = frozenset(members)
    return len(members) == 1 or (
        len(components(landscape, members)) == 1
        and max(map(landscape.units, members)) < floor_units(landscape, members)
    )


def sublevel(landscape, start, level):
    """The component of ``start`` among the states at most ``level`` units."""
    below = [x for x in landscape.states if landscape.units(x) <= level]
    return frozenset(next(c for c in components(landscape, below) if start in c))


def metropolis_seed(landscape):
    """The Metropolis seed costs keyed by ordered name pair: the positive
    part of the climb along each edge, in both directions."""
    costs = {}
    for x, y in landscape.edge_pairs():
        hx, hy = landscape.units(x), landscape.units(y)
        costs[x, y] = Energy(max(0, hy - hx), landscape.scale)
        costs[y, x] = Energy(max(0, hx - hy), landscape.scale)
    return costs


def fresh_env() -> dict:
    """The environment for a fresh ``sys.executable`` that imports this
    checkout's package, with stdout block-buffered."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def ising_torus(rows: int, cols: int):
    """Single-spin-flip Ising on a ``rows`` x ``cols`` torus, both at least 3
    so that each site has four distinct neighbours, with J = 1 and h = 3/2:
    ``H(s) = -(J/2) sum_<xy> s_x s_y - (h/2) sum_x s_x``.  Both halves are
    whole quarters, so the landscape is at scale 4.  A state is its spins in
    row-major order as ``+`` and ``-``; each edge flips one spin and takes
    the default rate."""
    sites = rows * cols
    bonds = [(r * cols + c, r * cols + (c + 1) % cols) for r in range(rows) for c in range(cols)]
    bonds += [(r * cols + c, (r + 1) % rows * cols + c) for r in range(rows) for c in range(cols)]
    names = ["".join("+" if bits >> k & 1 else "-" for k in range(sites)) for bits in range(1 << sites)]
    energies = {}
    for bits, name in enumerate(names):
        spin = [1 if bits >> k & 1 else -1 for k in range(sites)]
        # quarters: -(1/2) s_x s_y is -2 s_x s_y, and -(3/4) s_x is -3 s_x
        units = -2 * sum(spin[x] * spin[y] for x, y in bonds) - 3 * sum(spin)
        energies[name] = Energy(units, 4)
    edges = [
        (name, names[bits | 1 << k])
        for bits, name in enumerate(names)
        for k in range(sites)
        if not bits >> k & 1
    ]
    return make_landscape(energies, edges, scale=4)


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


_REFERENCE_WHOLE = re.compile(r"\A[+-]?[0-9]+\Z")


def _reference_units(value, scale):
    """An energy entry's units at ``scale``, or ``math.inf``."""
    if isinstance(value, str):
        text = value.strip()
        if text == "inf":
            return math.inf
        if _REFERENCE_WHOLE.match(text):
            try:
                return int(text) * scale
            except ValueError as exc:  # past the int conversion digit limit
                raise MalformedInput(f"not an exact number: {text!r}") from exc
        frac = parse_exact(text) * scale
        if frac.denominator != 1:
            raise ScaleOverflow(f"{text!r} is not representable at scale {scale}")
        return int(frac)
    if isinstance(value, int) and not isinstance(value, bool):
        return value * scale
    raise MalformedInput(f"energies must be exact (string, int or Energy), got {value!r}")


def _reference_rate(value):
    if isinstance(value, str):
        return parse_exact(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise MalformedInput(f"rates must be exact (string, int or Fraction), got {value!r}")


def reference_landscape(text):
    """The landscape loader as it was before it stored int units: one
    ``Fraction`` per edge keyed by a ``frozenset`` pair, every row summed
    exactly.  Returns the parsed parts (``states`` in declaration order,
    ``units``, ``rates``, ``adjacency`` and the ``explicit`` pairs) or
    raises the exception the loader must raise, message included."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("top level must be an object")
    scale = doc.get("energy_scale", DEFAULT_SCALE)
    raw_states = doc.get("states")
    if not isinstance(raw_states, list):
        raise MalformedInput("missing or invalid 'states' list")
    state_items = []
    for entry in raw_states:
        if not isinstance(entry, dict) or "id" not in entry or "energy" not in entry:
            raise MalformedInput(f"state entries need 'id' and 'energy': {entry!r}")
        state_items.append((str(entry["id"]), entry["energy"]))
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise MalformedInput("'edges' must be a list")
    edge_specs = []
    for entry in raw_edges:
        if isinstance(entry, list) and len(entry) == 2:
            edge_specs.append((str(entry[0]), str(entry[1]), None))
        elif isinstance(entry, dict) and "pair" in entry:
            pair = entry["pair"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedInput(f"edge 'pair' must be a two-element list: {entry!r}")
            q = entry.get("q")
            q = None if q is None else _reference_rate(q)
            edge_specs.append((str(pair[0]), str(pair[1]), q))
        else:
            raise MalformedInput(f"unrecognized edge entry: {entry!r}")

    if not isinstance(scale, int) or isinstance(scale, bool) or scale <= 0:
        raise MalformedInput(f"energy_scale must be a positive integer, got {scale!r}")
    if not state_items:
        raise MalformedInput("landscape has no states")
    states = []
    units = {}
    for sid, value in state_items:
        if sid in units:
            raise DuplicateState(f"state {sid!r} declared twice")
        u = _reference_units(value, scale)
        if u == math.inf:
            raise MalformedInput(f"energy of {sid!r} must be finite")
        if abs(u) > 2**1000:
            raise MalformedInput(f"energy of {sid!r} is past 2**1000 units")
        states.append(sid)
        units[sid] = u

    explicit = {}
    defaulted = set()
    for x, y, q in edge_specs:
        for sid in (x, y):
            if sid not in units:
                raise UnknownStateInEdge(f"edge references unknown state {sid!r}")
        if x == y:
            raise MalformedInput(f"self-edge on {x!r}; the diagonal is implicit")
        pair = frozenset((x, y))
        if q is None:
            defaulted.add(pair)
            continue
        if q <= 0 or q > 1:
            raise MalformedInput(f"rate q({x},{y}) = {q} outside (0, 1]")
        if pair in explicit and explicit[pair] != q:
            raise AsymmetricEdge(
                f"conflicting rates for edge {x!r}-{y!r}: {explicit[pair]} vs {q}"
            )
        explicit[pair] = q
    for pair in defaulted & explicit.keys():
        raise AsymmetricEdge(
            f"edge {tuple(sorted(pair))} given both with and without a rate"
        )

    adjacency = {s: [] for s in states}
    for x, y in [*explicit, *defaulted]:
        adjacency[x].append(y)
        adjacency[y].append(x)
    max_degree = max(len(v) for v in adjacency.values())
    rates = dict(explicit)
    for pair in defaulted:
        rates[pair] = Fraction(1, max_degree)
    row = {s: [] for s in states}
    for pair, q in rates.items():
        for s in pair:
            row[s].append(q.as_integer_ratio())
    for s, parts in row.items():
        den = math.lcm(*(d for _, d in parts))
        total = sum(n * (den // d) for n, d in parts)
        if total > den:
            raise RowSumExceedsOne(f"outgoing rates of {s!r} sum to {Fraction(total, den)} > 1")

    seen = {states[0]}
    stack = [states[0]]
    while stack:
        for y in adjacency[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(states):
        missing = sorted(set(states) - seen)[:3]
        raise DisconnectedGraph(f"states unreachable from {states[0]!r}: {missing}...")

    return SimpleNamespace(
        states=tuple(states),
        scale=scale,
        units=units,
        rates=rates,
        adjacency={s: tuple(sorted(adjacency[s])) for s in states},
        explicit=frozenset(explicit),
    )


def reference_tree(landscape):
    """The path-cycle sweep as it was before it recorded int ids: a
    ``frozenset`` of state names and a sorted name tuple per node, built by a
    string-keyed union-find over the distinct energies.  Returns the nodes in
    tree order (size, then sorted members), each a namespace with
    ``members``, ``ground``, ``low``, ``high``, ``floor``, ``nontrivial``,
    ``parent`` (an index into the list, None for the root) and ``children``
    (indices, in the tree's child order)."""
    parent = {x: x for x in landscape.states}
    size = dict.fromkeys(parent, 1)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]

    def node(members, low, high, floor, ground, children=()):
        return SimpleNamespace(
            members=members, low=low, high=high, floor=floor, ground=ground,
            up=None, kids=list(children),
        )

    by_level = {}
    for s in landscape.states:
        by_level.setdefault(landscape.units(s), []).append(s)
    active = set()
    top = {}
    nodes = []
    for level in sorted(by_level):
        fresh = by_level[level]
        joined = {find(n) for s in fresh for n in landscape.neighbors(s) if n in active}
        joined.update(fresh)
        active.update(fresh)
        for s in fresh:
            floor = min(map(landscape.units, landscape.neighbors(s)), default=math.inf)
            leaf = frozenset((s,))
            top[s] = node(leaf, level, level, floor, leaf)
            nodes.append(top[s])
            for nbr in landscape.neighbors(s):
                if nbr in active:
                    union(s, nbr)
        groups = {}
        for old in joined:
            groups.setdefault(find(old), []).append(top.pop(old))
        for root, children in groups.items():
            top[root] = children[0]
            if len(children) > 1:
                low = min(c.low for c in children)
                members = frozenset().union(*(c.members for c in children))
                ground = frozenset().union(*(c.ground for c in children if c.low == low))
                merged = node(members, low, level, math.inf, ground, children)
                for child in children:
                    child.up = merged
                    if len(child.members) > 1:
                        child.floor = level
                top[root] = merged
                nodes.append(merged)

    keys = {id(n): tuple(sorted(n.members)) for n in nodes}
    nodes.sort(key=lambda n: (len(n.members), keys[id(n)]))
    index = {id(n): i for i, n in enumerate(nodes)}
    return [
        SimpleNamespace(
            members=n.members,
            ground=n.ground,
            low=n.low,
            high=n.high,
            floor=n.floor,
            nontrivial=n.high < n.floor,
            parent=None if n.up is None else index[id(n.up)],
            children=[index[id(c)] for c in sorted(n.kids, key=lambda c: keys[id(c)])],
        )
        for n in nodes
    ]


def _reference_conditions(landscape, trace, tree, path_sets):
    """Every round's conditions, compared on the round's slots and int units
    against the tree node of each class.  A class without a node is not a
    path cycle; the conditions that need its node skip it."""
    boundaries = {}  # cached per distinct big class
    single_slot = {next(iter(cls)): slot for slot, cls in trace.levels[0].members.items()}
    records = []
    for level in trace.levels:
        members, rows, lifts, exits = level.members, level.rows, level.lifts, level.exits
        nodes = {slot: tree.node(cls) for slot, cls in members.items() if cls in path_sets}

        costs_ok = True
        for big, node in nodes.items():
            cls = members[big]
            if len(cls) == 1:
                continue
            if cls not in boundaries:
                boundaries[cls] = exterior_boundary(landscape, cls)
            row, lift = rows.get(big, {}), lifts.get(big, 0)
            # the boundary holds exactly the states with a positive-rate edge
            # in; a singleton's slot is lifted by nothing
            for a in boundaries[cls]:
                single = single_slot[a]
                if len(members.get(single, ())) != 1:
                    continue  # a has merged
                if row.get(single, math.inf) + lift != landscape.units(a) - node.low:
                    costs_ok = False
                if rows.get(single, {}).get(big, math.inf) != 0:
                    costs_ok = False

        heights_ok = all(exits[slot] == max(n.floor - n.low, 0) for slot, n in nodes.items())

        merge_ok = all(
            height == nodes[slot].high - nodes[slot].low
            for slot, height in level.formed.items()
            if slot in nodes
        )

        records.append(
            ConditionRecord(
                iteration=level.index,
                classes_are_cycles=len(nodes) == len(members),
                boundary_costs_ok=costs_ok,
                exit_heights_ok=heights_ok,
                merge_heights_ok=merge_ok,
            )
        )
    return records


def retrace(trace, edit):
    """A fresh trace over ``trace``'s records once ``edit(trace)`` has edited
    them in place.  ``edit`` may read the honest views of ``trace`` first;
    every view of the fresh trace, ``levels`` included, is built from the
    edited records, so ``verify_equivalence``, which reads the records, and
    ``reference_verify``, which reads the replayed levels, see one edit."""
    edit(trace)
    return DecompositionTrace(trace.iterations, trace.scale, trace.records)


# tampers ``tamper(records, level, big, single)`` for the round that forms
# ``level``, a class slot and a singleton slot (``_fresh_with_single``); each
# edits the records that verify reads, not a view built from them


def _fresh_with_single(trace):
    """The first round that forms a non-singleton class with a singleton
    class on its boundary: (that round's level, the class's slot, the
    singleton's slot).  On fig1 this is round 1, {c,d,e,f} and {b}."""
    for level in trace.levels[1:]:
        formed = sorted(level.formed, key=lambda slot: level.keys[level.members[slot]])
        for big in (slot for slot in formed if len(level.members[slot]) > 1):
            for single in sorted(level.rows.get(big, ())):
                if len(level.members[single]) == 1:
                    return level, big, single
    raise AssertionError("no fresh class with a singleton neighbour")


def _group(records, index, host):
    """Round ``index``'s groups, the position among them of the group
    hosted at ``host``, and the id of the class that group forms."""
    groups = records.rounds[index - 1][0]
    k = next(k for k, group in enumerate(groups) if group[0] == host)
    earlier = sum(len(record[0]) for record in records.rounds[: index - 1])
    return groups, k, len(records.names) + earlier + k


def _bump_group(field):
    """A tamper that bumps one field of the picked class's group: 2 is the
    host's lift, 3 its exit height and 4 its merge height."""

    def bump(records, level, big, single):
        groups, k, _ = _group(records, level.index, big)
        group = list(groups[k])
        group[field] += 1
        groups[k] = tuple(group)

    return bump


_bump_exit, _bump_merge = _bump_group(3), _bump_group(4)


def _bump_cost(records, level, big, single):
    # one more edit in the round: the class's cost to the singleton, bumped
    records.rounds[level.index - 1][1].append((big, single, level.rows[big][single] + 1))


def _drop_from_last(state):
    """A tamper that drops the slot of ``state`` from the last round's
    group: that state's class lives on beside the rest of the space."""

    def drop(records, level, big, single):
        groups = records.rounds[-1][0]
        (host, slots, *heights), = groups
        slot = records.names.index(state)
        assert slot in slots and slot != host
        groups[0] = (host, [s for s in slots if s != slot], *heights)

    return drop


def reference_verify(landscape):
    """The verifier as it was when it compared member frozensets: every class
    of every round is looked up by its members in ``tree.node`` and every big
    class's boundary is rebuilt by ``exterior_boundary``.  It reads
    ``equivalence.run_decomposition`` when called, so a test that tampers with
    the trace's records there (``retrace``) reaches this verifier too."""
    tree = enumerate_path_cycles(landscape)
    trace = equivalence.run_decomposition(landscape)

    path_sets = tree.member_sets()
    graph_sets = frozenset(trace.cycles)
    graph_only = sorted(graph_sets - path_sets, key=set_key)
    path_only = sorted(path_sets - graph_sets, key=set_key)

    conditions = _reference_conditions(landscape, trace, tree, path_sets)

    he_violations = []
    hm_violations = []
    for cyc in trace.cycles:
        if cyc not in path_sets:
            continue  # listed in graph_only
        node = tree.node(cyc)
        expected = max(node.floor - node.low, 0)
        got = trace.exit_heights[cyc]
        if got.units != expected:
            he_violations.append((cyc, got, from_units(expected, landscape.scale)))
        # a singleton merges at its exit height
        expected_m = node.high - node.low if len(cyc) > 1 else expected
        got_m = trace.merge_heights[cyc]
        if got_m.units != expected_m:
            hm_violations.append((cyc, got_m, from_units(expected_m, landscape.scale)))

    return EquivalenceReport(
        set_equal=not graph_only and not path_only,
        graph_only=graph_only,
        path_only=path_only,
        he_violations=he_violations,
        hm_violations=hm_violations,
        conditions=conditions,
        cycle_count=len(trace.cycles),
    )


def dense_kernel(kern):
    """The kernel as an n x n matrix, read entry by entry from ``kern.prob``."""
    return np.array([[kern.prob(x, y) for y in kern.states] for x in kern.states])


def reference_jumps(landscape, beta):
    """The jump tables ``(leave, nbr, cdf)`` derived the dense way: fill an
    n x n Metropolis matrix from the energies and rates, then read each row's
    positive off-diagonal entries back out in row-major order with
    ``np.nonzero``.  Row ``i`` is the ``i``-th state by name, whatever the
    declaration order.  The kernel builder must match it bit for bit."""
    states = sorted(landscape.states)
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


def reference_first_hit(kernel, transient, origin, absorb, u_time, u_land, budget):
    """The inversion draw as ``simulate._first_hit`` made it when each call
    built its own law: ``Q``, ``R`` and every dyadic power are built from
    ``kernel`` for this call, the diagonals are set with
    ``np.fill_diagonal``, and the budget is tested inside the descent, so a
    row takes step ``2^k`` only while it fits.  ``transient`` is
    ``simulate._transient(nbr, origin, absorb)``.  The sampler must return
    the same ``(t, landed)`` bit for bit.
    """
    leave, nbr, _ = kernel.jumps()
    off = kernel._off
    pos = {x: a for a, x in enumerate(transient)}
    exits = sorted({y for x in transient for y in nbr[x].tolist() if absorb[y]})
    col = {y: b for b, y in enumerate(exits)}
    Q = np.zeros((len(transient), len(transient)))
    R = np.zeros((len(transient), len(exits)))
    for x in transient:
        a = pos[x]
        Q[a, a] = 1.0 - leave[x]
        for y in set(nbr[x].tolist()) - {x}:
            p = off[x, y]
            if absorb[y]:
                R[a, col[y]] = p
            else:
                Q[a, pos[y]] = p

    levels = int(budget.max()).bit_length()
    hits, powers = [R.sum(axis=1)], [Q]
    for _ in range(1, levels):
        M, h = powers[-1], hits[-1]
        hits.append(h + M @ h)
        M = M @ M
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(M, np.maximum(1.0 - (M.sum(axis=1) + hits[-1]), 0.0))
        powers.append(M)

    t = np.zeros(u_time.size, dtype=np.int64)
    cdf = np.zeros(u_time.size)
    mass = np.zeros((u_time.size, len(transient)))
    mass[:, pos[origin]] = 1.0
    for k in range(levels - 1, -1, -1):
        ahead = cdf + mass @ hits[k]
        go = ((1 << k) <= budget - t) & (ahead < u_time)
        if go.any():
            mass[go] = mass[go] @ powers[k]
            cdf[go] = ahead[go]
            t[go] += 1 << k

    landed = np.full(u_time.size, -1, dtype=np.intp)
    hit = t < budget
    if hit.any():
        weight = np.cumsum(mass[hit] @ R, axis=1)
        pick = (weight < u_land[hit, None] * weight[:, -1:]).sum(axis=1)
        landed[hit] = np.array(exits)[np.minimum(pick, len(exits) - 1)]
    return t, landed


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
