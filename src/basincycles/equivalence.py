"""Cross-validation of the two cycle decompositions.

For a valid landscape with the Metropolis seed, the family of graph cycles
must equal the family of path cycles, the exit height of every cycle must
equal its boundary depth clamped at zero, and the merge height of every
non-singleton must equal its internal height.  ``verify_equivalence`` checks
that, and each round's structural conditions in the int units the round
stores, against the sweep's cycle tree on node ids.  A set is a path cycle
exactly when it is a node: when its states' positions in the tree's
depth-first leaf order fill one node's ``lo:hi`` slice.  Each class is
resolved to its node id once, when the class object first appears in a
slot, and the node's ``low``, ``high`` and ``floor`` give its heights.
Each round carries what did not change from the round before: the slot ->
node map, each big node's boundary (state ids, built from its children's)
and the cost pairs that fail.  No ``CycleNode``, member index or boundary
scan by member set is built; frozensets and ``Energy`` are built only for a
report entry.

The tests keep the check independent: they hold the tree to the definitions
and to ``brute_force_path_cycles``, an exhaustive bitmask scan over
connected subsets that shares no code with the sweep enumeration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType

from .energy import Energy, from_units
from .errors import TooLarge
from .graphcycles import DecompositionTrace, run_decomposition
from .landscape import Landscape, StateSet, make_landscape
from .pathcycles import CycleTree, enumerate_path_cycles, set_key

_BRUTE_FORCE_LIMIT = 20
_NO_ROW = MappingProxyType({})  # stand-ins for a missing row and an empty boundary
_NO_EDGE = frozenset()


def brute_force_path_cycles(landscape: Landscape) -> set[StateSet]:
    """Exhaustive oracle: every connected subset whose internal maximum lies
    strictly below its boundary floor, plus all singletons.

    Deliberately re-derives connectivity and boundaries from bitmasks so that
    it shares nothing with the sweep algorithm.
    """
    n = landscape.n
    if n > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} states exceeds the exhaustive-scan guard")
    states = sorted(landscape.states)
    pos = {s: i for i, s in enumerate(states)}
    energies = [landscape.units(s) for s in states]
    nbr_mask = [0] * n
    for s in states:
        for t in landscape.neighbors(s):
            nbr_mask[pos[s]] |= 1 << pos[t]

    found: set[StateSet] = set()
    for mask in range(1, 1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        if len(bits) == 1:
            found.add(frozenset((states[bits[0]],)))
            continue
        # connectivity by flood fill inside the mask
        reached = 1 << bits[0]
        frontier = reached
        while frontier:
            grow = 0
            f = frontier
            while f:
                i = (f & -f).bit_length() - 1
                f &= f - 1
                grow |= nbr_mask[i] & mask
            frontier = grow & ~reached
            reached |= grow
        if reached != mask:
            continue
        inner_max = max(energies[i] for i in bits)
        outside = 0
        for i in bits:
            outside |= nbr_mask[i] & ~mask
        ok = True
        while outside:
            i = (outside & -outside).bit_length() - 1
            outside &= outside - 1
            if energies[i] <= inner_max:
                ok = False
                break
        if ok:
            found.add(frozenset(states[i] for i in bits))
    return found


def random_landscape(
    seed=None,
    min_states: int = 2,
    max_states: int = 10,
    max_energy: int = 6,
    extra_edge_prob: float = 0.25,
) -> Landscape:
    """A random connected landscape: spanning tree plus extra edges, with
    small-integer energies so plateaus and exact ties occur constantly."""
    rng = random.Random(seed)
    n = rng.randint(min_states, max_states)
    ids = [f"s{i}" for i in range(n)]
    energies = {sid: rng.randint(0, max_energy) for sid in ids}
    edges = {frozenset((ids[i], ids[rng.randrange(i)])) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add(frozenset((ids[i], ids[j])))
    order = list(ids)
    rng.shuffle(order)
    edge_list = sorted(tuple(sorted(e)) for e in edges)
    rng.shuffle(edge_list)
    return make_landscape([(sid, energies[sid]) for sid in order], edge_list)


@dataclass
class ConditionRecord:
    """Pass/fail of the per-round structural conditions.

    ``classes_are_cycles``: every class is a path cycle.
    ``boundary_costs_ok``: for a non-singleton class connected to a singleton
    class, the cost out equals the climb from the class floor and the cost in
    is zero.  ``exit_heights_ok``: exit height equals boundary depth clamped
    at zero.  ``merge_heights_ok``: freshly merged classes carry their
    internal height.

    The conditions are read on tree node ids: a class is the node whose leaf
    slice its states fill, resolved when the class object first appears in a
    slot.  Exit heights are compared on every slot of every round and merge
    heights on the slots the round formed.  A big class's cost pairs are read
    again only when its class, row or lift object changed, or when a
    boundary singleton's row changed or it merged; every other pair carries
    its result from the round before.
    """

    iteration: int
    classes_are_cycles: bool
    boundary_costs_ok: bool
    exit_heights_ok: bool
    merge_heights_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.classes_are_cycles
            and self.boundary_costs_ok
            and self.exit_heights_ok
            and self.merge_heights_ok
        )


@dataclass
class EquivalenceReport:
    """Outcome of the cross-validation on one landscape.  Violations are
    collected exhaustively rather than failing fast."""

    set_equal: bool
    graph_only: list[StateSet]
    path_only: list[StateSet]
    he_violations: list[tuple[StateSet, Energy, Energy]]
    hm_violations: list[tuple[StateSet, Energy, Energy]]
    conditions: list[ConditionRecord] = field(default_factory=list)
    cycle_count: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.set_equal
            and not self.he_violations
            and not self.hm_violations
            and all(record.ok for record in self.conditions)
        )


def _resolver(tree: CycleTree):
    """``resolve(cls, near)``: the node id of the class ``cls``, or None when
    it is no path cycle.  The class is node v when its states' positions in
    ``tree.leaves`` fill exactly v's ``lo:hi`` slice; v is then the ancestor
    of ``near`` (a node inside that slice, else its first leaf) of that size.
    Each class is resolved once."""
    lo, hi, parent, leaves = tree.lo, tree.hi, tree.parent, tree.leaves
    position = dict(zip(tree.names, lo))  # a leaf's id is its state's
    found: dict = {}

    def resolve(cls, near=None):
        v = found.get(cls, found)
        if v is not found:
            return v
        v = None
        if len(cls) == 1:
            for x in cls:
                v = found[cls] = leaves[position[x]] if x in position else None
            return v
        try:
            at = list(map(position.__getitem__, cls))
        except KeyError:  # a state the landscape lacks
            at = ()
        size = len(at)
        if size and max(at) - (first := min(at)) + 1 == size:
            if near is None or lo[near] < first or hi[near] > first + size:
                near = leaves[first]
            while hi[near] - lo[near] < size:
                near = parent[near]
            if lo[near] == first and hi[near] == first + size:
                v = near
        found[cls] = v
        return v

    return resolve


def _check_rounds(
    landscape: Landscape, trace: DecompositionTrace, tree: CycleTree, resolve
) -> list[ConditionRecord]:
    """Every round's conditions, on the round's slots and int units against
    the tree node id of each class.  A class without a node is not a path
    cycle; the conditions that need its node skip it.

    Each round carries what the round before left as it was: the slot ->
    node map, each big node's boundary (state ids, built from its
    children's) and the failing (big slot, boundary singleton) cost pairs.
    One pass over the last round's slots finds those whose class, row or
    lift object changed.  A big slot with a new class or lift reads all its
    pairs.  A big slot's changed row is read at the entries that changed, a
    singleton's at the entries of its old row; a failing pair is read every
    round."""
    units, adjacency = landscape.numbering()[2:]
    n = len(units)
    low, high, floor, children, lo, hi = tree.low, tree.high, tree.floor, tree.children, tree.lo, tree.hi
    leaves = tree.leaves
    bounds: dict = {}  # node -> its boundary, until its parent's is built

    def boundary(v):
        """v's boundary: its children's, which were classes before v, less
        v's own states; from v's leaves when the trace skipped a child."""
        edge = bounds.get(v)
        if edge is None:
            first, end = lo[v], hi[v]
            if end - first == n:  # the whole space
                return _NO_EDGE
            try:
                kids = [adjacency[c] if c < n else bounds.pop(c) for c in children[v]]
            except KeyError:
                kids = map(adjacency.__getitem__, leaves[first:end])
            edge = bounds[v] = {a for kid in kids for a in kid if not first <= lo[a] < end}
        return edge

    def boundary_slots(v):
        """v's boundary as the first round's singleton slots."""
        return boundary(v) if into is None else {into[a] for a in boundary(v)}

    def fails(big, v, a):
        # the boundary holds exactly the states with a positive-rate edge in;
        # a singleton's slot is lifted by nothing
        return a in singles and (
            rows.get(big, _NO_ROW).get(a, math.inf) + lifts.get(big, 0) != unit[a] - low[v]
            or rows.get(a, _NO_ROW).get(big, math.inf) != 0
        )

    def recheck(big, a):
        """Re-read the pair (big, a) of a big slot with ``a`` on its boundary."""
        bad = failing.setdefault(big, set())
        if fails(big, checked[big][0], a):
            bad.add(a)
        else:
            bad.discard(a)
            if not bad:
                del failing[big]

    node_of: dict = {}  # slot -> node id, for the slots whose class is a node
    expect: dict = {}  # slot -> the node's exit height, on the same slots
    singles: set = set()  # the slots whose class is a singleton
    checked: dict = {}  # big slot -> (node, boundary) its pairs were read at
    failing: dict = {}  # big slot -> its failing boundary states, when any
    members = rows = lifts = {}
    # a boundary state is read at the slot of its singleton in the first
    # round, which is its own id when that round is the numbering's
    first, unit, into = trace.levels[0].members, units, None
    if first != {i: frozenset((x,)) for i, x in enumerate(tree.names)}:
        single_slot = {next(iter(cls)): slot for slot, cls in first.items()}
        into = {i: single_slot[x] for i, x in enumerate(tree.names) if x in single_slot}
        unit = {slot: units[i] for i, slot in into.items()}
    records = []
    for level in trace.levels:
        old_members, old_rows, old_lifts = members, rows, lifts
        members, rows, lifts, exits = level.members, level.rows, level.lifts, level.exits
        full = set()  # the big slots whose every pair is read this round
        moved = []  # the slots that hold a new class
        rowed = []  # the slots whose row object changed
        gone = 0
        for slot, was in old_members.items():
            cls = members.get(slot)
            if cls is None:  # merged into another slot
                gone += 1
                singles.discard(slot)
                if node_of.pop(slot, None) is not None:
                    del expect[slot]
                if slot in checked:
                    full.add(slot)
                continue
            if cls is not was:
                moved.append(slot)
            elif slot in checked and lifts.get(slot, 0) != old_lifts.get(slot, 0):
                full.add(slot)
            if rows.get(slot) is not old_rows.get(slot):
                rowed.append(slot)
        if len(members) != len(old_members) - gone:  # slots the last round lacked
            new = [slot for slot in members if slot not in old_members]
            moved += new
            rowed += new
        alone = []  # the slots that became singletons
        for slot in moved:
            cls = members[slot]
            v = resolve(cls, node_of.get(slot))
            if v is None:
                if node_of.pop(slot, None) is not None:
                    del expect[slot]
            else:
                node_of[slot] = v
                expect[slot] = max(floor[v] - low[v], 0)
            if (v is not None and v >= n) or slot in checked:
                full.add(slot)
            if len(cls) != 1:
                singles.discard(slot)
            elif slot not in singles:
                singles.add(slot)
                alone.append(slot)

        for slot in full:
            v = node_of.get(slot, -1)
            if v < n:  # no longer a big node
                checked.pop(slot, None)
                failing.pop(slot, None)
                continue
            old = checked.get(slot, (None,))
            edge = old[1] if old[0] == v else boundary_slots(v)
            checked[slot] = v, edge
            bad = {a for a in edge if fails(slot, v, a)}
            if bad:
                failing[slot] = bad
            else:
                failing.pop(slot, None)

        if checked:  # what changed under the pairs read before
            for a in rowed:  # a pair reads its big slot's row and its singleton's at one entry
                if a in singles:  # a pair that held read an entry of the old row
                    for b in old_rows.get(a, _NO_ROW):
                        if b in checked and b not in full and a in checked[b][1]:
                            recheck(b, a)
                elif a in checked and a not in full:
                    edge = checked[a][1]
                    for b, _ in rows.get(a, _NO_ROW).items() ^ old_rows.get(a, _NO_ROW).items():
                        if b in edge:
                            recheck(a, b)
            for a in alone:
                for big, (_, edge) in checked.items():
                    if big not in full and a in edge:
                        recheck(big, a)
            if failing:  # a failing pair is read every round
                for big in [big for big in failing if big not in full]:
                    for a in list(failing[big]):
                        recheck(big, a)

        heights_ok = exits == expect or all(exits[slot] == h for slot, h in expect.items())
        merge_ok = True
        for slot, height in level.formed.items():
            v = node_of.get(slot)
            if v is not None and height != high[v] - low[v]:
                merge_ok = False
        records.append(
            ConditionRecord(
                iteration=level.index,
                classes_are_cycles=len(node_of) == len(members),
                boundary_costs_ok=not failing,
                exit_heights_ok=heights_ok,
                merge_heights_ok=merge_ok,
            )
        )
    return records


def verify_equivalence(landscape: Landscape) -> EquivalenceReport:
    """Compare the two cycle families and their height functionals on one
    landscape (Metropolis seed)."""
    tree = enumerate_path_cycles(landscape)
    trace = run_decomposition(landscape)
    resolve = _resolver(tree)

    conditions = _check_rounds(landscape, trace, tree, resolve)

    n, floor, low, high = landscape.n, tree.floor, tree.low, tree.high
    exit_heights, merge_heights = trace.exit_heights, trace.merge_heights
    he_violations = []
    hm_violations = []
    hit = set()
    graph_only = []
    for cyc in trace.cycles:
        v = resolve(cyc)
        if v is None:
            graph_only.append(cyc)
            continue
        hit.add(v)
        expected = max(floor[v] - low[v], 0)
        got = exit_heights[cyc]
        if got.units != expected:
            he_violations.append((cyc, got, from_units(expected, landscape.scale)))
        # a singleton merges at its exit height
        expected_m = high[v] - low[v] if v >= n else expected
        got_m = merge_heights[cyc]
        if got_m.units != expected_m:
            hm_violations.append((cyc, got_m, from_units(expected_m, landscape.scale)))
    graph_only = sorted(set(graph_only), key=set_key)
    path_only = []
    if len(hit) < len(tree):
        names, leaves, lo, hi = tree.names, tree.leaves, tree.lo, tree.hi
        for v in range(len(tree)):
            if v not in hit:
                path_only.append(frozenset(names[i] for i in leaves[lo[v] : hi[v]]))
        path_only.sort(key=set_key)

    return EquivalenceReport(
        set_equal=not graph_only and not path_only,
        graph_only=graph_only,
        path_only=path_only,
        he_violations=he_violations,
        hm_violations=hm_violations,
        conditions=conditions,
        cycle_count=len(trace.cycles),
    )


def report_to_dict(report: EquivalenceReport) -> dict:
    def sets(items):
        return [list(set_key(s)) for s in items]

    def violations(items):
        return [{"cycle": list(set_key(c)), "got": str(g), "expected": str(e)} for c, g, e in items]

    return {
        "cycles": report.cycle_count,
        "set_equal": report.set_equal,
        "graph_only": sets(report.graph_only),
        "path_only": sets(report.path_only),
        "he_violations": violations(report.he_violations),
        "hm_violations": violations(report.hm_violations),
        "conditions": [
            {
                "iteration": r.iteration,
                "classes_are_cycles": r.classes_are_cycles,
                "boundary_costs_ok": r.boundary_costs_ok,
                "exit_heights_ok": r.exit_heights_ok,
                "merge_heights_ok": r.merge_heights_ok,
            }
            for r in report.conditions
        ],
        "ok": report.ok,
    }
