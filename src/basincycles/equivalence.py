"""Cross-validation of the two cycle decompositions.

For a valid landscape with the Metropolis seed, the family of graph cycles
must equal the family of path cycles, the exit height of every cycle must
equal its boundary depth clamped at zero, and the merge height of every
non-singleton must equal its internal height.  ``verify_equivalence`` checks
that, and each round's structural conditions in the int units the round
stores, against the sweep's cycle tree on node ids.  It reads the run's
change records, not the replayed levels: one live round state (slot -> row,
lift, exit and class id) takes each round's record, its edits applied in
place, and that round's checks visit only the record's groups and the pairs
its edits touched.  A set is a path cycle exactly when it is a node: when
its states' positions in the tree's depth-first leaf order fill one node's
``lo:hi`` slice.  Each class id is resolved to its node once, when it
forms, from its constituents' nodes and its size, and the node's ``low``,
``high`` and ``floor`` give its heights.
The state carries a count of the exits that are not their node's, a count
of the classes with no node, each big node's boundary (state ids, built from
its children's) and the cost pairs that fail.  No level, class frozenset,
``CycleNode``, member index or boundary scan by member set is built;
frozensets and ``Energy`` are built only for a report entry.

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
from .graphcycles import RunRecords, run_decomposition
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

    The conditions are read on tree node ids, from the run's change records:
    a class is the node whose leaf slice its states fill, resolved when the
    class forms.  Each slot's exit height is compared when its class forms,
    and a count of the live mismatches is kept; merge heights are compared
    on the classes the round formed.  A big class's cost pairs are read
    again only when the class re-forms or an edit touches the pair, on the
    class's row at the singleton or on the singleton's row at the class,
    and a failing pair every round; every other pair carries its result
    from the round before.
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


def _positions(c: int, node: list, parts: dict, tree: CycleTree) -> list[int]:
    """The leaf positions of class ``c``'s states: a class with a tree node
    is that node's ``lo:hi`` slice, and one without is its constituents'."""
    lo, hi = tree.lo, tree.hi
    out, todo = [], [c]
    while todo:
        k = todo.pop()
        v = node[k]
        if v is None:
            todo += parts[k]
        else:
            out += range(lo[v], hi[v])
    return out


def _resolve(ids: list, size: int, node: list, parts: dict, tree: CycleTree):
    """The tree node of the class formed from the classes ``ids``, of
    ``size`` states, or None when it is no path cycle: the ancestor of
    ``size`` leaves of the first constituent, when it holds every
    constituent.  When a constituent is no node, the class's leaf positions
    must make one run, and the ancestor must hold its first and last
    leaves."""
    lo, hi, parent = tree.lo, tree.hi, tree.parent
    kids = list(map(node.__getitem__, ids))
    if None in kids:
        at = [p for k in ids for p in _positions(k, node, parts, tree)]
        first, last = min(at), max(at)
        if last - first + 1 != size:
            return None
        kids = [tree.leaves[first], tree.leaves[last]]
    v = kids[0]
    while hi[v] - lo[v] < size:
        v = parent[v]
    if hi[v] - lo[v] == size and all(lo[v] <= lo[k] and hi[k] <= hi[v] for k in kids):
        return v
    return None


def _check_rounds(landscape: Landscape, records: RunRecords, tree: CycleTree) -> tuple:
    """Every round's conditions, on one live round state: slot -> row, lift,
    exit and class id.  Each change record is applied to it as
    ``graphcycles._patch`` applies it to a level, but in place, on round
    0's rows and exits, and with no member set; the checks then visit only
    the record's groups and the pairs its edits touched.  Each group joins
    at least two live slots, its host among them, as ``graphcycles._round``
    makes them.

    A formed class is resolved to its tree node once, when it forms.  The
    state keeps counts of the live slots whose exit is not their node's
    and of the live classes with no node, the big slots' boundaries (state
    ids, built from their children's) and the failing (big slot, boundary
    singleton) cost pairs.  A re-formed big slot reads all its pairs.  An
    edit re-reads the one pair it touches: ``(b, a)`` for an edit on
    singleton ``a``'s row at a checked big slot ``b``, and ``(a, b)`` for an
    edit on big slot ``a``'s row at a state ``b`` on its boundary.  A
    failing pair is read every round.

    Consumes ``records.start``: its rows and exits become the live state
    and are left at the last round's, so the run's levels can no longer be
    replayed from ``records``.  ``verify_equivalence`` owns its run.

    Returns the conditions, each class id's node (None when the class is no
    path cycle) and the constituents of each class without a node."""
    units, adjacency = landscape.numbering()[2:]
    n = len(units)
    low, high, floor, children, lo, hi = tree.low, tree.high, tree.floor, tree.children, tree.lo, tree.hi
    leaves = tree.leaves
    bounds: dict = {}  # node -> its boundary, until its parent's is built

    def boundary(v):
        """v's boundary: its children's, which were classes before v, less
        v's own states; from v's leaves when the trace skipped a child."""
        first, end = lo[v], hi[v]
        if end - first == n:  # the whole space
            return _NO_EDGE
        try:
            kids = [adjacency[c] if c < n else bounds.pop(c) for c in children[v]]
        except KeyError:
            kids = map(adjacency.__getitem__, leaves[first:end])
        edge = bounds[v] = {a for kid in kids for a in kid if not first <= lo[a] < end}
        return edge

    def fails(big, v, a):
        # the boundary holds exactly the states with a positive-rate edge in;
        # a state's slot is its id, and a singleton's slot is lifted by nothing
        return a in singles and (
            rows.get(big, _NO_ROW).get(a, math.inf) + lifts.get(big, 0) != units[a] - low[v]
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

    rows, exits = records.start
    lifts: dict = {}
    cls = list(range(n))  # slot -> the id of its class, for the live slots
    node = list(range(n))  # class id -> its tree node; leaf i is state i
    size = [1] * n
    parts: dict = {}  # class id -> its constituents, for the classes without a node
    singles = set(cls)  # the live slots whose class is a singleton
    checked: dict = {}  # big slot -> (node, boundary) its pairs were read at
    failing: dict = {}  # big slot -> its failing boundary states, when any
    wrong = sum(exits[i] != max(floor[i] - low[i], 0) for i in range(n))  # exits not their node's
    orphans = 0  # live classes with no node
    conditions = [ConditionRecord(0, True, True, not wrong, True)]
    for index, (groups, edits) in enumerate(records.rounds, 1):
        for slot, dst, value in edits:  # before the absorbed rows go, as in ``_patch``
            if value is None:
                rows[slot].pop(dst, None)
            else:
                rows[slot][dst] = value

        formed = []  # (host, node, merge height)
        for host, slots, lift, exit_height, height in groups:
            ids = []
            for slot in slots:
                ids.append(c := cls[slot])
                v = node[c]
                if v is None:
                    orphans -= 1
                elif exits[slot] != max(floor[v] - low[v], 0):
                    wrong -= 1
                singles.discard(slot)
                if slot != host:
                    del rows[slot], exits[slot]
                    lifts.pop(slot, None)
                    checked.pop(slot, None)
                    failing.pop(slot, None)
            cls[host] = c = len(node)
            size.append(total := sum(map(size.__getitem__, ids)))
            node.append(v := _resolve(ids, total, node, parts, tree))
            lifts[host], exits[host] = lift, exit_height
            if v is None:
                parts[c] = ids
                orphans += 1
            elif exit_height != max(floor[v] - low[v], 0):
                wrong += 1
            if v is None or v < n:
                checked.pop(host, None)
                failing.pop(host, None)
            formed.append((host, v, height))

        moved = edits if checked else ()  # an edit can move only a pair read before
        full = set()  # the big slots whose every pair is read this round
        for host, v, _ in formed:
            if v is not None and v >= n:
                full.add(host)
                edge = boundary(v)
                checked[host] = v, edge
                bad = {a for a in edge if fails(host, v, a)}
                if bad:
                    failing[host] = bad
                else:
                    failing.pop(host, None)

        for big, a, _ in moved:  # re-read each pair an edit touched
            if big in singles:  # an edit on a singleton's row
                big, a = a, big
            if big in checked and big not in full and a in checked[big][1]:
                recheck(big, a)
        if failing:  # a failing pair is read every round
            for big in [big for big in failing if big not in full]:
                for a in list(failing[big]):
                    recheck(big, a)

        merge_ok = all(v is None or height == high[v] - low[v] for _, v, height in formed)
        conditions.append(ConditionRecord(index, not orphans, not failing, not wrong, merge_ok))
    return conditions, node, parts


def verify_equivalence(landscape: Landscape) -> EquivalenceReport:
    """Compare the two cycle families and their height functionals on one
    landscape (Metropolis seed), from the records of a run it owns, whose
    round 0 the checks consume."""
    tree = enumerate_path_cycles(landscape)
    records = run_decomposition(landscape).records
    conditions, node, parts = _check_rounds(landscape, records, tree)

    n, scale = landscape.n, landscape.scale
    floor, low, high = tree.floor, tree.low, tree.high
    names, leaves, lo, hi = tree.names, tree.leaves, tree.lo, tree.hi

    def members(v):
        return frozenset(names[i] for i in leaves[lo[v] : hi[v]])

    exit_units, merge_units = records.exit, records.merge
    order = records.order()
    he_violations = []
    hm_violations = []
    hit = set()
    graph_only = set()
    for c in order:
        v = node[c]
        if v is None:
            graph_only.add(frozenset(names[leaves[p]] for p in _positions(c, node, parts, tree)))
            continue
        hit.add(v)
        expected = max(floor[v] - low[v], 0)
        got = exit_units[c]
        if got != expected:
            he_violations.append((members(v), from_units(got, scale), from_units(expected, scale)))
        # a singleton merges at its exit height
        expected_m = high[v] - low[v] if v >= n else expected
        got_m = merge_units[c]
        if got_m != expected_m:
            hm_violations.append((members(v), from_units(got_m, scale), from_units(expected_m, scale)))
    graph_only = sorted(graph_only, key=set_key)
    path_only = []
    if len(hit) < len(tree):
        path_only = sorted((members(v) for v in range(len(tree)) if v not in hit), key=set_key)

    return EquivalenceReport(
        set_equal=not graph_only and not path_only,
        graph_only=graph_only,
        path_only=path_only,
        he_violations=he_violations,
        hm_violations=hm_violations,
        conditions=conditions,
        cycle_count=len(order),
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
