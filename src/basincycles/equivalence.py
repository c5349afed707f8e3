"""Cross-validation of the two cycle decompositions.

For a valid landscape with the Metropolis seed, the family of graph cycles
must equal the family of path cycles, the exit height of every cycle must
equal its boundary depth clamped at zero, and the merge height of every
non-singleton must equal its internal height.  ``verify_equivalence`` checks
that, and each round's structural conditions in the int units the round
stores, against the sweep's cycle tree: a set is a path cycle exactly when
it is a node, and the node holds its internal minimum, internal maximum and
boundary floor as int units, and its ground.  ``Energy`` is built only for
a violation's report entry.

The tests keep the check independent: they hold the tree to the definitions
and to ``brute_force_path_cycles``, an exhaustive bitmask scan over
connected subsets that shares no code with the sweep enumeration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .energy import Energy, from_units
from .errors import TooLarge
from .graphcycles import DecompositionTrace, run_decomposition
from .landscape import Landscape, StateSet, exterior_boundary, make_landscape
from .pathcycles import CycleTree, enumerate_path_cycles, set_key

_BRUTE_FORCE_LIMIT = 20


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


def _check_conditions(
    landscape: Landscape, trace: DecompositionTrace, tree: CycleTree, path_sets: set
) -> list[ConditionRecord]:
    """Every round's conditions, compared on the round's slots and int units
    against the tree node of each class.  A class without a node is not a
    path cycle; the conditions that need its node skip it."""
    boundaries: dict[StateSet, StateSet] = {}  # cached per distinct big class
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


def verify_equivalence(landscape: Landscape) -> EquivalenceReport:
    """Compare the two cycle families and their height functionals on one
    landscape (Metropolis seed)."""
    tree = enumerate_path_cycles(landscape)
    trace = run_decomposition(landscape)

    path_sets = tree.member_sets()
    graph_sets = trace.cycle_set()
    graph_only = sorted(graph_sets - path_sets, key=set_key)
    path_only = sorted(path_sets - graph_sets, key=set_key)

    conditions = _check_conditions(landscape, trace, tree, path_sets)

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
