"""Recursive graph-cycle construction.

Starting from the partition into singletons with the Metropolis seed cost
``(H(j) - H(i))^+`` on connected pairs (infinite otherwise), each round:

1. takes each class's exit height, its cheapest outgoing cost; a step that
   costs exactly that has zero renormalized cost,
2. groups classes that reach each other through zero-renormalized-cost paths
   (strongly connected components of the zero-cost digraph),
3. merges exactly the groups with no zero-cost escape into another group
   (the minimal groups); every other class lives on as it was,
4. gives each new class its merge height (the largest exit height among its
   constituents) and its cost row: towards each other class, the cheapest
   constituent cost lifted by the merge height minus that constituent's
   exit height.

The rounds continue until the partition is the single whole-space class.
Every class of every round is a cycle; the union over rounds is the
hierarchy the rest of the package consumes.  Each class's exit and merge
heights are taken from the round that forms it, and its maximal proper
subcycles are the classes that round merged, so the hierarchy is never
rebuilt by comparing classes pairwise.

A round does only the work the previous round's merges made.  Its search
(step 2) is one Tarjan pass started from the classes the previous round
formed, every singleton in round 0, since every minimal group contains one
(``run_decomposition`` proves it).  A class that does not merge keeps its
exit height and its row; the row is copied only when it has an entry into a
merged class, which a reverse index of in-edges finds, and that entry is
relabelled to the new class.  Consecutive levels therefore share every row
no merge touched.  ``advance`` runs the same round searched from every class.

The rounds compute on plain ints, like the rest of the package: every cost
and height is a count of ``1/scale`` energy units, with ``math.inf`` as the
one infinity, so the arithmetic stays exact.  Each class's sort key is
computed once, when the class is created.  ``Energy`` appears only at the
boundary: ``energy.from_units`` builds the ``PartitionLevel`` views, on first
read, and the trace's exit and merge heights.  Equal-cost ties resolve by set
semantics, so the trace is independent of state enumeration order.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .energy import INFINITY, Energy, from_units
from .errors import (
    AlreadyTerminal,
    MalformedInput,
    NonTermination,
    UnknownClass,
)
from .landscape import Landscape, StateSet, _climb_units, reach
from .pathcycles import set_key

UnitRows = dict  # class -> {class -> int units}, finite entries only


def _validate_seed(landscape: Landscape, costs: Mapping) -> dict[tuple[str, str], int]:
    """A generic seed must be finite exactly on the q-positive ordered pairs
    and nonnegative there.  Returns its finite costs in int units."""
    out = {}
    expected = _climb_units(landscape).keys()
    for (x, y), value in costs.items():
        value = landscape.energy_value(value)
        if value.is_infinite:
            continue
        if (x, y) not in expected:
            raise MalformedInput(f"seed cost on non-edge pair ({x!r}, {y!r})")
        if value.units < 0:
            raise MalformedInput(f"negative seed cost on ({x!r}, {y!r}): {value}")
        out[(x, y)] = value.units
    missing = expected - out.keys()
    if missing:
        raise MalformedInput(f"seed cost missing on edge pairs: {sorted(missing)[:3]}")
    return out


@dataclass(frozen=True)
class PartitionLevel:
    """One round of the recursion: the partition, its cost matrix, and the
    derived exit and merge heights.

    The round itself is stored in int units of ``1/scale``: ``cost_units``
    as ``{source: {destination: int}}`` with finite entries only (missing
    means infinite), ``exit_units`` as each class's cheapest outgoing cost
    (``math.inf`` for none) and ``merge_units`` as each class's merge height
    (None for the initial round).  ``keys`` maps every class of the trace to
    its sorted member tuple; the levels of one trace share it, and a row no
    merge touched is the same dict in consecutive levels.

    ``cost``, ``exit_height``, ``renormalized`` and ``merge_height`` are the
    same quantities as ``Energy`` dicts, each built when it is first read;
    ``renormalized`` is the cost minus the source's exit height.  Infinite
    heights are ``INFINITY`` itself.
    """

    index: int
    classes: tuple[StateSet, ...]
    cost_units: UnitRows
    exit_units: dict
    merge_units: Optional[dict]
    scale: int
    keys: dict = field(compare=False, repr=False)

    @cached_property
    def cost(self) -> dict:
        return {
            src: {dst: Energy(v, self.scale) for dst, v in row.items()}
            for src, row in self.cost_units.items()
        }

    @cached_property
    def exit_height(self) -> dict:
        return {cls: from_units(h, self.scale) for cls, h in self.exit_units.items()}

    @cached_property
    def renormalized(self) -> dict:
        return {
            src: {dst: Energy(v - self.exit_units[src], self.scale) for dst, v in row.items()}
            for src, row in self.cost_units.items()
        }

    @cached_property
    def merge_height(self) -> Optional[dict]:
        if self.merge_units is None:
            return None
        return {cls: from_units(h, self.scale) for cls, h in self.merge_units.items()}

    @property
    def is_terminal(self) -> bool:
        return len(self.classes) == 1

    def class_set(self) -> frozenset:
        return frozenset(self.classes)

    def cost_between(self, a: StateSet, b: StateSet) -> Energy:
        self._check(a)
        self._check(b)
        return from_units(self.cost_units.get(a, {}).get(b, math.inf), self.scale)

    def renormalized_between(self, a: StateSet, b: StateSet) -> Energy:
        self._check(a)
        self._check(b)
        row = self.cost_units.get(a, {})
        if b not in row:
            return INFINITY
        return Energy(row[b] - self.exit_units[a], self.scale)

    def _check(self, cls: StateSet) -> None:
        if cls not in self.exit_units:
            raise UnknownClass(f"{sorted(cls)} is not a class of round {self.index}")


@dataclass(frozen=True)
class MergeStep:
    """The zero-cost merge groups of one round and the minimal ones that
    actually became new classes.

    ``level`` is the partition the round started from.  ``blocks``, every
    strongly connected group of its zero-cost digraph, is read only by the
    ``--iterations`` export and the API, so it is searched for when first
    read.
    """

    level: PartitionLevel = field(repr=False)
    minimal: tuple[StateSet, ...]

    @cached_property
    def blocks(self) -> tuple[StateSet, ...]:
        return _block_order(self.level, _zero_components(self.level, self.level.classes))


def initial_level(landscape: Landscape, seed_costs=None) -> PartitionLevel:
    """The singleton partition with its seed cost matrix."""
    if seed_costs is None:
        pair_costs = _climb_units(landscape)
    else:
        pair_costs = _validate_seed(landscape, seed_costs)
    single = {s: frozenset((s,)) for s in landscape.states}
    cost: UnitRows = {}
    for (x, y), units in pair_costs.items():
        cost.setdefault(single[x], {})[single[y]] = units
    keys = {cls: (s,) for s, cls in single.items()}
    classes = tuple(sorted(single.values(), key=keys.__getitem__))
    exit_units = {cls: min(cost[cls].values()) if cls in cost else math.inf for cls in classes}
    return PartitionLevel(0, classes, cost, exit_units, None, landscape.scale, keys)


def _zero_steps(level: PartitionLevel, cls: StateSet) -> list:
    """The classes one zero-renormalized-cost step from ``cls``."""
    row = level.cost_units.get(cls, {})
    height = level.exit_units[cls]
    return [dst for dst, v in row.items() if v == height]


def zero_cost_reaches(level: PartitionLevel, source: StateSet, destination: StateSet) -> bool:
    """True iff a path of classes from source to destination exists whose
    every step has zero renormalized cost.  Every class reaches itself."""
    source = frozenset(source)
    destination = frozenset(destination)
    level._check(source)
    level._check(destination)
    return destination in reach([source], lambda cls: _zero_steps(level, cls))


def _zero_components(level: PartitionLevel, starts: Iterable[StateSet]) -> list[tuple[list, bool]]:
    """Tarjan's strongly connected components of the zero-cost digraph over
    the classes reachable from ``starts``, each with whether a member has a
    zero-cost step out of it.  The set searched is closed under steps, so
    these are components of the whole digraph.  The walk is its own, not
    ``reach``, since it numbers the classes (see ``landscape``)."""
    number: dict = {}
    low: dict = {}
    steps: dict = {}
    component: dict = {}  # class -> index into ``found``, once complete
    path = []
    found = []

    def visit(cls):
        number[cls] = low[cls] = len(number)
        path.append(cls)
        steps[cls] = _zero_steps(level, cls)
        return cls, iter(steps[cls])

    for root in starts:
        if root in number:
            continue
        frames = [visit(root)]
        while frames:
            cls, todo = frames[-1]
            for nxt in todo:
                if nxt not in number:
                    frames.append(visit(nxt))
                    break
                if nxt not in component:  # still on the path: same component
                    low[cls] = min(low[cls], number[nxt])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[cls])
                if low[cls] == number[cls]:
                    k = len(found)
                    members = []
                    while not members or members[-1] is not cls:
                        members.append(path.pop())
                        component[members[-1]] = k
                    escapes = any(component[d] != k for m in members for d in steps[m])
                    found.append((members, escapes))
    return found


def _union(members: list, keys: dict) -> StateSet:
    """The class made of ``members``, with its sort key recorded."""
    block = members[0] if len(members) == 1 else frozenset().union(*members)
    if block not in keys:
        keys[block] = set_key(block)
    return block


def _block_order(level: PartitionLevel, components: list) -> tuple[StateSet, ...]:
    """The components' member unions, in class order."""
    keys = level.keys
    return tuple(sorted((_union(members, keys) for members, _ in components), key=keys.__getitem__))


def _in_edges(rows: UnitRows) -> dict:
    """Each class's sources: the classes whose rows hold an entry into it."""
    into: dict = {}
    for src, row in rows.items():
        for dst in row:
            into.setdefault(dst, set()).add(src)
    return into


def _merge_round(level: PartitionLevel, starts: Iterable[StateSet], into: dict):
    """One round of the recursion, searched from ``starts``.  ``into`` is
    ``level``'s reverse index; it is brought up to the next level in place.

    Returns the next level, its new classes in class order and every
    component the search found.
    """
    rows, exits, keys = level.cost_units, level.exit_units, level.keys
    components = _zero_components(level, starts)
    groups = {}  # new class -> the classes it merges
    container = {}  # merged class -> its new class
    for members, escapes in components:
        if not escapes:
            block = _union(members, keys)
            groups[block] = members
            for cls in members:
                container[cls] = block

    next_rows = dict(rows)
    next_exits = dict(exits)
    merge_units = dict(exits)  # a class that does not merge keeps its exit height
    for cls in container:
        del next_rows[cls], next_exits[cls], merge_units[cls]
    # each destination keeps its cheapest renormalized cost, lifted by the
    # new class's merge height
    for block, members in groups.items():
        height = max(exits[cls] for cls in members)
        row = {}
        for cls in members:
            shift = height - exits[cls]
            for dst, value in rows[cls].items():
                into[dst].discard(cls)
                dst = container.get(dst, dst)
                if dst is not block:
                    value += shift
                    if value < row.get(dst, math.inf):
                        row[dst] = value
        if row:
            next_rows[block] = row
        next_exits[block] = min(row.values(), default=math.inf)
        merge_units[block] = height
    # a living row keeps its values and relabels its entries into merged
    # classes; it is copied once, so the previous level keeps its own
    copied = set()
    for cls, block in container.items():
        gained = into.setdefault(block, set())
        for src in into.pop(cls):
            if src not in copied:
                copied.add(src)
                next_rows[src] = dict(rows[src])
            row = next_rows[src]
            value = row.pop(cls)
            if value < row.get(block, math.inf):
                row[block] = value
            gained.add(src)
    for block in groups:
        for dst in next_rows.get(block, ()):
            into[dst].add(block)

    classes = [cls for cls in level.classes if cls not in container]
    for block in groups:
        insort(classes, block, key=keys.__getitem__)
    next_level = PartitionLevel(
        level.index + 1, tuple(classes), next_rows, next_exits, merge_units, level.scale, keys
    )
    return next_level, tuple(sorted(groups, key=keys.__getitem__)), components


def advance(level: PartitionLevel) -> tuple[PartitionLevel, tuple[StateSet, ...], tuple[StateSet, ...]]:
    """One round of the recursion, searched from every class.

    Returns the next level together with the merge groups and the minimal
    merge groups of this round.
    """
    if level.is_terminal:
        raise AlreadyTerminal("the partition is already the whole space")
    next_level, minimal, components = _merge_round(level, level.classes, _in_edges(level.cost_units))
    return next_level, _block_order(level, components), minimal


@dataclass(frozen=True)
class DecompositionTrace:
    """The full run of the recursion: every round, every merge, and the
    resulting cycle hierarchy with its exit and merge heights."""

    levels: tuple[PartitionLevel, ...]
    merges: tuple[MergeStep, ...]
    cycles: tuple[StateSet, ...]
    exit_heights: dict
    merge_heights: dict
    iterations: int
    scale: int

    def cycle_set(self) -> frozenset:
        return frozenset(self.cycles)

    def maximal_proper(self, members: Iterable[str]) -> tuple[StateSet, ...]:
        """The maximal cycles strictly contained in the given cycle: the
        classes it was merged from in the round that formed it."""
        target = frozenset(members)
        if target not in self.exit_heights:
            raise UnknownClass(f"{sorted(target)} is not a cycle of this trace")
        for before, step in zip(self.levels, self.merges):
            if target in step.minimal:
                return tuple(cls for cls in before.classes if cls <= target)
        return ()


def run_decomposition(landscape: Landscape, seed_costs=None) -> DecompositionTrace:
    """Iterate the recursion from the singleton partition until the single
    whole-space class, keeping the complete trace.

    Both heights of a class are read from the round that forms it.  A living
    class keeps its exit height, because its cost row only loses entries
    when destinations merge under ``min``.  Its merge height, the largest
    exit height among its constituents, is also the largest exit height
    strictly inside it: every merged class exits no lower than it merged.

    Each round after the first searches only from the classes the round
    before formed.  That finds every minimal group, because every minimal
    group of round k + 1 with no class formed in round k was already
    minimal in round k.  Proof: let G be such a group.  Its classes lived
    through round k, so their rows changed only by relabelling entries into
    merged classes, with the same values and exit heights; a class has a
    zero-cost step into a new class exactly when it had one into a
    constituent.  G has no zero-cost escape, so every zero-cost step of its
    classes in round k already stayed inside G, and the paths joining them
    ran inside G too.  So G was a group of round k with no escape, and
    merged then, which contradicts its classes living on.
    """
    level = initial_level(landscape, seed_costs)
    levels = [level]
    merges = []
    exit_units = dict(level.exit_units)
    merge_units = dict(level.exit_units)  # a singleton merges at its exit height
    into = _in_edges(level.cost_units)
    fresh = level.classes
    while not level.is_terminal:
        if len(levels) > landscape.n:
            raise NonTermination("recursion exceeded the state count")
        before = level
        level, fresh, _ = _merge_round(before, fresh, into)
        levels.append(level)
        merges.append(MergeStep(before, fresh))
        for block in fresh:
            exit_units[block] = level.exit_units[block]
            merge_units[block] = level.merge_units[block]

    scale = landscape.scale
    keys = level.keys
    return DecompositionTrace(
        levels=tuple(levels),
        merges=tuple(merges),
        cycles=tuple(sorted(exit_units, key=lambda c: (len(c), keys[c]))),
        exit_heights={c: from_units(h, scale) for c, h in exit_units.items()},
        merge_heights={c: from_units(h, scale) for c, h in merge_units.items()},
        iterations=len(levels) - 1,
        scale=scale,
    )


# -- export --------------------------------------------------------------------


def _rows_to_list(rows: dict, keys: dict) -> list[dict]:
    entries = []
    for src in sorted(rows, key=keys.__getitem__):
        row = rows[src]
        for dst in sorted(row, key=keys.__getitem__):
            entries.append({"from": list(keys[src]), "to": list(keys[dst]), "value": str(row[dst])})
    return entries


def _heights_to_list(heights: dict, keys: dict) -> list[dict]:
    return [
        {"class": list(keys[cls]), "value": str(heights[cls])}
        for cls in sorted(heights, key=keys.__getitem__)
    ]


def level_to_dict(level: PartitionLevel) -> dict:
    keys = level.keys
    doc = {
        "index": level.index,
        "classes": [list(keys[c]) for c in level.classes],
        "cost": _rows_to_list(level.cost, keys),
        "exit_height": _heights_to_list(level.exit_height, keys),
        "renormalized_cost": _rows_to_list(level.renormalized, keys),
    }
    if level.merge_height is not None:
        doc["merge_height"] = _heights_to_list(level.merge_height, keys)
    return doc


def trace_to_dict(trace: DecompositionTrace, include_levels: bool = False) -> dict:
    keys = trace.levels[-1].keys
    doc: dict = {
        "iterations": trace.iterations,
        "cycles": [
            {
                "members": list(keys[c]),
                "exit_height": str(trace.exit_heights[c]),
                "merge_height": str(trace.merge_heights[c]),
            }
            for c in trace.cycles
        ],
    }
    if include_levels:
        doc["levels"] = [level_to_dict(lvl) for lvl in trace.levels]
        doc["merges"] = [
            {
                "into_iteration": i + 1,
                "merged": [list(keys[b]) for b in step.blocks],
                "merged_minimal": [list(keys[b]) for b in step.minimal],
            }
            for i, step in enumerate(trace.merges)
        ]
    return doc
