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
(``run_decomposition`` proves it).  The rounds name each live class by an
int *slot*.  A new class takes the slot of its constituent with the most
row entries, the host, so the rows pointing into the host and the host's
own row keep their slot.  The host's row is copied once, and its lift
(merge height minus the host's exit height) joins the row's lazy offset: a
row stores its costs minus its slot's lift.  Only the other constituents'
entries are folded in one by one, and only the rows with an entry into
one of them, which a reverse index of in-edges finds, are copied and
relabelled to the host's slot.  So a big class that absorbs a small one
pays for the small one's edges, not for its own boundary, and consecutive
levels share every other row.  ``advance`` runs the same round searched
from every class.

The rounds compute on plain ints, like the rest of the package: every cost
and height is a count of ``1/scale`` energy units, with ``math.inf`` as the
one infinity, so the arithmetic stays exact.  Each class's sort key is
computed once, when the class is created, by merging its constituents'
keys.  The frozenset-keyed reads of a ``PartitionLevel`` and its ``Energy``
views are built from the slots on first read; ``energy.from_units`` builds
the ``Energy`` views and the trace's exit and merge heights.  Equal-cost
ties resolve by set semantics, so the trace is independent of state
enumeration order and of which constituent hosts a merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .energy import Energy, from_units
from .errors import (
    AlreadyTerminal,
    MalformedInput,
    NonTermination,
    UnknownClass,
)
from .landscape import Landscape, StateSet, _climb_units

SlotRows = dict  # slot -> {slot -> int units minus the source's lift}, finite entries only


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

    The round itself is stored on int slots, in int units of ``1/scale``.
    ``members`` maps each live slot to its class.  ``rows`` holds each
    slot's finite costs as ``{source: {destination: int}}`` (missing means
    infinite), each stored minus the source's lift: the true cost is the
    stored value plus ``lifts.get(source, 0)``.  ``exits`` is each slot's
    cheapest true outgoing cost (``math.inf`` for none) and ``formed`` the
    merge height of each class this round formed (empty for round 0); a
    class that lives on merges at its exit height.  A slot names the same
    class until a merge it hosts, so consecutive levels share every row
    that no merge touched.  ``keys`` maps every class of the trace to its
    sorted member tuple; the levels of one trace share it.

    ``classes`` (in class order), ``cost_units``, ``exit_units`` and
    ``merge_units`` (None for the initial round) are the same round keyed by
    class, in true units.  ``cost``, ``exit_height``, ``renormalized`` and
    ``merge_height`` are the same quantities as ``Energy`` dicts;
    ``renormalized`` is the cost minus the source's exit height.  Each view
    is built when it is first read.  Infinite heights are ``INFINITY``
    itself.  Two levels are equal when these views are, whichever slots
    hold their classes.
    """

    index: int
    members: dict
    rows: SlotRows
    lifts: dict
    exits: dict
    formed: dict
    scale: int
    keys: dict = field(compare=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, PartitionLevel):
            return NotImplemented
        return self._round() == other._round()

    def _round(self) -> tuple:
        return self.index, self.scale, self.classes, self.cost_units, self.exit_units, self.merge_units

    @cached_property
    def classes(self) -> tuple[StateSet, ...]:
        return tuple(sorted(self.members.values(), key=self.keys.__getitem__))

    @cached_property
    def cost_units(self) -> dict:
        members, lifts = self.members, self.lifts
        out = {}
        for src, row in self.rows.items():
            lift = lifts.get(src, 0)
            out[members[src]] = {members[dst]: v + lift for dst, v in row.items()}
        return out

    @cached_property
    def exit_units(self) -> dict:
        members = self.members
        return {members[slot]: h for slot, h in self.exits.items()}

    @cached_property
    def merge_units(self) -> Optional[dict]:
        if self.index == 0:
            return None
        members, formed = self.members, self.formed
        return {members[slot]: formed.get(slot, h) for slot, h in self.exits.items()}

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
        return len(self.members) == 1

    def class_set(self) -> frozenset:
        return frozenset(self.members.values())


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
        return _block_order(self.level, _zero_components(self.level, self.level.members))


def initial_level(landscape: Landscape, seed_costs=None) -> PartitionLevel:
    """The singleton partition with its seed cost matrix.  Slot ``i`` holds
    state ``i`` of ``landscape.numbering()``, the ``i``-th in sorted order,
    whose int units and adjacency give the Metropolis climbs."""
    names, slot, height, adjacency = landscape.numbering()
    rows: SlotRows = {}
    if seed_costs is None:
        for i, nbrs in enumerate(adjacency):
            if nbrs:
                rows[i] = {j: max(0, height[j] - height[i]) for j in nbrs}
    else:
        for (x, y), units in _validate_seed(landscape, seed_costs).items():
            rows.setdefault(slot[x], {})[slot[y]] = units
    members = {i: frozenset((s,)) for i, s in enumerate(names)}
    keys = {members[i]: (s,) for i, s in enumerate(names)}
    exits = {i: min(rows[i].values()) if i in rows else math.inf for i in members}
    return PartitionLevel(0, members, rows, {}, exits, {}, landscape.scale, keys)


def _zero_components(level: PartitionLevel, starts: Iterable[int]) -> list[tuple[list, bool]]:
    """Tarjan's strongly connected components of the zero-cost digraph over
    the slots reachable from ``starts``, each with whether a member has a
    zero-cost step out of it.  The set searched is closed under steps, so
    these are components of the whole digraph.  The walk is its own, not
    ``reach``, since it numbers the slots (see ``landscape``); it runs in
    one frame, so visiting a slot calls no Python function.  A slot's zero
    steps are the entries of its row at its exit height less its lift."""
    rows, lifts, exits = level.rows, level.lifts, level.exits
    number: dict = {}
    low: dict = {}
    steps: dict = {}
    component: dict = {}  # slot -> index into ``found``, once complete
    path = []
    found = []
    for root in starts:
        if root in number:
            continue
        frames = []
        slot, todo = root, None
        while True:
            if todo is None:  # enter ``slot``
                number[slot] = low[slot] = len(number)
                path.append(slot)
                out = steps[slot] = []
                row = rows.get(slot)
                if row:
                    least = exits[slot] - lifts.get(slot, 0)
                    for dst, value in row.items():
                        if value == least:
                            out.append(dst)
                todo = iter(out)
            for nxt in todo:
                if nxt not in number:
                    frames.append((slot, todo))
                    slot, todo = nxt, None
                    break
                if nxt not in component and number[nxt] < low[slot]:  # on the path
                    low[slot] = number[nxt]
            else:  # every step of ``slot`` is done
                if low[slot] == number[slot]:
                    k = len(found)
                    group = []
                    while not group or group[-1] != slot:
                        group.append(path.pop())
                        component[group[-1]] = k
                    if len(group) == 1:  # a step from a lone slot leaves its component
                        escapes = bool(steps[slot])
                    else:
                        escapes = any(component[d] != k for m in group for d in steps[m])
                    found.append((group, escapes))
                if not frames:
                    break
                child_low = low[slot]
                slot, todo = frames.pop()
                if child_low < low[slot]:
                    low[slot] = child_low
    return found


def _union(parts: list, keys: dict) -> StateSet:
    """The union of the classes ``parts``, with its sort key recorded.  The
    key sorts the parts' keys laid end to end; they are sorted runs, which
    the sort merges."""
    if len(parts) == 1:
        return parts[0]
    block = parts[0].union(*parts[1:])
    if block not in keys:
        key = []
        for part in parts:
            key += keys[part]
        key.sort()
        keys[block] = tuple(key)
    return block


def _block_order(level: PartitionLevel, components: list) -> tuple[StateSet, ...]:
    """The components' member unions, in class order."""
    members, keys = level.members, level.keys
    blocks = (_union([members[slot] for slot in group], keys) for group, _ in components)
    return tuple(sorted(blocks, key=keys.__getitem__))


def _in_edges(rows: SlotRows) -> dict:
    """Each slot's sources: the slots whose rows hold an entry into it."""
    into: dict = {}
    for src, row in rows.items():
        for dst in row:
            into.setdefault(dst, set()).add(src)
    return into


def _merge_round(level: PartitionLevel, starts: Iterable[int], into: dict):
    """One round of the recursion, searched from ``starts``.  ``into`` is
    ``level``'s reverse index; it is brought up to the next level in place.

    Returns the next level, its new classes in class order and every
    component the search found.
    """
    rows, lifts, exits, members = level.rows, level.lifts, level.exits, level.members
    keys = level.keys
    components = _zero_components(level, starts)
    host_of = {}  # merged slot -> the slot of its new class
    groups = []
    for group, escapes in components:
        if not escapes:
            host = max(group, key=lambda slot: len(rows[slot]))
            groups.append((host, group))
            for slot in group:
                host_of[slot] = host

    next_rows = dict(rows)
    next_lifts = dict(lifts)
    next_exits = dict(exits)
    next_members = dict(members)
    formed = {}
    # each destination keeps its cheapest lifted cost; the host's own
    # entries keep their stored values under the host's new lift
    for host, group in groups:
        height = max(exits[slot] for slot in group)
        lift = lifts.get(host, 0) + height - exits[host]
        row = dict(rows[host])
        parts = [members[host]]
        for slot in group:
            if slot == host:
                continue
            shift = lifts.get(slot, 0) + height - exits[slot] - lift
            for dst, value in rows[slot].items():
                into[dst].discard(slot)
                dst = host_of.get(dst, dst)
                if dst != host:
                    value += shift
                    if value < row.get(dst, math.inf):
                        row[dst] = value
                    into[dst].add(host)
            parts.append(members[slot])
            del next_rows[slot], next_exits[slot], next_members[slot]
            next_lifts.pop(slot, None)
        next_rows[host] = row
        next_lifts[host] = lift
        next_members[host] = _union(parts, keys)
        formed[host] = height
    # a living row keeps its values and relabels its entries into absorbed
    # slots to their host; it is copied once, so the previous level keeps
    # its own, and a host drops its entries into its own group
    copied = set(formed)
    for slot, host in host_of.items():
        if slot == host:
            continue
        for src in into.pop(slot):
            if src not in copied:
                copied.add(src)
                next_rows[src] = dict(rows[src])
            row = next_rows[src]
            value = row.pop(slot)
            if src != host:
                if value < row.get(host, math.inf):
                    row[host] = value
                into[host].add(src)
    for host in formed:
        row = next_rows[host]
        if row:
            next_exits[host] = min(row.values()) + next_lifts[host]
        else:
            del next_rows[host]
            next_exits[host] = math.inf

    next_level = PartitionLevel(
        level.index + 1, next_members, next_rows, next_lifts, next_exits, formed, level.scale, keys
    )
    minimal = tuple(sorted((next_members[host] for host in formed), key=keys.__getitem__))
    return next_level, minimal, components


def advance(level: PartitionLevel) -> tuple[PartitionLevel, tuple[StateSet, ...], tuple[StateSet, ...]]:
    """One round of the recursion, searched from every class.

    Returns the next level together with the merge groups and the minimal
    merge groups of this round.
    """
    if level.is_terminal:
        raise AlreadyTerminal("the partition is already the whole space")
    next_level, minimal, components = _merge_round(level, level.members, _in_edges(level.rows))
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
    exit_units = {level.members[slot]: h for slot, h in level.exits.items()}
    merge_units = dict(exit_units)  # a singleton merges at its exit height
    into = _in_edges(level.rows)
    fresh = level.members
    while not level.is_terminal:
        if len(levels) > landscape.n:
            raise NonTermination("recursion exceeded the state count")
        before = level
        level, minimal, _ = _merge_round(before, fresh, into)
        levels.append(level)
        merges.append(MergeStep(before, minimal))
        fresh = level.formed
        for slot, height in fresh.items():
            block = level.members[slot]
            exit_units[block] = level.exits[slot]
            merge_units[block] = height

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
