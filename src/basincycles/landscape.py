"""The energy-landscape data model.

A landscape is a finite state set with an exact energy per state and a
symmetric connectivity rate ``q`` on unordered pairs.  It is stored in one
form, its state numbering: the names sorted once, each id the rank of its
name, each energy as its int count of ``1/scale`` units (the package's one
energy arithmetic) in a list by id, and each state's neighbours as a sorted
list of ids.  An explicit rate is a ``Fraction`` keyed by its sorted id
pair; every other edge reads the one default ``Fraction``.  Names are a view
over that form: ``units``, ``energy``, ``rate`` and ``neighbors`` look a
name up in the index on each call.  Validation enforces:

* symmetry of ``q`` (conflicting directional rates are rejected),
* sub-stochastic rows: for every ``x``, ``sum_y q(x, y) <= 1``,
* irreducibility: the positive-rate graph is connected.

Self-loops are never stored; the diagonal of the Metropolis kernel is one
minus the probability of leaving.  A landscape is immutable after validation
and safe to share between threads.

``reach`` is the package's one graph walk; every connectivity question calls
it with its own step function.  Two walks stay apart on purpose: the bitmask
flood fill of ``brute_force_path_cycles``, because the oracle must share no
code with what it checks, and the Tarjan walks of the graph-cycle rounds
and of their views, which number each class in depth-first order and keep
its low link, and so need more than the set of classes reached.
"""

from __future__ import annotations

import gc
import io
import json
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .energy import DEFAULT_SCALE, MAX_UNITS, Energy, format_exact, from_units, parse_exact, parse_units
from .errors import (
    AsymmetricEdge,
    DisconnectedGraph,
    DuplicateState,
    EmptySet,
    ForeignState,
    MalformedInput,
    NonpositiveBeta,
    RowSumExceedsOne,
    ScaleOverflow,
    UnknownStateInEdge,
    ValidationError,
)

StateSet = frozenset
_NO_RATE = Fraction(0)


def reach(starts: Iterable[Hashable], step: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Every node reachable from ``starts``, the starts included, where
    ``step(node)`` yields the nodes one move away."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _exact_units(value, scale: int):
    """An input energy's int units at ``scale``, ``math.inf`` for infinity:
    an exact string, an int of whole units (not a bool), or an ``Energy``
    already at that scale."""
    if isinstance(value, str):
        return parse_units(value, scale)
    if isinstance(value, Energy):
        if not value.is_infinite and value.scale != scale:
            raise ScaleOverflow(f"energy {value!r} is not at scale {scale}")
        return value.units
    if isinstance(value, int) and not isinstance(value, bool):
        return value * scale
    raise MalformedInput(f"energies must be exact (string, int or Energy), got {value!r}")


def _exact_rate(value) -> Fraction:
    """An input rate: an exact string, an int (not a bool), or a Fraction."""
    if isinstance(value, str):
        return parse_exact(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise MalformedInput(f"rates must be exact (string, int or Fraction), got {value!r}")


class Landscape:
    """Validated immutable landscape.  Build via :func:`make_landscape` or
    :func:`load_landscape`, not directly.

    The stored form is :meth:`numbering`, the package's one state
    numbering, id ``i`` the ``i``-th state by name.  Beside it the landscape
    keeps ``states`` in declaration order, ``scale``, ``edge_count``, the
    explicit rates keyed by sorted id pair and the default rate
    ``1/max_degree`` (None when every edge has its own).  Names are a view:
    :meth:`units`, :meth:`energy`, :meth:`rate`, :meth:`neighbors` and
    :meth:`edge_pairs` read the numbering through its index.  The
    path-cycle sweep and both exports, the rounds' ``_start`` and seed
    check, ``verify`` and the kernel all read the ids, so no result depends
    on the order a document lists its states in; only the exhaustive oracle
    keeps an order of its own."""

    __slots__ = ("states", "scale", "edge_count", "_ids", "_given", "_default")

    def __init__(self, states, scale, ids, given, default, edge_count):
        self.states: tuple[str, ...] = states
        self.scale: int = scale
        self.edge_count: int = edge_count  # positive-rate unordered pairs
        self._ids: tuple = ids
        self._given: dict[tuple[int, int], Fraction] = given
        self._default: Fraction | None = default

    def numbering(self) -> tuple:
        """``(names, index, units, adjacency)``: the names in sorted order,
        name -> id, int units by id and each id's neighbour ids in
        ascending order.  This is the landscape as stored, built by the
        loader's walks (so ``validate`` pays for it too), not a copy: do not
        mutate it."""
        return self._ids

    @property
    def n(self) -> int:
        return len(self.states)

    def _id(self, state: str) -> int:
        try:
            return self._ids[1][state]
        except KeyError:
            raise ForeignState(f"unknown state {state!r}") from None

    def units(self, state: str) -> int:
        """The state's energy in int units of ``1/scale``."""
        return self._ids[2][self._id(state)]

    def energy(self, state: str) -> Energy:
        return Energy(self.units(state), self.scale)

    def energy_value(self, value) -> Energy:
        """Coerce an int (whole energy units), exact string, or Energy to the
        landscape's scale."""
        return from_units(_exact_units(value, self.scale), self.scale)

    def rate(self, x: str, y: str) -> Fraction:
        """``q(x, y)``: 0 for a non-edge, the diagonal or a foreign name."""
        _, index, _, adjacency = self._ids
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            return _NO_RATE
        nbrs = adjacency[i]
        at = bisect_left(nbrs, j)
        if at == len(nbrs) or nbrs[at] != j:
            return _NO_RATE
        return self._given.get((i, j) if i < j else (j, i), self._default)

    def neighbors(self, state: str) -> tuple[str, ...]:
        names = self._ids[0]
        return tuple([names[j] for j in self._ids[3][self._id(state)]])

    def _edges(self) -> Iterator[tuple[int, int]]:
        """The id pairs ``i < j`` of the edges, in ascending order."""
        for i, nbrs in enumerate(self._ids[3]):
            for j in nbrs:
                if i < j:
                    yield i, j

    def edge_pairs(self) -> list[tuple[str, str]]:
        """All positive-rate unordered pairs, canonically sorted."""
        names = self._ids[0]
        return [(names[i], names[j]) for i, j in self._edges()]

    def has_state(self, state: str) -> bool:
        return state in self._ids[1]

    def subset(self, members: Iterable[str]) -> StateSet:
        """Validate and freeze a nonempty subset of this landscape's states."""
        got = frozenset(members)
        if not got:
            raise EmptySet("state set must be nonempty")
        index = self._ids[1]
        for state in got:
            if state not in index:
                raise ForeignState(f"unknown state {state!r}")
        return got

    def __eq__(self, other: object) -> bool:
        # equal sorted names make equal ids, so the lists compare directly;
        # rates compare as each edge's effective rate, explicit or default
        if not isinstance(other, Landscape):
            return NotImplemented
        mine, theirs = self._ids, other._ids
        return (
            self.scale == other.scale
            and mine[0] == theirs[0]
            and mine[2] == theirs[2]
            and mine[3] == theirs[3]
            and self._effective_rates() == other._effective_rates()
        )

    def _effective_rates(self) -> list[Fraction]:
        given, default = self._given, self._default
        return [given.get(pair, default) for pair in self._edges()]

    def __hash__(self):
        return hash((self._ids[0], self.scale))

    def __repr__(self) -> str:
        return f"Landscape({self.n} states, {self.edge_count} edges, scale={self.scale})"


def make_landscape(energies, edges, scale: int = DEFAULT_SCALE) -> Landscape:
    """Build and validate a landscape.

    ``energies``: mapping id -> int (whole units) | exact string | Energy, or
    an ordered sequence of (id, value) pairs.  ``edges``: iterable of
    ``(x, y)`` or ``(x, y, rate)`` where rate is an exact string, int, or
    Fraction.  Edges without a rate get the uniform default ``1/max_degree``.
    """
    items = energies.items() if isinstance(energies, Mapping) else energies
    states = [{"id": x, "energy": v} for x, v in items]
    entries = []  # as in a document
    for edge in edges:
        if len(edge) == 2:
            entries.append(list(edge))
        else:
            x, y, q = edge
            entries.append({"pair": [x, y], "q": _exact_rate(q)})
    return _build(states, entries, scale)


def _build(raw_states: list, raw_edges, scale) -> Landscape:
    """Validate a document's entries, walking each list once, into the
    stored form of ``Landscape``.  A malformed entry raises when reached;
    other faults wait for both walks, so the first one in the order of the
    checks below wins."""
    fault = None
    if not isinstance(scale, int) or isinstance(scale, bool) or scale <= 0:
        fault = MalformedInput(f"energy_scale must be a positive integer, got {scale!r}")
    declared: dict[str, int] = {}  # name -> units, in declaration order
    parsed: dict[str, int] = {}  # energy text -> units: each distinct text is parsed once
    for entry in raw_states:
        if not isinstance(entry, dict) or "id" not in entry or "energy" not in entry:
            raise MalformedInput(f"state entries need 'id' and 'energy': {entry!r}")
        if fault is None:
            sid, value = str(entry["id"]), entry["energy"]
            try:
                if sid in declared:
                    raise DuplicateState(f"state {sid!r} declared twice")
                if type(value) is str:
                    u = parsed.get(value)
                    if u is None:
                        u = parsed[value] = parse_units(value, scale)
                else:
                    u = _exact_units(value, scale)
                if abs(u) > MAX_UNITS:  # infinite, or past the bound
                    why = "must be finite" if u == math.inf else "is past 2**1000 units"
                    raise MalformedInput(f"energy of {sid!r} {why}")
                declared[sid] = u
            except ValidationError as exc:
                fault = exc
    if fault is None and not declared:
        fault = MalformedInput("landscape has no states")
    names = tuple(sorted(declared))
    index = dict(zip(names, range(len(names))))

    if not isinstance(raw_edges, list):
        raise MalformedInput("'edges' must be a list")
    given: dict[tuple[int, int], Fraction] = {}
    defaulted: set[tuple[int, int]] = set()
    for entry in raw_edges:
        if isinstance(entry, list) and len(entry) == 2:
            x, y, q = str(entry[0]), str(entry[1]), None
        elif isinstance(entry, dict) and "pair" in entry:
            pair = entry["pair"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedInput(f"edge 'pair' must be a two-element list: {entry!r}")
            x, y, q = str(pair[0]), str(pair[1]), entry.get("q")
            q = None if q is None else _exact_rate(q)
        else:
            raise MalformedInput(f"unrecognized edge entry: {entry!r}")
        if fault is not None:
            continue
        try:
            i, j = index.get(x), index.get(y)
            if i is None:
                raise UnknownStateInEdge(f"edge references unknown state {x!r}")
            if j is None:
                raise UnknownStateInEdge(f"edge references unknown state {y!r}")
            if i == j:
                raise MalformedInput(f"self-edge on {x!r}; the diagonal is implicit")
            pair = (i, j) if i < j else (j, i)
            if q is None:
                defaulted.add(pair)
                continue
            if q <= 0 or q > 1:
                raise MalformedInput(f"rate q({x},{y}) = {q} outside (0, 1]")
            known = given.setdefault(pair, q)
            if known != q:
                raise AsymmetricEdge(f"conflicting rates for edge {x!r}-{y!r}: {known} vs {q}")
        except ValidationError as exc:
            fault = exc
    if fault is not None:
        raise fault
    states = tuple(declared)
    both = given.keys() & defaulted
    if both:
        i, j = min(both)  # ids rank as names, so this is the least name pair
        raise AsymmetricEdge(f"edge {(names[i], names[j])} given both with and without a rate")

    adjacency: list[list[int]] = [[] for _ in names]
    for pairs in (given, defaulted):
        for i, j in pairs:
            adjacency[i].append(j)
            adjacency[j].append(i)
    for nbrs in adjacency:
        nbrs.sort()
    max_degree = max(map(len, adjacency))

    # a row of default rates alone sums to degree / max_degree <= 1; a row
    # with an explicit rate is summed as int numerators over its own common
    # denominator, which grows with the row's degree, not with the distinct
    # denominators of the whole landscape; rows are checked in declaration
    # order, so the first declared row over one is reported
    rows: dict[int, list[tuple[int, int]]] = {}
    for pair, q in given.items():
        parts = q.as_integer_ratio()
        for i in pair:
            rows.setdefault(i, []).append(parts)
    for s in states if rows else ():  # no walk when no rate is explicit
        i = index[s]
        parts = rows.get(i)
        if parts is None:
            continue
        rest = len(adjacency[i]) - len(parts)  # the row's defaulted edges
        if rest:
            parts.append((rest, max_degree))
        den = math.lcm(*(d for _, d in parts))
        total = sum(n * (den // d) for n, d in parts)
        if total > den:
            raise RowSumExceedsOne(f"outgoing rates of {s!r} sum to {Fraction(total, den)} > 1")

    # irreducibility of the positive-rate graph
    seen = reach([index[states[0]]], adjacency.__getitem__)
    if len(seen) != len(names):
        missing = [s for i, s in enumerate(names) if i not in seen][:3]
        raise DisconnectedGraph(f"states unreachable from {states[0]!r}: {missing}...")

    units = list(map(declared.__getitem__, names))
    default = Fraction(1, max_degree) if defaulted else None
    edge_count = len(given) + len(defaulted)
    return Landscape(states, scale, (names, index, units, adjacency), given, default, edge_count)


# -- file format -------------------------------------------------------------


def load_landscape(source) -> Landscape:
    """Parse a JSON landscape document from byte/str content or a stream.
    Text that is not UTF-8 or not JSON within the parser's integer-digit and
    nesting limits raises ``MalformedInput``.

    The cyclic garbage collector is paused meanwhile: the parse and the build
    allocate tens of thousands of containers, none of them garbage, which
    every collection would walk again.  The caller's collector state is
    restored, also when the load raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(source)
    finally:
        if enabled:
            gc.enable()


def _load(source) -> Landscape:
    try:
        if isinstance(source, (bytes, bytearray)):
            text = source.decode("utf-8")
        elif isinstance(source, str):
            text = source
        elif isinstance(source, io.IOBase) or hasattr(source, "read"):
            text = source.read()
            if isinstance(text, bytes):
                text = text.decode("utf-8")
        else:
            raise MalformedInput(f"cannot read landscape from {type(source).__name__}")
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("top level must be an object")

    scale = doc.get("energy_scale", DEFAULT_SCALE)
    raw_states = doc.get("states")
    if not isinstance(raw_states, list):
        raise MalformedInput("missing or invalid 'states' list")
    return _build(raw_states, doc.get("edges", []), scale)


def landscape_to_dict(landscape: Landscape) -> dict:
    """The canonical document: sorted states and edges, exact value strings."""
    names, _, units, _ = landscape.numbering()
    scale, given = landscape.scale, landscape._given
    states = [{"id": s, "energy": str(Energy(u, scale))} for s, u in zip(names, units)]
    edges = []
    for i, j in landscape._edges():
        q = given.get((i, j))
        pair = [names[i], names[j]]
        edges.append(pair if q is None else {"pair": pair, "q": format_exact(q)})
    return {"energy_scale": scale, "states": states, "edges": edges}


def dumps_landscape(landscape: Landscape) -> str:
    """Canonical document text.  Round-trips bit-exactly through
    :func:`load_landscape`."""
    return dumps_json(landscape_to_dict(landscape)) + "\n"


_encode_str = json.encoder.encode_basestring_ascii


class Rendered:
    """An array whose entries are JSON text already: ``entries(newline)``
    yields each one as ``write_json`` would write it at the depth whose line
    break and indent is ``newline``."""

    __slots__ = ("entries",)

    def __init__(self, entries: Callable[[str], Iterable[str]]):
        self.entries = entries


def parsed(doc: dict) -> dict:
    """``doc`` with each ``Rendered`` array parsed into plain lists and
    dicts, one entry at a time.  Equal strings in the entries' arrays share
    one object, as the names they were rendered from did, so the lists cost
    a pointer per member."""
    shared: dict = {}

    def share(entry: dict) -> dict:
        for key, value in entry.items():
            if type(value) is list:
                entry[key] = [shared.setdefault(s, s) for s in value]
        return entry

    return {
        key: [json.loads(text, object_hook=share) for text in value.entries("\n")]
        if isinstance(value, Rendered)
        else value
        for key, value in doc.items()
    }


class HeightTexts(dict):
    """Height units -> the JSON string of their ``Energy`` at ``scale``, each
    built on its first read."""

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, units) -> str:
        text = self[units] = _encode_str(str(from_units(units, self.scale)))
        return text


def dumps_json(value) -> str:
    """The text of ``write_json``, as one string."""
    chunks: list[str] = []
    write_json(value, chunks.append)
    return "".join(chunks)


def write_json(value, write, newline: str = "\n") -> None:
    """Write the stdlib's ``json.dumps(value, indent=2)``, byte for byte, in
    pieces through ``write``, for trees of str, None, bool, int, float, list,
    tuple, str-keyed dict and ``Rendered``; anything else raises
    ``TypeError``.  ``newline`` is the line break and indent of ``value``'s
    depth.  The stdlib encodes indented output in pure Python; here each
    array of strings is one C pass, and a ``Rendered`` array's entries are
    written as they come."""
    # the stdlib encoder's dispatch order: bool before int, float after int
    if isinstance(value, str):
        write(_encode_str(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            write("NaN")
        elif value in (math.inf, -math.inf):
            write("Infinity" if value > 0 else "-Infinity")
        else:
            write(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        write("[" + inner)
        try:
            write(separator.join(map(_encode_str, value)))
        except TypeError:  # not every item is a str
            for i, item in enumerate(value):
                if i:
                    write(separator)
                write_json(item, write, inner)
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        write("{" + inner)
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write((separator if i else "") + _encode_str(key) + ": ")
            write_json(item, write, inner)
        write(newline + "}")
    elif isinstance(value, Rendered):
        inner = newline + "  "
        lead, separator = "[" + inner, "," + inner
        for text in value.entries(inner):
            write(lead)
            write(text)
            lead = separator
        write(newline + "]" if lead == separator else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# -- elementary set geometry ---------------------------------------------------


def exterior_boundary(landscape: Landscape, members: Iterable[str]) -> StateSet:
    """States outside the set with a positive-rate edge into it."""
    inside = landscape.subset(members)
    out = set()
    for x in inside:
        for y in landscape.neighbors(x):
            if y not in inside:
                out.add(y)
    return frozenset(out)


# -- Metropolis kernel ---------------------------------------------------------
#
# numpy is imported inside ``transition_matrix``, not at module level: every
# command loads a landscape, but only ``simulate`` builds a kernel, so the
# others never pay numpy's import time and memory.


class TransitionMatrix:
    """The Metropolis kernel as its positive off-diagonal entries and jump
    tables; row ``i`` is id ``i`` of ``Landscape.numbering``.

    ``_laws`` holds the sampler's first-hit laws on this kernel, one per
    transient set, with their dyadic powers (``simulate._law``).  They are
    built on first use, shared by every sampler call on the kernel, and
    freed with it.
    """

    __slots__ = ("states", "_index", "_off", "_tables", "_laws")

    def __init__(self, states: tuple[str, ...], index: dict, off: dict, tables: tuple):
        self.states = states
        self._index = index
        self._off = off
        self._tables = tables
        self._laws: dict = {}

    def prob(self, x: str, y: str) -> float:
        """0.0 for a non-edge; the diagonal is ``1 - leave[x]``."""
        try:
            i, j = self._index[x], self._index[y]
        except KeyError as exc:
            raise ForeignState(f"unknown state {exc.args[0]!r}") from None
        return 1.0 - float(self._tables[0][i]) if i == j else self._off.get((i, j), 0.0)

    def jumps(self) -> tuple:
        """The jump chain's per-state numpy arrays ``(leave, nbr, cdf)``, as
        stored.

        ``leave[x]``: the probability of leaving ``x`` in one step, the sum of
        the row's off-diagonal entries clamped to 1 (one minus a holding
        probability would cancel to 0 at large beta).  ``nbr[x]``: the states
        one step from ``x`` in id order, padded by repeating the last
        (``x`` itself when there is none).  ``cdf[x]``: the jump law over
        ``nbr[x]``, normalised by ``leave[x]`` and pinned to 1 from the last
        neighbour on, so float shortfall never lands off the row.
        """
        return self._tables


def transition_matrix(landscape: Landscape, beta: float) -> TransitionMatrix:
    """The Metropolis kernel, off-diagonal entries
    ``q(x,y) * exp(-beta * (H(y) - H(x))^+)``, for any finite ``beta >= 0``,
    in O(edges); ``beta = 0`` is the sampler's diagnostic mode."""
    import numpy as np
    if not (math.isfinite(beta) and beta >= 0):
        raise NonpositiveBeta(f"beta must be finite and >= 0, got {beta}")
    names, index, units, adjacency = landscape.numbering()
    scale = landscape.scale
    given = {pair: float(q) for pair, q in landscape._given.items()}
    default = float(landscape._default or 0)  # None when every edge has its own
    off = {}  # (row, column) -> probability; one that underflows to 0 is no jump
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:  # ascending, so ``off`` is row-major
            climb = max(0, units[j] - units[i])
            q = given.get((i, j) if i < j else (j, i), default)
            p = q * math.exp(-beta * (climb / scale))
            if p > 0:
                off[i, j] = p
    rows, cols = np.array(list(off), dtype=np.intp).reshape(-1, 2).T
    prob = np.array(list(off.values()))
    n = len(index)
    degree = np.bincount(rows, minlength=n)
    ends = np.cumsum(degree)
    slot = np.arange(rows.size) - np.repeat(ends - degree, degree)
    last = np.arange(n)
    last[degree > 0] = cols[ends[degree > 0] - 1]
    width = max(1, int(degree.max()))
    nbr = np.repeat(last[:, None], width, axis=1)
    nbr[rows, slot] = cols
    leave = np.minimum(np.bincount(rows, weights=prob, minlength=n), 1.0)
    mass = np.zeros((n, width))
    mass[rows, slot] = prob
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.cumsum(mass, axis=1) / leave[:, None]
    cdf[np.arange(width) >= (degree - 1)[:, None]] = 1.0
    return TransitionMatrix(names, index, off, (leave, nbr, cdf))
