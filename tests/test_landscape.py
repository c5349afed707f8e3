"""Landscape model: loading, validation, set geometry, Metropolis kernel."""

import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from basincycles import (
    DEFAULT_SCALE,
    Energy,
    dumps_landscape,
    exterior_boundary,
    initial_level,
    load_landscape,
    make_landscape,
    random_landscape,
)
from basincycles.errors import (
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
)
from basincycles.landscape import (
    Rendered,
    dumps_json,
    landscape_to_dict,
    transition_matrix,
    write_json,
)

from conftest import (
    DATA,
    FIG1_PATH,
    dense_kernel,
    draw_landscape,
    grid_text,
    make_fig1_shuffled,
    metropolis_seed,
    reference_jumps,
    reference_landscape,
)


def test_fig1_loads(fig1):
    assert fig1.n == 11
    assert len(fig1.edge_pairs()) == 10
    assert str(fig1.energy("a")) == "2"
    assert str(fig1.energy("i")) == "0"
    assert fig1.edge_count == 10
    assert fig1.units("a") == 2 * fig1.scale == fig1.energy("a").units
    for view in (fig1.units, fig1.energy, fig1.neighbors):
        with pytest.raises(ForeignState):
            view("zz")


def test_fig1_default_rates(fig1):
    # chain has max degree 2, so omitted rates become 1/2
    assert fig1.rate("a", "b") == Fraction(1, 2)
    assert fig1.rate("e", "g") == 0
    assert fig1.rate("a", "a") == 0


def test_two_state_minimal(two_state):
    assert two_state.n == 2
    assert two_state.rate("x", "y") == Fraction(1, 2)


def test_asymmetric_edge_rejected():
    doc = {
        "states": [{"id": "x", "energy": "0"}, {"id": "y", "energy": "1"}],
        "edges": [
            {"pair": ["x", "y"], "q": "0.7"},
            {"pair": ["y", "x"], "q": "0.3"},
        ],
    }
    with pytest.raises(AsymmetricEdge):
        load_landscape(json.dumps(doc))


def test_row_sum_guard():
    with pytest.raises(RowSumExceedsOne):
        make_landscape(
            {"x": 0, "y": 1, "z": 2},
            [("x", "y", "0.8"), ("x", "z", "0.8"), ("y", "z", "0.1")],
        )


@pytest.mark.parametrize(
    "rates", [["1/3", "2/3"], ["1/2", "1/3", "1/6"], ["0.1", "0.2", "0.7"]]
)
def test_row_sum_exactly_one_over_mixed_denominators(rates):
    leaves = [f"y{i}" for i in range(len(rates))]
    L = make_landscape(
        {"x": 0, **dict.fromkeys(leaves, 1)},
        [("x", y, q) for y, q in zip(leaves, rates)],
    )
    assert sum(L.rate("x", y) for y in leaves) == 1


@pytest.mark.parametrize(
    "rates, total",
    [(["0.5", "0.500000001"], "1000000001/1000000000"), (["1/2", "1/3", "1/5"], "31/30")],
)
def test_row_sum_just_over_one(rates, total):
    leaves = [f"y{i}" for i in range(len(rates))]
    message = f"outgoing rates of 'x' sum to {total} > 1"
    with pytest.raises(RowSumExceedsOne, match=f"^{re.escape(message)}$"):
        make_landscape(
            {"x": 0, **dict.fromkeys(leaves, 1)},
            [("x", y, q) for y, q in zip(leaves, rates)],
        )


def test_default_rates_fill_the_maximum_degree_row():
    # a 3x3 grid: the centre has degree 4, so every default rate is 1/4
    edges = [(f"r{r}c{c}", f"r{r}c{c + 1}") for r in range(3) for c in range(2)]
    edges += [(f"r{r}c{c}", f"r{r + 1}c{c}") for r in range(2) for c in range(3)]
    L = make_landscape({f"r{r}c{c}": 0 for r in range(3) for c in range(3)}, edges)
    assert sum(L.rate("r1c1", y) for y in L.neighbors("r1c1")) == 1
    assert all(L.rate(a, b) == Fraction(1, 4) for a, b in edges)


def test_duplicate_state():
    doc = {"states": [{"id": "x", "energy": "0"}, {"id": "x", "energy": "1"}], "edges": []}
    with pytest.raises(DuplicateState):
        load_landscape(json.dumps(doc))


def test_unknown_state_in_edge():
    with pytest.raises(UnknownStateInEdge):
        make_landscape({"x": 0, "y": 1}, [("x", "z")])


def test_disconnected_graph():
    with pytest.raises(DisconnectedGraph):
        make_landscape({"x": 0, "y": 1, "z": 2}, [("x", "y")])


def test_self_edge_rejected():
    with pytest.raises(MalformedInput):
        make_landscape({"x": 0, "y": 1}, [("x", "x"), ("x", "y")])


def test_zero_rate_rejected():
    with pytest.raises(MalformedInput):
        make_landscape({"x": 0, "y": 1}, [("x", "y", "0")])


def test_float_energy_rejected():
    with pytest.raises(MalformedInput):
        make_landscape({"x": 0.5, "y": 1}, [("x", "y")])
    doc = {"states": [{"id": "x", "energy": 0.5}], "edges": []}
    with pytest.raises(MalformedInput):
        load_landscape(json.dumps(doc))


# every entry point that takes an exact energy from a caller
ENERGY_ENTRIES = {
    "energy_value": lambda L, v: L.energy_value(v),
    "seed_costs": lambda L, v: initial_level(L, {**metropolis_seed(L), ("a", "b"): v}),
}


@pytest.mark.parametrize("value", [None, [1], {}, 1.5, True], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENERGY_ENTRIES))
def test_inexact_energy_values_are_malformed(fig1, entry, value):
    with pytest.raises(MalformedInput):
        ENERGY_ENTRIES[entry](fig1, value)


def test_energy_at_another_scale_rejected(fig1):
    # units order a landscape's energies only if they share its scale
    with pytest.raises(ScaleOverflow):
        make_landscape({"x": Energy(1, 10), "y": 0}, [("x", "y")])
    for entry in ENERGY_ENTRIES.values():
        with pytest.raises(ScaleOverflow):
            entry(fig1, Energy(5, 10))
    assert fig1.energy_value(Energy(5, fig1.scale)) == Energy(5, fig1.scale)


@pytest.mark.parametrize("scale", [True, False, 0, -3, "1000", 1.5])
def test_energy_scale_must_be_a_positive_int(scale):
    doc = {"energy_scale": scale, "states": [{"id": "x", "energy": "0"}], "edges": []}
    with pytest.raises(MalformedInput):
        load_landscape(json.dumps(doc))
    with pytest.raises(MalformedInput):
        make_landscape({"x": 0}, [], scale)


def test_scale_overflow_on_load():
    doc = {
        "energy_scale": 1000,
        "states": [{"id": "x", "energy": "0.0001"}, {"id": "y", "energy": "1"}],
        "edges": [["x", "y"]],
    }
    with pytest.raises(ScaleOverflow):
        load_landscape(json.dumps(doc))


def test_malformed_json():
    with pytest.raises(MalformedInput):
        load_landscape("{not json")
    with pytest.raises(MalformedInput):
        load_landscape("[]")
    with pytest.raises(MalformedInput):
        load_landscape("{}")


def test_bytes_that_are_not_utf8_are_malformed():
    with pytest.raises(MalformedInput):
        load_landscape(b"\xff")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_pauses_the_collector_and_restores_the_callers_state(monkeypatch, enabled):
    # the parse and the build run with the cyclic collector off; a load that
    # succeeds, one of malformed JSON and one of a malformed entry leave the
    # collector as the caller had it
    from basincycles import landscape

    seen = []

    def watch(module, attr):
        original = getattr(module, attr)

        def watched(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, watched)

    watch(json, "loads")
    watch(landscape, "_build")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    after = []
    try:
        load_landscape(FIG1_PATH.read_text(encoding="utf-8"))
        after.append(gc.isenabled())
        for text in ("{not json", '{"states": [1]}'):
            with pytest.raises(MalformedInput):
                load_landscape(text)
            after.append(gc.isenabled())
    finally:
        (gc.enable if was else gc.disable)()
    assert after == [enabled] * 3
    assert seen == [False] * 5  # three parses, two of which reach the build


FAULTS = [
    None, "duplicate", "unknown", "self", "range", "conflict", "mixed", "row",
    "disconnected", "infinite", "huge", "unrepresentable", "digits", "inexact", "scale",
    "empty", "rate", "entry",
]


@st.composite
def _documents(draw, max_faults=1):
    """A landscape document on 2-8 states (a random spanning tree, extra and
    repeated edges, energies as ints, whole, decimal and fraction strings,
    explicit rates up to 1/8) with at most ``max_faults`` injected faults,
    applied in ``FAULTS`` order, as JSON text."""
    scale = draw(st.sampled_from([10, 1000, DEFAULT_SCALE]))
    n = draw(st.integers(2, 8))
    ids = [f"s{i}" for i in range(n)]
    forms = [
        lambda k: k, str, lambda k: f" {k} ", lambda k: f"{k}.5", lambda k: f"{k}/2",
        lambda k: f"+{k}" if k >= 0 else str(k),
    ]
    states = [
        {"id": sid, "energy": draw(st.sampled_from(forms))(draw(st.integers(-5, 5)))}
        for sid in ids
    ]
    pairs = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8))
    rates = st.sampled_from([None, "1/8", "0.1", "1/9", "1/20", "0.125"])
    chosen = {}
    edges = []
    for x, y in pairs:
        if x == y:
            continue
        key = frozenset((x, y))
        q = chosen.setdefault(key, draw(rates))
        x, y = (y, x) if draw(st.booleans()) else (x, y)
        if q is not None:
            edges.append({"pair": [x, y], "q": q})
        else:
            edges.append(draw(st.sampled_from([[x, y], {"pair": [x, y]}])))
    doc = {"energy_scale": scale, "states": states, "edges": edges}
    a, b = ids[0], ids[1]
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=max_faults, unique=True))
    for fault in sorted(faults, key=FAULTS.index):
        if fault == "duplicate":
            states.append({"id": draw(st.sampled_from(ids)), "energy": "0"})
        elif fault == "unknown":
            edges.append(draw(st.sampled_from([[a, "zz"], {"pair": ["zz", b], "q": "1/8"}])))
        elif fault == "self":
            edges.append([b, b])
        elif fault == "range":
            edges.append({"pair": [a, b], "q": draw(st.sampled_from(["0", "-1/2", "3/2", 2]))})
        elif fault == "conflict":
            edges += [{"pair": [a, b], "q": "1/10"}, {"pair": [b, a], "q": "1/11"}]
        elif fault == "mixed":
            edges += [{"pair": [a, b], "q": "1/10"}, [b, a]]
        elif fault == "row":
            states += [{"id": "r1", "energy": 0}, {"id": "r2", "energy": 0}]
            edges += [{"pair": [a, "r1"], "q": "3/4"}, {"pair": ["r2", a], "q": "0.75"}]
        elif fault == "disconnected":
            states.append({"id": "zz", "energy": 0})
        elif fault == "infinite":
            states[-1]["energy"] = draw(st.sampled_from(["inf", " inf "]))
        elif fault == "huge":  # past float range, or either side of 2**1000 units
            states[-1]["energy"] = draw(st.sampled_from([
                "3e308", "-4e308", "1e400", f"{2**1000}/{scale}", f"-{2**1000 + 1}/{scale}",
            ]))
        elif fault == "unrepresentable":
            states[-1]["energy"] = draw(st.sampled_from(["1/3", "0.0000001", "1/7"]))
        elif fault == "digits":
            states[-1]["energy"] = draw(st.sampled_from(["9" * 5000, "-" + "1" * 4301]))
        elif fault == "inexact":
            states[-1]["energy"] = draw(st.sampled_from([1.5, True, None, [1], "two", "1/0"]))
        elif fault == "scale":
            doc["energy_scale"] = draw(st.sampled_from([0, -3, True, "1000", 1.5]))
        elif fault == "empty":
            states.clear()
        elif fault == "rate":
            edges.append({"pair": [a, b], "q": draw(st.sampled_from([0.5, True, "x", "1/0"]))})
        elif fault == "entry":
            target = draw(st.sampled_from(["state", "edge", "pair"]))
            if target == "state":
                states.append({"id": "zz"})
            elif target == "edge":
                edges.append([a, b, "1/8"])
            else:
                edges.append({"pair": [a], "q": "1/8"})
    return json.dumps(doc)


def _outcome(load, text):
    try:
        return load(text)
    except Exception as exc:  # the class and the message are the outcome
        return type(exc), str(exc)


def _parts(L):
    return SimpleNamespace(
        states=L.states,
        scale=L.scale,
        units={s: L.units(s) for s in L.states},
        rates={frozenset(p): L.rate(*p) for p in L.edge_pairs()},
        adjacency={s: L.neighbors(s) for s in L.states},
        explicit=frozenset(
            frozenset(e["pair"]) for e in landscape_to_dict(L)["edges"] if isinstance(e, dict)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_loader_matches_the_reference(text):
    got = _outcome(load_landscape, text)
    want = _outcome(reference_landscape, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _parts(got) == want


@settings(max_examples=300, deadline=None)
@given(_documents(max_faults=4))
def test_the_first_of_several_faults_wins_as_in_the_reference(text):
    # the loader walks each entry list once and holds a fault until the
    # walks end; the reference checks in stages, one pass per stage
    got = _outcome(load_landscape, text)
    want = _outcome(reference_landscape, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _parts(got) == want


def test_row_of_an_explicit_and_default_rates_over_one():
    # four default edges make the default 1/4; l1 adds an explicit 0.9
    doc = {
        "states": [{"id": s, "energy": "0"} for s in ("h", "l1", "l2", "l3", "l4", "c")],
        "edges": [["h", "l1"], ["h", "l2"], ["h", "l3"], ["h", "l4"],
                  {"pair": ["c", "l1"], "q": "0.9"}],
    }
    text = json.dumps(doc)
    message = "outgoing rates of 'l1' sum to 23/20 > 1"
    assert _outcome(reference_landscape, text) == (RowSumExceedsOne, message)
    with pytest.raises(RowSumExceedsOne, match=f"^{re.escape(message)}$"):
        load_landscape(text)


def test_loading_a_grid_builds_no_energy_and_one_default_rate(monkeypatch):
    """Energies load as int units, and every defaulted edge shares one rate."""
    text = grid_text(12, 1000, 5)
    made = {Energy: [], Fraction: []}
    energy_init, fraction_new = Energy.__init__, Fraction.__new__

    def counting_init(self, *args, **kwargs):
        made[Energy].append(args)
        energy_init(self, *args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        made[Fraction].append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Energy, "__init__", counting_init)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    L = load_landscape(text)
    assert L.n == 144 and L.edge_count == 264
    assert made == {Energy: [], Fraction: [(1, 4)]}
    L.energy("r0c0")
    assert len(made[Energy]) == 1


@pytest.mark.parametrize("foreign", ["", "0", "b0", "zz", "A"])
def test_name_views_of_non_edges_and_foreign_names(fig1, foreign):
    # rate is 0 off the edges, on the diagonal and for a name the landscape
    # does not hold, whichever side of the held names it sorts to; units,
    # energy and neighbors raise for such a name
    edges = set(fig1.edge_pairs())
    names = sorted(fig1.states)
    for x, y in combinations(names, 2):
        if (x, y) not in edges:
            assert fig1.rate(x, y) == 0 and fig1.rate(y, x) == 0
    for x in names:
        assert fig1.rate(x, x) == 0
        assert fig1.rate(x, foreign) == 0 and fig1.rate(foreign, x) == 0
    assert fig1.rate(foreign, foreign) == 0
    assert not fig1.has_state(foreign)
    for view in (fig1.units, fig1.energy, fig1.neighbors):
        with pytest.raises(ForeignState, match=f"^unknown state {re.escape(repr(foreign))}$"):
            view(foreign)
    with pytest.raises(ForeignState):
        fig1.subset(["a", foreign])


def test_equality_compares_effective_rates():
    # b has degree 2, so the default rate is 1/2: an explicit 1/2 is the
    # default, and only a different explicit rate makes another landscape
    energies = {"a": 0, "b": "1.5", "c": 0}
    bare = make_landscape(energies, [("a", "b"), ("b", "c")])
    stated = make_landscape(dict(reversed(energies.items())), [("b", "c", "1/2"), ("a", "b")])
    other = make_landscape(energies, [("a", "b"), ("b", "c", "1/4")])
    assert bare == stated and stated == bare
    assert hash(bare) == hash(stated)
    assert bare != other and stated != other
    assert bare.rate("c", "b") == stated.rate("b", "c") == Fraction(1, 2)
    assert other.rate("c", "b") == Fraction(1, 4)


@pytest.mark.parametrize(
    "energies, scale",
    [
        (["0", "inf", "0", "inf", "inf"], 1000),
        (["1/3", "2", "1/3", "2", "1/3"], 10),
        (["2", "0.5", "2", "1/3", "0.5", "1/3"], 10),
        ([" inf", "inf", " inf"], 1000),
    ],
)
def test_states_sharing_a_failing_energy_text_fail_as_in_the_reference(energies, scale):
    # each distinct energy text is parsed once per load; the first state
    # that holds a failing text is the one reported, as in the reference
    ids = [f"s{k}" for k in range(len(energies))]
    doc = {
        "energy_scale": scale,
        "states": [{"id": sid, "energy": e} for sid, e in zip(ids, energies)],
        "edges": [list(pair) for pair in zip(ids, ids[1:])],
    }
    text = json.dumps(doc)
    want = _outcome(reference_landscape, text)
    assert isinstance(want, tuple) and want[0] in (MalformedInput, ScaleOverflow)
    assert _outcome(load_landscape, text) == want


def test_a_loaded_grid_retains_its_numbering_only():
    # the numbering is the one stored form, and states with one energy text
    # share its int: a 100x100 grid retains about 2.4 MB under tracemalloc,
    # against 7.4 MB when a name-keyed copy was stored beside the numbering
    text = grid_text(100, 1000, 1)
    tracemalloc.start()
    try:
        L = load_landscape(text)
        L.numbering()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert L.n == 10_000
    assert retained < 3_500_000


def test_round_trip_bit_exact(fig1):
    text = dumps_landscape(fig1)
    again = load_landscape(text)
    assert again == fig1
    assert dumps_landscape(again) == text
    # defaulted rates stay bare pairs so the 1/2 default survives exactly
    doc = json.loads(text)
    assert all(isinstance(e, list) for e in doc["edges"])


def test_round_trip_explicit_rates():
    L = make_landscape({"x": 0, "y": "0.25"}, [("x", "y", "1/3")], scale=4)
    text = dumps_landscape(L)
    doc = json.loads(text)
    assert doc["edges"][0]["q"] == "1/3"
    assert load_landscape(text) == L


_JSON_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.characters(categories=["Cs"]),  # lone surrogates
        st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028'),
    ),
    max_size=8,
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, True, False, 2**63, -(2**63) - 1, 10**30]),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-1e300)]),
    _JSON_TEXT,
    st.lists(_JSON_TEXT, max_size=6),  # the one-pass string arrays
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=6),
    ),
    max_leaves=10,
)


def _as_rendered(value):
    """``value`` with every list handed in as a ``Rendered`` array, each
    entry written at the depth it is given."""
    if isinstance(value, list):
        items = [_as_rendered(item) for item in value]

        def entries(newline):
            for item in items:
                pieces = []
                write_json(item, pieces.append, newline)
                yield "".join(pieces)

        return Rendered(entries)
    if isinstance(value, dict):
        return {key: _as_rendered(item) for key, item in value.items()}
    return value


@given(_JSON_TREES)
@example(["a", "b", 1, ["c"], "d"])
@example({"": [], "k": {}, "t": ("x", None)})
@example({"q": ['"', "a\\b", "\u00e9\u2603", "\ud800"], "one": ["x"], "none": [], "deep": [["\\"], []]})
def test_writer_matches_the_stdlib(value):
    want = json.dumps(value, indent=2)
    pieces = []
    write_json(value, pieces.append)
    assert "".join(pieces) == want
    assert dumps_json(value) == want
    assert dumps_json(_as_rendered(value)) == want


@pytest.mark.parametrize(
    "value",
    [{1: "a"}, {"a": {None: 1}}, object(), ["a", object()], ["a", b"x"], np.int64(1)],
    ids=["int-key", "nested-none-key", "object", "object-in-list", "bytes-in-strings", "numpy-int"],
)
def test_writer_rejects_what_it_cannot_encode(value):
    with pytest.raises(TypeError):
        dumps_json(value)


def test_exterior_boundary(fig1):
    assert exterior_boundary(fig1, {"i", "j"}) == {"h", "k"}
    assert exterior_boundary(fig1, set("abcdefghijk")) == frozenset()
    assert exterior_boundary(fig1, {"e"}) == {"d", "f"}
    with pytest.raises(EmptySet):
        exterior_boundary(fig1, set())
    with pytest.raises(ForeignState):
        exterior_boundary(fig1, {"zz"})


def test_boundary_disjoint_with_edge_into_set():
    rng = random.Random(7)
    for i in range(40):
        L = random_landscape(seed=500 + i, max_states=8)
        members = set(rng.sample(sorted(L.states), rng.randint(1, L.n)))
        out = exterior_boundary(L, members)
        assert not (out & members)
        for y in out:
            assert any(L.rate(y, x) > 0 for x in members)


def test_kernel_two_state_values(two_state):
    beta = math.log(2.0)
    kern = transition_matrix(two_state, beta)
    assert kern.prob("x", "y") == pytest.approx(0.25)
    assert kern.prob("y", "x") == pytest.approx(0.5)
    assert kern.prob("x", "x") == pytest.approx(0.75)
    assert kern.prob("y", "y") == pytest.approx(0.5)


def test_kernel_flat_landscape_beta_free():
    L = make_landscape({"x": 3, "y": 3, "z": 3}, [("x", "y"), ("y", "z"), ("x", "z")])
    for beta in (0.5, 2.0, 9.0):
        kern = transition_matrix(L, beta)
        assert kern.prob("x", "y") == pytest.approx(float(L.rate("x", "y")))
        assert kern.prob("z", "y") == pytest.approx(float(L.rate("z", "y")))


def test_kernel_no_edge_means_zero(fig1):
    assert transition_matrix(fig1, 2.0).prob("e", "g") == 0.0


def test_jump_tables(fig1):
    # each row lists exactly the states reachable in one step, padded with
    # its last one; the CDF ends at exactly 1 and leave is the off-diagonal
    # row sum, so a draw never lands off the row's neighbours
    for beta in (0.0, 1.0, 7.3):
        kern = transition_matrix(fig1, beta)
        leave, nbr, cdf = kern.jumps()
        matrix = dense_kernel(kern)
        assert nbr.shape == cdf.shape == (fig1.n, 2)
        for x, s in enumerate(kern.states):
            reach = [kern.states.index(t) for t in fig1.neighbors(s)]
            reach = sorted(y for y in reach if matrix[x, y] > 0)
            degree = len(reach)
            assert list(nbr[x, :degree]) == reach
            assert (nbr[x, degree:] == reach[-1]).all()
            assert (matrix[x, nbr[x]] > 0).all()
            assert (cdf[x, degree - 1 :] == 1.0).all()
            assert (np.diff(cdf[x]) >= 0).all()
            off = math.fsum(kern.prob(s, t) for t in fig1.neighbors(s))
            assert leave[x] == pytest.approx(off, rel=1e-15)
            mass = np.diff(cdf[x, :degree], prepend=0.0) * leave[x]
            assert mass == pytest.approx(matrix[x, reach], rel=1e-12)


def test_jump_tables_leave_survives_cancellation(fig1):
    # at beta 40 the holding probability rounds to exactly 1, but the
    # off-diagonal sum keeps i's exit rate
    kern = transition_matrix(fig1, 40.0)
    i = kern.states.index("i")
    leave, nbr, _ = kern.jumps()
    assert 1.0 - dense_kernel(kern)[i, i] == 0.0
    assert leave[i] > 0
    assert leave[i] == pytest.approx(0.5 * math.exp(-40.0), rel=1e-12)
    assert sorted(kern.states[y] for y in nbr[i]) == ["h", "j"]


def test_jump_tables_single_state():
    leave, nbr, cdf = transition_matrix(make_landscape({"x": 0}, []), 1.0).jumps()
    assert leave.tolist() == [0.0]
    assert nbr.tolist() == [[0]]
    assert cdf.tolist() == [[1.0]]


def test_kernel_rows_and_entries(fig1):
    for beta in (0.3, 1.0, 4.0):
        matrix = dense_kernel(transition_matrix(fig1, beta))
        sums = matrix.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert (matrix >= 0).all() and (matrix <= 1).all()


def test_kernel_detailed_balance(fig1):
    beta = 1.7
    kern = transition_matrix(fig1, beta)
    seed = initial_level(fig1).cost_units
    for x, y in fig1.edge_pairs():
        hx, hy = fig1.energy(x), fig1.energy(y)
        # exact form: the climbed-to level is the max of the two energies
        assert hx.units + seed[frozenset(x)][frozenset(y)] == max(hx.units, hy.units)
        lhs = math.exp(-beta * hx.to_float()) * kern.prob(x, y)
        rhs = math.exp(-beta * hy.to_float()) * kern.prob(y, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize(
    "beta", [math.nan, math.inf, float("1e400")], ids=["nan", "inf", "1e400"]
)
def test_kernel_rejects_nonfinite_beta(fig1, beta):
    # at beta = inf a zero climb gives inf * 0 = NaN on the edge
    with pytest.raises(NonpositiveBeta):
        transition_matrix(fig1, beta)


def test_kernel_prob_of_an_unknown_state_is_foreign(fig1):
    kern = transition_matrix(fig1, 1.0)
    for x, y in (("a", "zz"), ("zz", "a"), ("zz", "zz")):
        with pytest.raises(ForeignState):
            kern.prob(x, y)


def test_kernel_memory_is_linear_in_the_edges():
    # a dense 5000 x 5000 float64 matrix alone would take 200 MB
    ids = [f"s{i}" for i in range(5000)]
    L = make_landscape({s: i % 7 for i, s in enumerate(ids)}, list(zip(ids, ids[1:])))
    tracemalloc.start()
    try:
        transition_matrix(L, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


JUMP_BETAS = (0.0, 1.0, 7.3, 40.0, 300.0)


def assert_jumps_match_dense(landscape):
    for beta in JUMP_BETAS:
        got = transition_matrix(landscape, beta).jumps()
        for table, want in zip(got, reference_jumps(landscape, beta)):
            assert table.dtype == want.dtype
            assert np.array_equal(table, want)


def redeclared(landscape, order):
    """The same landscape with its states declared in ``order``."""
    edges = [(x, y, landscape.rate(x, y)) for x, y in landscape.edge_pairs()]
    return make_landscape([(s, landscape.energy(s)) for s in order], edges)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_jump_tables_match_the_dense_reference(data):
    L = draw_landscape(data)
    assert_jumps_match_dense(redeclared(L, data.draw(st.permutations(L.states))))


def test_jump_tables_match_the_dense_reference_on_random_landscapes():
    # the tables are laid out in id order whatever the declaration order,
    # which most of these landscapes shuffle; at beta 300 a climb of 3
    # units or more underflows to 0.0 and is no jump
    shuffled = wide = dropped = 0
    for seed in range(150):
        L = random_landscape(seed=seed, min_states=3, max_states=14, extra_edge_prob=0.3)
        shuffled += list(L.states) != sorted(L.states)
        wide += max(len(L.neighbors(s)) for s in L.states) > 2
        kern = transition_matrix(L, 300.0)
        dropped += any(kern.prob(x, y) == 0.0 for x in L.states for y in L.neighbors(x))
        assert_jumps_match_dense(L)
    assert min(shuffled, wide, dropped) > 100


def test_equal_landscapes_give_one_kernel(fig1):
    # the kernel's rows are the numbering's ids, so fig1 declared in any
    # order has fig1's tables and entries
    pairs = [(x, y) for x in fig1.states for y in fig1.states]
    for beta in (0.0, 1.0, 7.3, 40.0):
        want = transition_matrix(fig1, beta)
        for k in range(6):
            shuffled = make_fig1_shuffled(random.Random(k))
            assert shuffled.states != fig1.states
            kernel = transition_matrix(shuffled, beta)
            assert kernel.states is shuffled.numbering()[0]
            assert kernel.states == want.states
            for table, expected in zip(kernel.jumps(), want.jumps()):
                assert table.dtype == expected.dtype
                assert np.array_equal(table, expected)
            assert [kernel.prob(x, y) for x, y in pairs] == [want.prob(x, y) for x, y in pairs]


def test_random_landscapes_validate():
    for i in range(50):
        L = random_landscape(seed=i, min_states=2, max_states=10, max_energy=6)
        assert 2 <= L.n <= 10
        # every row is sub-stochastic by construction
        for s in L.states:
            assert sum(L.rate(s, t) for t in L.neighbors(s)) <= 1


@pytest.fixture(scope="session")
def grids8():
    return [load_landscape((DATA / f"grid8-{e}.json").read_text(encoding="utf-8")) for e in ("e2", "e1000")]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_climb_in_units(fig1, grids8, data):
    # the seed, its validation and the kernel compute the int-unit climb on
    # the numbering's ids; a seed given as ``Energy`` values by name is the
    # same round 0 as the one loop that builds the Metropolis rows and exits,
    # on fig1, both 8x8 grids and drawn landscapes
    for L in (fig1, *grids8, draw_landscape(data)):
        assert initial_level(L, metropolis_seed(L)) == initial_level(L)
    climbs = {
        (x, y): max(0, fig1.units(y) - fig1.units(x))
        for x in sorted(fig1.states)
        for y in fig1.neighbors(x)
    }
    made = []
    original = Energy.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Energy, "__init__", counting)
        level = initial_level(fig1)
        assert level.cost_units[frozenset("a")][frozenset("b")] == climbs[("a", "b")]
        transition_matrix(fig1, 2.0)
    assert made == []
