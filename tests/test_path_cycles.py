"""The sweep enumeration and the cycle tree, against the definitions."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from basincycles import (
    Energy,
    INFINITY,
    brute_force_path_cycles,
    enumerate_path_cycles,
    load_landscape,
    make_landscape,
)
from basincycles.energy import from_units
from basincycles.errors import NotACycle
from basincycles.landscape import dumps_json
from basincycles.pathcycles import set_key, tree_to_dict, tree_to_dot

from conftest import (
    DATA,
    FIG1_PATH,
    draw_landscape,
    floor_units,
    grid_text,
    make_fig1_shuffled,
    reference_tree,
    sublevel,
)

FIG1_CYCLES = (
    [frozenset(s) for s in "abcdefghijk"]
    + [
        frozenset("cdef"),
        frozenset("ij"),
        frozenset("hij"),
        frozenset("cdefghij"),
        frozenset("abcdefghijk"),
    ]
)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sweep_matches_oracle(data):
    L = draw_landscape(data)
    assert enumerate_path_cycles(L).member_sets() == brute_force_path_cycles(L)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sweep_tree_matches_definitions(data):
    # the links and quantities recorded during the sweep against their
    # definitions: parent = smallest strict superset among the oracle's
    # cycles, and each quantity recomputed from the members
    L = draw_landscape(data)
    oracle = brute_force_path_cycles(L)
    tree = enumerate_path_cycles(L)
    for node in tree.nodes:
        supersets = [c for c in oracle if node.members < c]
        if supersets:
            assert node.parent.members == min(supersets, key=len)
            assert node in node.parent.children
        else:
            assert node.parent is None and node is tree.root
        keys = [set_key(child.members) for child in node.children]
        assert keys == sorted(keys)
        floor = floor_units(L, node.members)
        low = min(map(L.units, node.members))
        high = max(map(L.units, node.members))
        assert (node.low, node.high, node.floor) == (low, high, floor)
        assert node.depth == from_units(floor - low, L.scale)
        assert node.resistance == Energy(high - low, L.scale)
        assert node.ground == {x for x in node.members if L.units(x) == low}
        assert node.nontrivial == (len(node.members) > 1 or high < floor)


def _assert_matches_reference_tree(L):
    tree = enumerate_path_cycles(L)
    expected = reference_tree(L)
    assert len(tree.nodes) == len(expected)
    index = {node: i for i, node in enumerate(tree.nodes)}
    for node, ref in zip(tree.nodes, expected):
        assert node.members == ref.members
        assert node.ground == ref.ground
        assert (node.low, node.high, node.floor) == (ref.low, ref.high, ref.floor)
        assert node.nontrivial == ref.nontrivial
        assert (None if node.parent is None else index[node.parent]) == ref.parent
        assert [index[child] for child in node.children] == ref.children
    assert index[tree.root] == len(expected) - 1
    # the export renders the leaves straight from the template and only the
    # formed nodes from sorted slices and merged grounds; the reference
    # builds every node's sets by name
    want = [
        {
            "members": sorted(ref.members),
            "gamma": str(from_units(ref.floor - ref.low, L.scale)),
            "gamma_tilde": str(Energy(ref.high - ref.low, L.scale)),
            "ground": sorted(ref.ground),
            "parent_index": ref.parent,
        }
        for ref in expected
    ]
    assert tree_to_dict(tree)["nodes"] == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_matches_the_reference_tree(data):
    _assert_matches_reference_tree(draw_landscape(data))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(lambda: FIG1_PATH.read_text(encoding="utf-8"), id="fig1"),
        pytest.param(lambda: (DATA / "grid8-e2.json").read_text(encoding="utf-8"), id="grid8-e2"),
        pytest.param(lambda: (DATA / "grid8-e1000.json").read_text(encoding="utf-8"), id="grid8-e1000"),
        *(pytest.param(lambda s=s: grid_text(12, 2, s), id=f"grid12-e2-s{s}") for s in (1, 2, 3)),
        pytest.param(lambda: '{"states": [{"id": "a", "energy": "3"}]}', id="one-state"),
    ],
)
def test_fixed_inputs_match_the_reference_tree(text):
    _assert_matches_reference_tree(load_landscape(text()))


def test_sweep_retains_memory_linear_in_the_states():
    # a 40 x 40 grid with energies 0..1000 has about 2,560 nodes that hold
    # about 95,000 members together; a tree with a member set per node
    # retained 24 MB here, the int records and the numbering about 1 MB
    L = load_landscape(grid_text(40, 1000, 1))
    tracemalloc.start()
    try:
        tree = enumerate_path_cycles(L)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree) == 2559
    assert retained < 5_000_000


def test_fig1_enumeration(fig1):
    tree = enumerate_path_cycles(fig1)
    assert tree.member_sets() == set(FIG1_CYCLES)
    assert len(tree) == 16
    assert tree.root.members == frozenset("abcdefghijk")


def test_two_state_enumeration(two_state):
    tree = enumerate_path_cycles(two_state)
    assert tree.member_sets() == {frozenset("x"), frozenset("y"), frozenset("xy")}


def test_depth_and_resistance(fig1):
    tree = enumerate_path_cycles(fig1)
    assert tree.node({"i", "j"}).depth == Energy.from_int(3)
    assert tree.node({"i", "j"}).resistance == Energy.from_int(1)
    assert tree.node({"h", "i", "j"}).depth == Energy.from_int(4)
    assert tree.node({"h", "i", "j"}).resistance == Energy.from_int(3)
    assert tree.node({"g"}).resistance == Energy.from_int(0)
    assert tree.node(frozenset("abcdefghijk")).depth is INFINITY
    with pytest.raises(NotACycle):
        tree.node({"d", "e", "f"})


def test_tree_structure(fig1):
    tree = enumerate_path_cycles(fig1)
    assert tree.node({"i", "j"}).parent.members == frozenset("hij")
    assert tree.node({"c"}).parent.members == frozenset("cdef")
    assert tree.node({"h"}).parent.members == frozenset("hij")
    root_children = {frozenset(c.members) for c in tree.root.children}
    assert root_children == {
        frozenset("a"),
        frozenset("b"),
        frozenset("k"),
        frozenset("cdefghij"),
    }
    assert tree.root.parent is None
    for node in tree.nodes:
        kids = node.children
        for a_i in range(len(kids)):
            for b_i in range(a_i + 1, len(kids)):
                assert not (kids[a_i].members & kids[b_i].members)
        if kids:
            assert frozenset().union(*(c.members for c in kids)) <= node.members


def test_singleton_trivial_flags(fig1):
    tree = enumerate_path_cycles(fig1)
    # a is a local minimum (its only neighbor is above), so its singleton
    # is a nontrivial cycle; b sits on a peak, so its singleton is trivial
    assert tree.node({"a"}).nontrivial
    assert not tree.node({"b"}).nontrivial
    assert tree.node({"i"}).nontrivial
    assert tree.node({"e"}).nontrivial is False  # flat neighbor at equal energy


def test_resistance_below_depth_on_nontrivial():
    # the defining strict inequality, relative to the ground
    for seed in range(40):
        L = make_landscape(
            *_random_chainlike(seed)
        )
        tree = enumerate_path_cycles(L)
        for node in tree.nodes:
            if node.nontrivial:
                assert node.resistance.units < node.depth.units, sorted(node.members)


def _random_chainlike(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    ids = [f"s{i}" for i in range(n)]
    edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(ids, 2)
        edges.add((min(a, b), max(a, b)))
    return {s: rng.randint(0, 5) for s in ids}, sorted(edges)


def test_nesting_invariant(fig1):
    sets = sorted(enumerate_path_cycles(fig1).member_sets(), key=len)
    for i, small in enumerate(sets):
        for big in sets[i + 1 :]:
            overlap = small & big
            assert not overlap or small <= big or big <= small


def test_disjoint_nontrivial_cycles_not_connected(fig1):
    tree = enumerate_path_cycles(fig1)
    nontrivial = [n.members for n in tree.nodes if len(n.members) > 1]
    for a in nontrivial:
        for b in nontrivial:
            if a & b:
                continue
            touching = any(fig1.rate(x, y) > 0 for x in a for y in b)
            assert not touching


def test_level_set_characterization(fig1):
    tree = enumerate_path_cycles(fig1)
    for node in tree.nodes:
        if len(node.members) == 1:
            continue
        top = max(map(fig1.units, node.members))
        for x in node.members:
            if fig1.units(x) == top:
                assert sublevel(fig1, x, top) == node.members
        for x in node.members:
            assert sublevel(fig1, x, fig1.units(x)) <= node.members


def test_node_count_bound():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        ids = [f"s{i}" for i in range(n)]
        edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
        L = make_landscape({s: rng.randint(0, 4) for s in ids}, sorted(edges))
        tree = enumerate_path_cycles(L)
        assert len(tree) <= 2 * n - 1
        assert all(frozenset((s,)) in tree.member_sets() for s in ids)


def test_single_state_tree():
    L = make_landscape({"only": 7}, [])
    tree = enumerate_path_cycles(L)
    assert len(tree) == 1
    assert tree.root.members == {"only"}
    assert tree.root.depth is INFINITY


def test_enumeration_order_independent(fig1):
    base = tree_to_dict(enumerate_path_cycles(fig1))
    for seed in (3, 17, 23):
        shuffled = make_fig1_shuffled(random.Random(seed))
        assert tree_to_dict(enumerate_path_cycles(shuffled)) == base


def test_exports(fig1):
    tree = enumerate_path_cycles(fig1)
    doc = json.loads(dumps_json(tree_to_dict(tree)))  # the document as written
    assert len(doc["nodes"]) == 16
    by_members = {tuple(n["members"]): n for n in doc["nodes"]}
    ij = by_members[("i", "j")]
    assert ij["gamma"] == "3" and ij["gamma_tilde"] == "1"
    assert ij["ground"] == ["i"]
    assert doc["nodes"][by_members[("i", "j")]["parent_index"]]["members"] == [
        "h",
        "i",
        "j",
    ]
    root = by_members[tuple(sorted("abcdefghijk"))]
    assert root["gamma"] == "inf" and root["parent_index"] is None

    dot = "".join(tree_to_dot(tree))
    assert dot.startswith("digraph")
    assert dot.count("->") == 15  # tree edges
