"""The verifier against ``conftest.reference_verify``, the member-set verifier
it replaced: the same report, entry for entry, on honest traces and on
tampered ones."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from basincycles import equivalence, load_landscape, random_landscape, verify_equivalence
from basincycles.equivalence import report_to_dict
from basincycles.landscape import exterior_boundary

from conftest import DATA, FIG1_PATH, draw_landscape, reference_verify
from test_equivalence import _bump_cost, _bump_exit, _bump_merge, _fresh_with_single

# ``fuzz`` builds landscape i of a campaign from this seed
FUZZ_SEED_STRIDE = 1_000_003
FIXTURES = ["fig1.json", "grid8-e2.json", "grid8-e1000.json"]
BAD = {FIG1_PATH: frozenset("ac"), DATA / "grid8-e2.json": frozenset(("r0c0", "r0c2"))}


def _same_report(landscape) -> dict:
    got = report_to_dict(verify_equivalence(landscape))
    assert got == report_to_dict(reference_verify(landscape))
    return got


def _tamper(monkeypatch, edit):
    """Hand each verifier a fresh trace, edited by ``edit(landscape, trace)``."""
    original = equivalence.run_decomposition

    def tampered(landscape, *args, **kwargs):
        trace = original(landscape, *args, **kwargs)
        return edit(landscape, trace) or trace

    monkeypatch.setattr(equivalence, "run_decomposition", tampered)


def _fixture(name):
    return load_landscape((DATA / name).read_text())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_the_reference_on_drawn_landscapes(data):
    _same_report(draw_landscape(data))


def test_matches_the_reference_on_a_fuzz_campaign():
    # the 300 landscapes of ``fuzz --seed 10 --count 300``
    for i in range(300):
        _same_report(random_landscape(seed=10 * FUZZ_SEED_STRIDE + i))


@pytest.mark.parametrize("name", FIXTURES)
def test_matches_the_reference_on_the_fixtures(name):
    assert _same_report(_fixture(name))["ok"]


def _add_bad(bad):
    """A tamper that puts the disconnected set ``bad`` among the cycles and
    the classes of one round."""

    def add_bad(landscape, trace, level, big, single):
        levels = list(trace.levels)
        members = {**level.members, max(level.members) + 1: bad}
        levels[level.index] = dataclasses.replace(level, members=members)
        return dataclasses.replace(trace, levels=tuple(levels), cycles=trace.cycles + (bad,))

    return add_bad


@pytest.mark.parametrize("path", list(BAD), ids=lambda p: p.name)
@pytest.mark.parametrize(
    "tamper", [_bump_merge, _bump_cost, _bump_exit, None], ids=["merge", "cost", "exit", "bad"]
)
def test_matches_the_reference_on_a_tampered_trace(monkeypatch, path, tamper):
    tamper = tamper or _add_bad(BAD[path])
    _tamper(monkeypatch, lambda landscape, trace: tamper(landscape, trace, *_fresh_with_single(trace)))
    assert not _same_report(load_landscape(path.read_text()))["ok"]


def _scramble(seed):
    """A tamper that makes one to three random edits to the slot data of
    random rounds: a cost bumped or dropped in place (so in every round that
    shares the row), a row replaced in one round, a lift, exit or merge
    height bumped, or a class dropped, swapped with another or joined to it.
    A fresh ``random.Random(seed)`` per call gives each verifier the same
    edits."""

    def scramble(landscape, trace):
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 3)):
            level = rng.choice(trace.levels)
            slots = sorted(level.members)
            slot = rng.choice(slots)
            row = level.rows.get(slot)
            edit = rng.randrange(9)
            if edit < 3 and row:
                dst = rng.choice(sorted(row))
                if edit == 0:
                    row[dst] += rng.choice((-1, 1))
                elif edit == 1:
                    del row[dst]
                else:
                    level.rows[slot] = {**row, dst: row[dst] + 1}
            elif edit == 3:
                level.lifts[slot] = level.lifts.get(slot, 0) + 1
            elif edit == 4:
                level.exits[slot] += 1
            elif edit == 5 and level.formed:
                level.formed[rng.choice(sorted(level.formed))] -= 1
            elif edit == 8 and len(slots) > 1:
                del level.members[slot]
            elif len(slots) > 1:
                other = rng.choice([s for s in slots if s != slot])
                if edit == 7:
                    level.members[slot] = level.members[slot] | level.members[other]
                else:
                    level.members[slot], level.members[other] = level.members[other], level.members[slot]

    return scramble


@pytest.mark.parametrize("first", range(0, 300, 50))
def test_matches_the_reference_on_scrambled_traces(monkeypatch, first):
    for seed in range(first, first + 50):
        if seed % 8:
            energy = random.Random(seed).choice((2, 6, 30))
            landscape = random_landscape(seed=seed, max_states=14, max_energy=energy)
        else:
            landscape = _fixture(FIXTURES[seed % 3])
        _tamper(monkeypatch, _scramble(seed))
        try:
            want = report_to_dict(reference_verify(landscape))
        except KeyError:  # a state without a first-round singleton, or a slot without an exit
            with pytest.raises(KeyError):
                verify_equivalence(landscape)
        else:
            assert report_to_dict(verify_equivalence(landscape)) == want, seed


@pytest.mark.parametrize("path", list(BAD), ids=lambda p: p.name)
def test_matches_the_reference_when_a_singleton_merges_for_one_round(monkeypatch, path):
    # a failing pair whose singleton merges in one round only: the pair is
    # skipped in that round and read again in the next
    def edit(landscape, trace):
        level, big, single = _fresh_with_single(trace)
        level.rows[single][big] += 1
        other = next(s for s, c in level.members.items() if len(c) == 1 and s != single)
        level.members[single] = level.members[single] | level.members[other]

    _tamper(monkeypatch, edit)
    assert not _same_report(load_landscape(path.read_text()))["conditions"][1]["classes_are_cycles"]


def _reformed_with_new_state(landscape, trace):
    """A round that re-forms a big class at its slot with a state on its new
    boundary that was not on its old one, a singleton in that round: (the
    round before, that round, the slot, the state's slot)."""
    index = landscape.numbering()[1]
    for before, level in zip(trace.levels, trace.levels[1:]):
        for slot in sorted(level.formed):
            was = before.members.get(slot, ())
            if len(was) > 1:
                new = exterior_boundary(landscape, level.members[slot])
                for x in sorted(new - exterior_boundary(landscape, was)):
                    single = index[x]
                    if len(level.members.get(single, ())) == 1 and single in before.rows:
                        return before, level, slot, single
    raise AssertionError("no re-formed class with a new boundary state")


@pytest.mark.parametrize("name", FIXTURES[1:])
def test_matches_the_reference_when_a_reformed_class_reaches_a_new_state(monkeypatch, name):
    # with the cost to it dropped from the class's row, and its own row kept
    # from the round before, only the boundary says that the pair is read now
    def edit(landscape, trace):
        before, level, slot, single = _reformed_with_new_state(landscape, trace)
        del level.rows[slot][single]
        level.rows[single] = before.rows[single]

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]


@pytest.mark.parametrize("name", FIXTURES[1:])
def test_matches_the_reference_when_a_reformed_class_is_lifted(monkeypatch, name):
    # a new lift moves every cost out of the re-formed class, so each of its
    # pairs is read again
    def edit(landscape, trace):
        _, level, slot, _ = _reformed_with_new_state(landscape, trace)
        level.lifts[slot] += 1

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]


@pytest.mark.parametrize("name", FIXTURES[1:])
def test_matches_the_reference_when_a_living_class_is_lifted(monkeypatch, name):
    # a class that lives on through a round with a new lift: its row object
    # is the round before's, yet every cost out of it moved
    def edit(landscape, trace):
        for before, level in zip(trace.levels, trace.levels[1:]):
            for slot, cls in sorted(level.members.items()):
                if len(cls) > 1 and before.members.get(slot) is cls and slot in level.rows:
                    level.lifts[slot] = level.lifts.get(slot, 0) + 1
                    return
        raise AssertionError("no class lives through a round")

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]


def _living_pair(trace):
    """A big class that lives on through a round at its slot, beside a
    singleton in its row: (that round, the slot, the singleton's slot)."""
    for before, level in zip(trace.levels, trace.levels[1:]):
        for slot, cls in sorted(level.members.items()):
            if len(cls) > 1 and before.members.get(slot) is cls and slot in level.rows:
                for single in sorted(level.rows[slot]):
                    if len(level.members.get(single, ())) == 1:
                        return level, slot, single
    raise AssertionError("no class lives through a round beside a singleton")


@pytest.mark.parametrize("name", FIXTURES[1:])
@pytest.mark.parametrize("whose", ["class", "singleton"])
def test_matches_the_reference_when_a_row_is_replaced_for_one_round(monkeypatch, name, whose):
    # a new row object with one cost of the pair bumped: only the row says
    # that the pair is read again, in that round and in the next
    def edit(landscape, trace):
        level, big, single = _living_pair(trace)
        src, dst = (big, single) if whose == "class" else (single, big)
        level.rows[src] = {**level.rows[src], dst: level.rows[src][dst] + 1}

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]
