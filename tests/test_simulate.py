"""Monte Carlo sampler: stream contract, diagnostics, law checks."""

import math
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basincycles import (
    Energy,
    SimulationSpec,
    brute_force_path_cycles,
    check_exit_window,
    check_visit_before_exit,
    enumerate_path_cycles,
    make_landscape,
    random_landscape,
    simulate_hitting_time,
)
from basincycles import simulate
from basincycles.cli import main
from basincycles.errors import (
    ForeignState,
    InvalidSpec,
    NonpositiveBeta,
    NotACycle,
    StateOutsideCycle,
)
from basincycles.landscape import exterior_boundary, transition_matrix
from basincycles.simulate import (
    _DENSE_BYTES,
    _MAX_STEP_CAP,
    _run_chains,
    _walk_chains,
    default_exit_steps,
)

from conftest import (
    FIG1_PATH,
    dense_kernel,
    draw_landscape,
    ks_two_sample,
    reference_first_hit,
    reference_tree,
)


def test_beta_zero_geometric_diagnostic(two_state):
    # with no energy penalty and a single neighbor, the first hit of y from x
    # is geometric with success probability q(x,y) = 1/2: mean 2
    spec = SimulationSpec(
        landscape=two_state,
        beta=0.0,
        start="x",
        target=frozenset({"y"}),
        max_steps=2000,
        replicas=4000,
        seed=11,
    )
    stats = simulate_hitting_time(spec)
    assert stats.censored_count == 0
    assert stats.mean == pytest.approx(2.0, abs=0.12)


def test_beta_zero_chain_matches_linear_system(fig1):
    # independent oracle: mean hitting times solve (I - Q) m = 1 over the
    # non-target states, with Q the kernel restricted to those states
    import numpy as np

    kernel = transition_matrix(fig1, 1e-9)  # numerically beta -> 0
    states = list(kernel.states)
    keep = [s for s in states if s != "j"]
    idx = [states.index(s) for s in keep]
    Q = dense_kernel(kernel)[np.ix_(idx, idx)]
    m = np.linalg.solve(np.eye(len(keep)) - Q, np.ones(len(keep)))
    expected = m[keep.index("i")]

    spec = SimulationSpec(
        landscape=fig1,
        beta=0.0,
        start="i",
        target=frozenset({"j"}),
        max_steps=5000,
        replicas=4000,
        seed=11,
    )
    stats = simulate_hitting_time(spec)
    assert stats.censored_count == 0
    assert stats.mean == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize(
    "beta, exact, replicas",
    [
        (2.0, 899.547, 1000),
        (3.0, 16970.954, 1000),
        (4.0, 331360.339, 400),
        (5.0, 6581788.864, 3000),
        (6.0, 131644639.006, 3000),
        (8.0, 52996010531.247, 3000),
    ],
)
def test_exit_mean_matches_linear_system(fig1, beta, exact, replicas):
    # oracle: mean exit times from the i-j well solve (I - P_CC) m = 1, with
    # the diagonal of I - P_CC assembled from the off-diagonal rates (no
    # 1 - p(x, x) subtraction); exit times are near-exponential, so the
    # standard error of the mean is about mean / sqrt(N)
    import numpy as np

    kernel = transition_matrix(fig1, beta)
    cycle = ["i", "j"]
    A = np.array(
        [[-kernel.prob(x, y) for y in cycle] for x in cycle], dtype=np.float64
    )
    for a, x in enumerate(cycle):
        A[a, a] = math.fsum(kernel.prob(x, y) for y in fig1.neighbors(x))
    m = np.linalg.solve(A, np.ones(len(cycle)))
    assert m[0] == pytest.approx(exact, rel=1e-6)

    spec = SimulationSpec(
        landscape=fig1,
        beta=beta,
        start="i",
        target=frozenset({"h", "k"}),
        max_steps=10**13,
        replicas=replicas,
        seed=2026,
    )
    stats = simulate_hitting_time(spec)
    assert stats.censored_count == 0
    assert abs(stats.mean - m[0]) <= 4 * stats.mean / math.sqrt(replicas)


def test_start_inside_target(fig1):
    spec = SimulationSpec(
        landscape=fig1,
        beta=1.0,
        start="i",
        target=frozenset({"i", "j"}),
        max_steps=10,
        replicas=25,
        seed=0,
    )
    stats = simulate_hitting_time(spec)
    assert stats.samples == (0,) * 25
    assert stats.censored_count == 0


def test_determinism_and_replica_order_independence(fig1):
    def spec(replicas):
        return SimulationSpec(
            landscape=fig1,
            beta=2.0,
            start="i",
            target=frozenset({"h", "k"}),
            max_steps=100_000,
            replicas=replicas,
            seed=321,
        )

    a = simulate_hitting_time(spec(120))
    b = simulate_hitting_time(spec(120))
    assert a == b
    # replica r depends only on (seed, r): a shorter batch is a prefix
    c = simulate_hitting_time(spec(40))
    assert c.samples == a.samples[:40]


def test_censoring_reported(fig1):
    spec = SimulationSpec(
        landscape=fig1,
        beta=3.0,
        start="e",
        target=frozenset({"b", "g"}),
        max_steps=1,
        replicas=30,
        seed=5,
    )
    stats = simulate_hitting_time(spec)
    # b and g are two steps from e, so a single step can never reach them
    assert stats.censored_count == 30
    assert stats.all_censored
    assert stats.mean is None and stats.median is None


def test_censoring_boundary_hit_at_max_steps():
    # leave is 1 at beta 0 with q = 1: the first jump arrives at step 1,
    # which is still inside max_steps = 1
    landscape = make_landscape({"x": 0, "y": 1}, [("x", "y", "1")])
    spec = SimulationSpec(
        landscape=landscape,
        beta=0.0,
        start="x",
        target=frozenset({"y"}),
        max_steps=1,
        replicas=20,
        seed=3,
    )
    stats = simulate_hitting_time(spec)
    assert stats.samples == (1,) * 20
    assert stats.censored_count == 0


@pytest.mark.parametrize("beta", [40.0, 1000.0])
def test_unbounded_holds_are_censored(fig1, beta):
    # at beta 40 i holds for about 5e17 steps per jump, past any cap; at
    # beta 1000 its exit rates underflow to 0 and it never jumps
    spec = SimulationSpec(
        landscape=fig1,
        beta=beta,
        start="i",
        target=frozenset({"h", "k"}),
        max_steps=1_000_000_000,
        replicas=50,
        seed=4,
    )
    stats = simulate_hitting_time(spec)
    assert stats.all_censored
    assert stats.samples == (1_000_000_000,) * 50


def test_default_exit_steps_caps_an_overflowing_scale():
    # exp(300 * 4) is past the float range
    assert default_exit_steps(300.0, Energy.from_int(3)) == _MAX_STEP_CAP


def test_step_law_against_kernel(fig1):
    # one step from h on the sampler's jump tables: hold when u1 >= leave,
    # otherwise jump to the neighbour u2 picks
    beta = 1.0
    trials = 100_000
    tables = transition_matrix(fig1, beta)
    leave, nbr, cdf = tables.jumps()
    x = tables.states.index("h")
    u = np.random.default_rng(77).random((trials, 2))
    here = np.full(trials, x, dtype=np.intp)
    landed = np.where(u[:, 0] < leave[x], simulate._land(nbr, cdf, here, u[:, 1]), x)
    counts = np.bincount(landed, minlength=len(tables.states))
    kernel = transition_matrix(fig1, beta)
    for i, state in enumerate(tables.states):
        p = kernel.prob("h", state)
        got = int(counts[i])
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(got - trials * p) <= 3 * sigma + 1e-9, (state, got, trials * p)


NONFINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, float("1e400")], ids=["nan", "inf", "1e400"]
)


@NONFINITE
def test_nonfinite_beta_rejected(fig1, value):
    spec = SimulationSpec(landscape=fig1, beta=value, start="i", target=frozenset({"j"}))
    with pytest.raises(InvalidSpec):
        spec.validate()
    with pytest.raises(NonpositiveBeta):
        check_exit_window(fig1, {"i", "j"}, [2.0, value], 1.0, 10, 1)
    with pytest.raises(NonpositiveBeta):
        check_visit_before_exit(fig1, {"i", "j"}, "i", "j", [value], 1.0, 10, 1)


@NONFINITE
def test_nonfinite_epsilon_rejected(fig1, value):
    with pytest.raises(InvalidSpec):
        check_exit_window(fig1, {"i", "j"}, [2.0], value, 10, 1)
    with pytest.raises(InvalidSpec):
        check_visit_before_exit(fig1, {"i", "j"}, "i", "j", [2.0], value, 10, 1)


def test_invalid_specs(fig1):
    good = dict(
        landscape=fig1,
        beta=1.0,
        start="i",
        target=frozenset({"j"}),
        max_steps=10,
        replicas=5,
        seed=1,
    )
    with pytest.raises(InvalidSpec):
        simulate_hitting_time(SimulationSpec(**{**good, "beta": -1.0}))
    with pytest.raises(InvalidSpec):
        simulate_hitting_time(SimulationSpec(**{**good, "max_steps": 0}))
    with pytest.raises(InvalidSpec):
        simulate_hitting_time(SimulationSpec(**{**good, "replicas": 0}))
    # counts and the seed must be integral and not bool; numpy ints pass
    for key, value in [("max_steps", 10.5), ("replicas", True), ("replicas", 2.5),
                       ("max_steps", True), ("seed", True), ("seed", 2.5)]:
        with pytest.raises(InvalidSpec):
            simulate_hitting_time(SimulationSpec(**{**good, key: value}))
    spec = SimulationSpec(
        **{**good, "max_steps": np.int64(10), "replicas": np.int32(5), "seed": np.int64(1)}
    )
    assert simulate_hitting_time(spec) == simulate_hitting_time(SimulationSpec(**good))
    with pytest.raises(InvalidSpec):
        simulate_hitting_time(SimulationSpec(**{**good, "start": "zz"}))
    with pytest.raises(InvalidSpec):
        simulate_hitting_time(SimulationSpec(**{**good, "target": frozenset()}))
    with pytest.raises(InvalidSpec):
        simulate_hitting_time(
            SimulationSpec(**{**good, "secondary_target": "zz"})
        )


def test_exit_window_requires_positive_beta_and_cycle(fig1):
    with pytest.raises(NonpositiveBeta):
        check_exit_window(fig1, {"i", "j"}, [0.0], 1.0, 10, 1)
    with pytest.raises(NotACycle):
        check_exit_window(fig1, {"d", "e", "f"}, [2.0], 1.0, 10, 1)
    with pytest.raises(InvalidSpec):
        check_exit_window(fig1, {"i", "j"}, [2.0], 0.0, 10, 1)
    with pytest.raises(StateOutsideCycle):
        check_exit_window(fig1, {"i", "j"}, [2.0], 1.0, 10, 1, starts=["a"])


def test_exit_window_rows_sorted(fig1):
    rows = check_exit_window(fig1, {"i", "j"}, [3.0, 2.0], 1.0, 40, 9)
    assert [(r.beta, r.start) for r in rows] == [
        (2.0, "i"),
        (2.0, "j"),
        (3.0, "i"),
        (3.0, "j"),
    ]
    for row in rows:
        lo, hi = row.stats.window
        assert lo == pytest.approx(math.exp(row.beta * 2.0))
        assert hi == pytest.approx(math.exp(row.beta * 4.0))
        assert row.fraction is None or 0.0 <= row.fraction <= 1.0


def test_exit_window_builds_one_kernel_per_beta(fig1, monkeypatch):
    built = []

    def counting(landscape, beta):
        built.append(beta)
        return transition_matrix(landscape, beta)

    monkeypatch.setattr(simulate, "transition_matrix", counting)
    rows = check_exit_window(fig1, {"i", "j"}, [2.0, 3.0], 1.0, 20, 7)
    assert len(rows) == 4
    assert built == [2.0, 3.0]


def test_whole_space_cycle_is_rejected_before_any_kernel(fig1, monkeypatch, capsys):
    # the whole space has infinite depth, so it passes as nontrivial; it has
    # no exterior boundary to exit into
    built = []

    def counting(landscape, beta):
        built.append(beta)
        return transition_matrix(landscape, beta)

    monkeypatch.setattr(simulate, "transition_matrix", counting)
    with pytest.raises(InvalidSpec, match="whole state space and has no exit"):
        check_exit_window(fig1, fig1.states, [2.0], 1.0, 20, 7)
    with pytest.raises(InvalidSpec, match="whole state space and has no exit"):
        check_visit_before_exit(fig1, fig1.states, "i", "j", [2.0], 1.0, 20, 7)
    argv = ["simulate", str(FIG1_PATH), "--cycle", ",".join(fig1.states), "--betas", "2",
            "--seed", "7"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: InvalidSpec: the cycle is the whole state space and has no exit\n"
    )
    assert built == []


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--visit", "k"], "StateOutsideCycle: visit state 'k' is outside the cycle"),
        (["--start", "a"], "StateOutsideCycle: start 'a' is outside the cycle"),
        (["--replicas", "0"], "InvalidSpec: replicas must be at least 1"),
        (["--max-steps", "0"], "InvalidSpec: max_steps must lie in [1, 2**63 - 1], got 0"),
    ],
    ids=["visit", "start", "replicas", "max-steps"],
)
def test_simulate_arguments_are_rejected_before_any_kernel(monkeypatch, capsys, extra, message):
    # every argument is checked before the first beta's kernel is built, so
    # a bad --visit is not reported only after every exit row was sampled
    built = []

    def counting(landscape, beta):
        built.append(beta)
        return transition_matrix(landscape, beta)

    monkeypatch.setattr(simulate, "transition_matrix", counting)
    argv = ["simulate", str(FIG1_PATH), "--cycle", "i,j", "--betas", "2,3", "--replicas", "20",
            "--seed", "7", *extra]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"
    assert built == []


def test_simulate_command_builds_one_kernel_per_beta(monkeypatch, capsys):
    # the exit window and the visit check, for every start, share the kernels
    built = []

    def counting(landscape, beta):
        built.append(beta)
        return transition_matrix(landscape, beta)

    monkeypatch.setattr(simulate, "transition_matrix", counting)
    for start in (["--start", "i"], []):
        built.clear()
        argv = ["simulate", str(FIG1_PATH), "--cycle", "i,j", "--betas", "2,3",
                "--replicas", "20", "--seed", "7", "--visit", "j", *start]
        assert main(argv) == 0
        assert built == [2.0, 3.0]
    capsys.readouterr()


def test_simulate_command_builds_two_laws_per_beta(monkeypatch, capsys):
    # at each beta, the exit window from i and the visit check's second
    # phase, from j, both run on T = {i, j} absorbed at {h, k} and share one
    # law; the first phase, from i absorbed at {h, j, k}, runs on T = {i}
    built = []

    class Counting(simulate._Law):
        def __init__(self, kernel, transient):
            built.append(tuple(kernel.states[x] for x in transient))
            super().__init__(kernel, transient)

    monkeypatch.setattr(simulate, "_Law", Counting)
    for start in (["--start", "i"], []):
        built.clear()
        argv = ["simulate", str(FIG1_PATH), "--cycle", "i,j", "--betas", "2,3",
                "--replicas", "20", "--seed", "7", "--visit", "j", *start]
        assert main(argv) == 0
        assert built == [("i", "j"), ("i",), ("i", "j"), ("i",)]
    capsys.readouterr()


def test_shared_laws_give_the_rows_of_fresh_kernels(fig1):
    # the combined call shares each beta's kernel and laws among its rows;
    # the single checks build their own, and every row is the same
    for starts in (None, ["j"]):
        exits, visits = simulate.check_laws(
            fig1, {"i", "j"}, [3.0, 2.0], 1.0, 200, 7, starts=starts, visit="j"
        )
        assert exits == check_exit_window(fig1, {"i", "j"}, [3.0, 2.0], 1.0, 200, 7, starts)
        assert visits == [
            row
            for start in starts or "ij"
            for row in check_visit_before_exit(fig1, {"i", "j"}, start, "j", [2.0, 3.0], 1.0, 200, 7)
        ]
    assert simulate.check_laws(fig1, {"i", "j"}, [2.0], 1.0, 20, 7)[1] == []


def test_degenerate_window_reduces_to_upper_bound(fig1):
    # epsilon at least the depth makes the lower edge sub-1, so the window
    # fraction equals the fraction below the upper edge
    rows = check_exit_window(fig1, {"i", "j"}, [0.5], 4.0, 200, 13)
    for row in rows:
        lo, hi = row.stats.window
        assert lo < 1.0
        alive = [
            t
            for t, c in zip(row.stats.samples, row.stats.censored)
            if not c
        ]
        below = sum(1 for t in alive if t < hi) / len(alive)
        assert row.fraction == pytest.approx(below)


def test_visit_trivial_when_start_equals_visit(fig1):
    rows = check_visit_before_exit(fig1, {"i", "j"}, "i", "i", [2.0], 1.0, 50, 3)
    assert rows[0].fraction == 1.0


def test_visit_errors(fig1):
    with pytest.raises(StateOutsideCycle):
        check_visit_before_exit(fig1, {"i", "j"}, "a", "j", [2.0], 1.0, 10, 3)
    with pytest.raises(StateOutsideCycle):
        check_visit_before_exit(fig1, {"i", "j"}, "i", "k", [2.0], 1.0, 10, 3)
    with pytest.raises(NotACycle):
        check_visit_before_exit(fig1, {"d", "e"}, "d", "e", [2.0], 1.0, 10, 3)
    with pytest.raises(NonpositiveBeta):
        check_visit_before_exit(fig1, {"i", "j"}, "i", "j", [-2.0], 1.0, 10, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cycle_check_matches_the_oracles(data):
    # the one cycle check outside the sweep accepts exactly the nontrivial
    # path cycles with an exit, as the exhaustive oracle lists them, and
    # reads their heights as the reference tree does
    L = draw_landscape(data)
    cycles = brute_force_path_cycles(L)
    nodes = {ref.members: ref for ref in reference_tree(L)}
    members = data.draw(
        st.sampled_from(sorted(cycles, key=sorted))
        | st.sets(st.sampled_from(sorted(L.states)), min_size=1).map(frozenset),
        label="members",
    )
    check = partial(simulate._check_arguments, L, members, [1.0], 1.0)
    if members not in cycles:
        with pytest.raises(NotACycle, match="is not a path cycle"):
            check()
    elif members == frozenset(L.states):
        with pytest.raises(InvalidSpec, match="whole state space"):
            check()
    elif not nodes[members].nontrivial:
        with pytest.raises(NotACycle, match="is a trivial cycle"):
            check()
    else:
        ref = nodes[members]
        cycle, betas, gamma, gamma_tilde, boundary = check()
        assert (cycle, betas) == (members, [1.0])
        assert gamma == Energy(ref.floor - ref.low, L.scale)
        assert gamma_tilde == Energy(ref.high - ref.low, L.scale)
        assert boundary == exterior_boundary(L, members)


@pytest.mark.parametrize(
    "members, error, message",
    [
        ({"a", "c"}, NotACycle, "['a', 'c'] is not a path cycle"),
        ({"d", "e", "f"}, NotACycle, "['d', 'e', 'f'] is not a path cycle"),
        (set("abcdefghijk"), InvalidSpec, "the cycle is the whole state space and has no exit"),
        ({"g"}, NotACycle, "['g'] is a trivial cycle (no exit barrier)"),
        ({"i", "zz"}, ForeignState, "unknown state 'zz'"),
    ],
    ids=["disconnected", "above-the-floor", "whole-space", "trivial", "foreign"],
)
def test_cycle_check_errors_on_fig1(fig1, capsys, members, error, message):
    with pytest.raises(error) as raised:
        check_exit_window(fig1, members, [1.0], 1.0, 10, 1)
    assert str(raised.value) == message
    with pytest.raises(error) as raised:
        check_visit_before_exit(fig1, members, "i", "j", [1.0], 1.0, 10, 1)
    assert str(raised.value) == message
    argv = ["simulate", str(FIG1_PATH), "--cycle", ",".join(sorted(members)), "--betas", "1",
            "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {error.__name__}: {message}\n"


def test_visit_determinism(fig1):
    a = check_visit_before_exit(fig1, {"c", "d", "e", "f"}, "c", "f", [2.0], 1.0, 80, 21)
    b = check_visit_before_exit(fig1, {"c", "d", "e", "f"}, "c", "f", [2.0], 1.0, 80, 21)
    assert a == b


def test_holding_steps_count(two_state):
    # from the bottom state the chain mostly holds in place; hitting times
    # still advance by one per step, so the mean is 1/p(x,y)
    beta = math.log(4.0)
    spec = SimulationSpec(
        landscape=two_state,
        beta=beta,
        start="x",
        target=frozenset({"y"}),
        max_steps=5000,
        replicas=3000,
        seed=17,
    )
    stats = simulate_hitting_time(spec)
    expected = 1.0 / (0.5 * math.exp(-beta))  # = 8
    assert stats.mean == pytest.approx(expected, rel=0.08)


def _chain_args(kernel, start, target, visit):
    index = kernel.states.index
    mask = np.zeros(len(kernel.states), dtype=bool)
    mask[[index(s) for s in target]] = True
    return index(start), mask, None if visit is None else index(visit)


def _tilted_chain(n):
    """States s0..s{n-1} on a path, the energy falling by one unit per step
    toward s{n-1}: from s0 the first hit of s{n-1} takes about 3n steps at
    beta 1, and the transient set is the other n - 1 states."""
    ids = [f"s{i}" for i in range(n)]
    return make_landscape({s: n - i for i, s in enumerate(ids)}, list(zip(ids, ids[1:])))


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_inversion_matches_the_jump_chain_on_fig1(fig1, beta):
    # two-sample KS against the jump chain: exit times from i, then the
    # visit check's times to j and to the exit, on fixed seeds
    kernel = transition_matrix(fig1, beta)
    for visit in (None, "j"):
        args = (*_chain_args(kernel, "i", {"h", "k"}, visit), 10**9)
        tau, censored, sec = _run_chains(kernel, *args, 41, 3000)
        ref, ref_censored, ref_sec = _walk_chains(kernel.jumps(), *args, 42, 3000)
        assert not censored.any() and not ref_censored.any()
        assert ks_two_sample(tau, ref)[1] > 0.001
        if visit is not None:
            assert ks_two_sample(sec, ref_sec)[1] > 0.001


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_inversion_matches_the_exact_exit_law(fig1, beta):
    # 20000 exit times from i against the CDF of the 2-state absorbing
    # chain on {i, j}, iterated one step at a time: the largest gap must be
    # below the KS critical value at level 0.001
    kernel = transition_matrix(fig1, beta)
    args = (*_chain_args(kernel, "i", {"h", "k"}, None), 10**9)
    tau = np.sort(_run_chains(kernel, *args, 43, 20000)[0])
    Q = np.array([[kernel.prob(x, y) for y in "ij"] for x in "ij"])
    exits = np.array([kernel.prob("i", "h"), kernel.prob("j", "k")])
    # a tail past 40 means has probability e^-40: fail before iterating
    assert tau[-1] < 40 * np.linalg.solve(np.eye(2) - Q, np.ones(2))[0]
    here, cdf = np.array([1.0, 0.0]), np.zeros(tau[-1] + 1)
    for t in range(1, tau[-1] + 1):
        cdf[t] = cdf[t - 1] + here @ exits
        here = here @ Q
    steps = np.arange(tau[-1] + 1)
    below = np.searchsorted(tau, steps, side="left") / tau.size
    upto = np.searchsorted(tau, steps, side="right") / tau.size
    gap = max(np.max(np.abs(upto - cdf)), np.max(np.abs(below - np.r_[0.0, cdf[:-1]])))
    assert gap < 1.95 / math.sqrt(tau.size)


def test_visit_inside_the_target_is_the_landing_state(fig1):
    # k is in the target: a replica that exits through k records its exit
    # step as the visit, one that exits through h records none, and the
    # share landing on k matches the jump chain's
    kernel = transition_matrix(fig1, 0.5)
    args = (*_chain_args(kernel, "i", {"h", "k"}, "k"), 10**6)
    tau, _, sec = _run_chains(kernel, *args, 5, 3000)
    assert np.all((sec == tau) | (sec == -1))
    _, _, ref_sec = _walk_chains(kernel.jumps(), *args, 6, 3000)
    share, ref_share = np.mean(sec >= 0), np.mean(ref_sec >= 0)
    assert 0.05 < ref_share < 0.95
    assert abs(share - ref_share) <= 4 * math.sqrt(2 * ref_share * (1 - ref_share) / 3000)


def test_a_set_past_the_byte_budget_walks_the_jump_chain(monkeypatch):
    # |T| = 229 at 10^6 steps: 229^2 * 20 * 8 B is just over the budget, so
    # the call walks; with the budget doubled the same call inverts, and
    # the two laws agree
    landscape = _tilted_chain(230)
    kernel = transition_matrix(landscape, 1.0)
    args = (*_chain_args(kernel, "s0", {"s229"}, "s100"), 10**6)
    assert 229**2 * 20 * 8 > _DENSE_BYTES >= 228**2 * 20 * 8
    walked = _run_chains(kernel, *args, 8, 1000)
    for got, ref in zip(walked, _walk_chains(kernel.jumps(), *args, 8, 1000)):
        np.testing.assert_array_equal(got, ref)
    monkeypatch.setattr(simulate, "_DENSE_BYTES", 2 * _DENSE_BYTES)
    tau, censored, sec = _run_chains(kernel, *args, 8, 1000)
    assert not censored.any() and not walked[1].any()
    assert not np.array_equal(tau, walked[0])
    assert ks_two_sample(tau, walked[0])[1] > 0.001
    assert ks_two_sample(sec, walked[2])[1] > 0.001


def test_dense_path_memory_at_the_byte_budget():
    # |T| = 228 at 10^6 steps fits the budget: the call holds the 20 powers
    # (8.3 MB) and, in the descent, a few copies of the replicas' mass rows
    landscape = _tilted_chain(229)
    kernel = transition_matrix(landscape, 1.0)
    args = (*_chain_args(kernel, "s0", {"s228"}, None), 10**6)
    tracemalloc.start()
    try:
        _, censored, _ = _run_chains(kernel, *args, 9, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not censored.any()
    rows = 200 * 228 * 8
    assert 228**2 * 20 * 8 <= peak <= _DENSE_BYTES + 4 * rows


def test_law_checks_hold_one_betas_laws_at_a_time(monkeypatch):
    # on s1..s228, the exit window from s1 runs on T = s1..s228, whose 20
    # powers at 10^6 steps take 8.3 MB, and the visit check through s100
    # adds T = s1..s99; betas this small keep the visit budget under 10^6
    # steps, so every set inverts.  Two betas' laws would hold at least
    # twice the first; the loop frees each beta's laws before the next, and
    # keeps none after the call
    bound = 2 * 228**2 * 20 * 8
    laws = []

    class Tracked(simulate._Law):
        def __init__(self, kernel, transient):
            super().__init__(kernel, transient)
            laws.append(weakref.ref(self))

    monkeypatch.setattr(simulate, "_Law", Tracked)
    landscape = _tilted_chain(229)
    landscape.numbering()
    cycle = [f"s{i}" for i in range(1, 229)]
    for visit in (None, "s100"):
        laws.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            exits, visits = simulate.check_laws(
                landscape, cycle, [0.02, 0.03, 0.04], 1.0, 200, 9,
                starts=["s1"], visit=visit, max_steps=10**6,
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(exits) == 3 and len(visits) == (3 if visit else 0)
        assert len(laws) == (6 if visit else 3)
        assert 228**2 * 20 * 8 <= peak < bound
        assert all(law() is None for law in laws)


def test_visit_check_is_capped_at_max_steps(fig1):
    # on s1..s228 at beta 1 the visit budget exp(beta * (resistance +
    # epsilon)) is capped at 10^9 steps, and a set that large runs the jump
    # chain, which would walk on from s100 for up to that many; a given
    # max_steps caps the visit check as it censors the exit window
    landscape = _tilted_chain(229)
    cycle = [f"s{i}" for i in range(1, 229)]
    started = time.perf_counter()
    _, (row,) = simulate.check_laws(
        landscape, cycle, [1.0], 1.0, 10, 9, starts=["s1"], visit="s100", max_steps=1000
    )
    assert time.perf_counter() - started < 10.0
    assert row.bound > 10**9
    assert max(row.stats.samples) == 1000 and row.stats.censored_count
    # on fig1 the visit bound at beta 3 is e^6, about 403 steps, so a cap
    # of 40,000 leaves the visit rows as they are without one
    args = (fig1, ["i", "j"], [2.0, 3.0], 1.0, 250, 7)
    capped = simulate.check_laws(*args, starts=["i"], visit="j", max_steps=40_000)[1]
    assert capped == simulate.check_laws(*args, starts=["i"], visit="j")[1]
    assert max(row.bound for row in capped) < 404


BUDGETS = [0, 1, 2**5 - 1, 2**5, 2**12 - 1, 2**12, 2**63 - 1]


def _assert_first_hits_match(kernel, origin, target, rng, rows=200):
    """``_first_hit`` on one law, extended budget by budget in ascending
    order, against the reference on scalar and per-row budgets; then the
    extended law against one built at once."""
    origin, absorb, _ = _chain_args(kernel, origin, target, None)
    transient = simulate._transient(kernel.jumps()[1], origin, absorb)
    law = simulate._Law(kernel, transient)
    for top in BUDGETS:
        per_row = rng.integers(0, top, size=rows, endpoint=True)
        per_row[0] = top
        for budget in (np.int64(top), per_row):
            u_time, u_land = 1.0 - rng.random((2, rows))
            got = simulate._first_hit(law, origin, u_time, u_land, budget)
            ref = reference_first_hit(kernel, transient, origin, absorb, u_time, u_land, budget)
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
    whole = simulate._Law(kernel, transient)
    whole.extend(len(law.powers))
    for ours, theirs in zip(law.powers + law.hits, whole.powers + whole.hits, strict=True):
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("beta", [0.5, 2.0, 3.0])
def test_first_hit_matches_the_reference_on_fig1(fig1, beta):
    # both visit phases of {i, j} and of {c, d, e, f}
    kernel = transition_matrix(fig1, beta)
    rng = np.random.default_rng(11)
    for members, start, visit in (("ij", "i", "j"), ("cdef", "c", "f")):
        target = exterior_boundary(fig1, fig1.subset(members))
        _assert_first_hits_match(kernel, start, target | {visit}, rng)
        _assert_first_hits_match(kernel, visit, target, rng)


def test_first_hit_matches_the_reference_on_random_cycles():
    # every cycle short of the whole space, from its first member with its
    # last as the visit state
    rng = np.random.default_rng(12)
    for seed in range(8):
        landscape = random_landscape(seed=300 + seed, min_states=3, max_states=9)
        kernel = transition_matrix(landscape, 1.5)
        for members in enumerate_path_cycles(landscape).member_sets():
            if len(members) == len(landscape.states):
                continue
            ordered = sorted(members)
            start, visit = ordered[0], ordered[-1]
            target = exterior_boundary(landscape, members)
            if start != visit:
                _assert_first_hits_match(kernel, start, target | {visit}, rng)
            _assert_first_hits_match(kernel, visit, target, rng)


def test_large_beta_mean_at_the_int64_step_cap(fig1):
    # beta 12: the well {i, j} leaks through j -> k with probability 7e-22
    # a step, far below the ulp of j's diagonal; the mean still matches the
    # linear solve, because each power's diagonal is rebuilt from the
    # positive absorption sums.  2^63 - 1 steps is the largest cap.
    spec = SimulationSpec(
        landscape=fig1,
        beta=12.0,
        start="i",
        target=frozenset({"h", "k"}),
        max_steps=2**63 - 1,
        replicas=3000,
        seed=2026,
    )
    stats = simulate_hitting_time(spec)
    exact = 8622513608429940.0
    assert stats.censored_count == 0
    assert abs(stats.mean - exact) <= 4 * stats.mean / math.sqrt(3000)


def test_max_steps_past_int64_is_rejected(fig1):
    good = dict(landscape=fig1, beta=2.0, start="i", target=frozenset({"h", "k"}), replicas=5)
    for steps in (2**63, 10**20):
        with pytest.raises(InvalidSpec):
            simulate_hitting_time(SimulationSpec(**good, max_steps=steps))
    # the largest cap runs on both paths: by inversion on fig1, walked on a
    # chain whose transient set is past the byte budget at 63 bits
    assert simulate_hitting_time(SimulationSpec(**good, max_steps=2**63 - 1)).censored_count == 0
    chain = _tilted_chain(140)
    spec = SimulationSpec(
        landscape=chain, beta=1.0, start="s0", target=frozenset({"s139"}),
        max_steps=2**63 - 1, replicas=5,
    )
    assert 139**2 * 63 * 8 > _DENSE_BYTES
    assert simulate_hitting_time(spec).censored_count == 0


def test_fig1_exit_at_beta_5_is_fast(fig1):
    # the jump chain took about 12 s for this: e^{2 beta} jumps per exit
    spec = SimulationSpec(
        landscape=fig1,
        beta=5.0,
        start="i",
        target=frozenset({"h", "k"}),
        max_steps=10**9,
        replicas=1000,
        seed=3,
    )
    started = time.perf_counter()
    stats = simulate_hitting_time(spec)
    assert time.perf_counter() - started < 1.0
    assert stats.censored_count == 0
