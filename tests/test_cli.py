"""CLI surface: subcommands, exit codes, deterministic output."""

import errno
import json
import math
import os
import subprocess
import sys

import pytest

from basincycles.cli import main

from conftest import FIG1_PATH, fresh_env

FIG1 = str(FIG1_PATH)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", FIG1)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["states"] == 11 and doc["edges"] == 10


def test_validate_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(
        json.dumps(
            {
                "states": [
                    {"id": "x", "energy": "0"},
                    {"id": "y", "energy": "1"},
                    {"id": "z", "energy": "2"},
                ],
                "edges": [
                    {"pair": ["x", "y"], "q": "0.9"},
                    {"pair": ["x", "z"], "q": "0.9"},
                    {"pair": ["y", "z"], "q": "0.1"},
                ],
            }
        )
    )
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "RowSumExceedsOne" in err


def test_boolean_energy_scale_exit_2(tmp_path, capsys):
    bad = tmp_path / "bool-scale.json"
    bad.write_text(
        json.dumps(
            {
                "energy_scale": True,
                "states": [{"id": "x", "energy": "0"}, {"id": "y", "energy": "1"}],
                "edges": [["x", "y"]],
            }
        )
    )
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert "MalformedInput" in err


_DIGITS = sys.get_int_max_str_digits()
_HOSTILE = {
    "not-utf8": b"\xff\xfe{}",
    "long-integer": b'{"energy_scale": ' + b"9" * (_DIGITS + 700) + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("name", list(_HOSTILE))
def test_hostile_input_exit_2(tmp_path, capsys, name):
    # undecodable text, an integer past the digit limit and nesting past the
    # recursion limit are input errors, not crashes
    if name == "long-integer" and not _DIGITS:
        pytest.skip("integer string conversion is unlimited")
    bad = tmp_path / f"{name}.json"
    bad.write_bytes(_HOSTILE[name])
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("MalformedInput: ")
    assert err.count("\n") == 1


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.json")
    assert code == 2


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    code, _, err = run_cli(capsys, "simulate", FIG1, "--cycle", "i,j", "--betas", "2")
    assert code == 1  # --seed is mandatory for randomized subcommands
    code, _, err = run_cli(
        capsys, "simulate", FIG1, "--cycle", "i,j", "--betas", "x", "--seed", "1"
    )
    assert code == 1


def test_unknown_cycle_state_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "simulate", FIG1, "--cycle", "i,zz", "--betas", "2", "--seed", "1"
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "simulate", FIG1, "--cycle", "d,e,f", "--betas", "2", "--seed", "1"
    )
    assert code == 1
    assert "NotACycle" in err


@pytest.mark.parametrize("flag", ["--betas", "--epsilon"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_nonfinite_beta_or_epsilon_is_usage_error(capsys, flag, value):
    given = {"--betas": "2", "--epsilon": "1", flag: value}
    argv = [token for pair in given.items() for token in pair]
    code, out, err = run_cli(
        capsys, "simulate", FIG1, "--cycle", "i,j", "--replicas", "10", "--seed", "1", *argv
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("steps", [str(2**63), "100000000000000000000"])
def test_max_steps_past_int64_is_usage_error(capsys, steps):
    code, out, err = run_cli(
        capsys, "simulate", FIG1, "--cycle", "i,j", "--betas", "2", "--replicas", "5",
        "--seed", "1", "--max-steps", steps,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_parser_reuse_keeps_calls_apart(capsys):
    # one argument tree serves every call: an option given to one call
    # must not carry into the next
    argv = ["simulate", FIG1, "--cycle", "i,j", "--betas", "2", "--replicas", "5", "--seed", "1"]
    code, out, _ = run_cli(capsys, *argv, "--start", "i", "--visit", "j", "--tsv")
    assert code == 0 and out.startswith("# basincycles")
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == 0
    assert doc["visit_before_exit"] == []
    assert [row["start"] for row in doc["exit_window"]] == ["i", "j"]


def test_verify_fig1(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG1)
    assert code == 0
    doc = json.loads(out)
    assert doc["cycles"] == 16 and doc["set_equal"]
    assert doc["he_violations"] == [] and doc["hm_violations"] == []


def test_path_cycles_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "path-cycles", FIG1)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cycle-tree" and len(doc["nodes"]) == 16

    code, out, _ = run_cli(capsys, "path-cycles", FIG1, "--dot")
    assert code == 0
    assert out.splitlines()[0].startswith("// basincycles")
    assert "digraph" in out

    code, out2, _ = run_cli(capsys, "export-tree", FIG1)
    assert code == 0
    assert out2 == out


def test_graph_cycles_iterations(capsys):
    code, out, _ = run_cli(capsys, "graph-cycles", FIG1, "--iterations")
    assert code == 0
    doc = json.loads(out)
    assert doc["iterations"] == 4
    assert len(doc["levels"]) == 5
    assert len(doc["cycles"]) == 16
    level0 = doc["levels"][0]
    entries = {
        (tuple(e["from"]), tuple(e["to"])): e["value"] for e in level0["cost"]
    }
    assert entries[(("a",), ("b",))] == "3"
    assert entries[(("j",), ("k",))] == "4"


def test_graph_cycles_summary_only(capsys):
    code, out, _ = run_cli(capsys, "graph-cycles", FIG1)
    doc = json.loads(out)
    assert code == 0 and "levels" not in doc


def test_simulate_json_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        FIG1,
        "--cycle",
        "i,j",
        "--betas",
        "2",
        "--replicas",
        "40",
        "--seed",
        "12",
        "--start",
        "i",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "simulation-report"
    assert doc["exit_window"][0]["beta"] == 2.0
    assert doc["exit_window"][0]["depth"] == "3"


def test_simulate_all_censored_exit_4(capsys):
    # one step cannot reach the boundary of {c,d,e,f} from e
    code, out, _ = run_cli(
        capsys,
        "simulate",
        FIG1,
        "--cycle",
        "c,d,e,f",
        "--betas",
        "2",
        "--replicas",
        "10",
        "--seed",
        "12",
        "--start",
        "e",
        "--max-steps",
        "1",
    )
    assert code == 4


@pytest.mark.parametrize(
    "extra", [(), ("--visit", "j"), ("--max-steps", "1000")], ids=["plain", "visit", "max-steps"]
)
def test_simulate_huge_beta_is_infeasible_not_a_crash(capsys, extra):
    # exp(beta * depth) overflows a float past beta ~ 709 / depth: the step cap
    # and the window's upper end become inf, every replica is censored
    code, out, _ = run_cli(
        capsys, "simulate", FIG1, "--cycle", "i,j", "--betas", "300", "--seed", "1", *extra
    )
    assert code == 4
    rows = json.loads(out)["exit_window"]
    assert [row["start"] for row in rows] == ["i", "j"]
    for row in rows:
        assert row["censored"] == row["replicas"] == 1000
        assert math.isfinite(row["window"][0]) and row["window"][1] == math.inf


def test_simulate_tsv(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        FIG1,
        "--cycle",
        "i,j",
        "--betas",
        "2",
        "--replicas",
        "20",
        "--seed",
        "3",
        "--start",
        "i",
        "--visit",
        "j",
        "--tsv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# basincycles")
    assert lines[1].startswith("check\tbeta\tstart")
    assert any(line.startswith("exit\t2.0\ti") for line in lines)
    assert any(line.startswith("visit\t2.0\ti") for line in lines)


def test_fuzz_ok(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--count", "25", "--seed", "1234", "--max-states", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["failures"] == [] and doc["count"] == 25


@pytest.mark.parametrize(
    "flags",
    [
        ["--count", "-3"],
        ["--min-states", "5", "--max-states", "2"],
        ["--max-energy", "-1"],
        ["--min-states", "0"],
        ["--extra-edges", "-0.1"],
        ["--extra-edges", "1.5"],
        ["--extra-edges", "nan"],
    ],
    ids=[
        "count", "states-order", "max-energy", "min-states", "edges-low", "edges-high", "edges-nan"
    ],
)
def test_fuzz_rejects_a_bad_generator_shape(capsys, flags):
    code, out, err = run_cli(capsys, "fuzz", "--count", "2", "--seed", "1", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_fuzz_count_zero_is_an_empty_campaign(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--count", "0", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 0 and doc["failures"] == [] and doc["ok"]


def test_violations_exit_3(capsys, tmp_path, monkeypatch):
    # the identities hold on every valid landscape, so force a failing report
    # to exercise the violation path and the counterexample emission
    import basincycles.cli as cli_mod
    from basincycles.equivalence import EquivalenceReport

    def fake_verify(landscape):
        return EquivalenceReport(
            set_equal=False,
            graph_only=[frozenset(("s0",))],
            path_only=[],
            he_violations=[],
            hm_violations=[],
        )

    monkeypatch.setattr(cli_mod, "verify_equivalence", fake_verify)

    code, out, _ = run_cli(capsys, "verify", FIG1)
    assert code == 3
    assert not json.loads(out)["set_equal"]

    code, out, _ = run_cli(
        capsys,
        "fuzz",
        "--count",
        "2",
        "--seed",
        "9",
        "--failure-dir",
        str(tmp_path),
    )
    assert code == 3
    doc = json.loads(out)
    assert len(doc["failures"]) == 2
    written = sorted(tmp_path.glob("fuzz-failure-*.json"))
    assert len(written) == 2
    # the record and the file hold the same canonical document
    for path, failure in zip(written, doc["failures"]):
        assert path.read_text() == json.dumps(failure["landscape"], indent=2) + "\n"
    # emitted counterexamples are loadable landscape files
    from basincycles import load_landscape

    reloaded = load_landscape(written[0].read_text())
    assert reloaded.n >= 2


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "validate", FIG1, "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_write_failing_after_the_first_piece_is_usage_error(tmp_path, capsys, monkeypatch):
    # the document is written piece by piece; a write that fails part-way
    # is a usage error and leaves what was written before it
    import basincycles.cli as cli_mod

    target = tmp_path / "tree.json"
    pieces = []

    class FailingHandle:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            if pieces:
                raise OSError(errno.ENOSPC, "No space left on device")
            pieces.append(text)
            return self.handle.write(text)

    def failing_open(path, mode, encoding):
        handle = open(path, mode, encoding=encoding)
        return FailingHandle(handle) if mode == "w" else handle

    monkeypatch.setattr(cli_mod, "open", failing_open, raising=False)
    for argv in (["path-cycles", FIG1], ["path-cycles", FIG1, "--dot"], ["graph-cycles", FIG1]):
        pieces.clear()
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        full = OSError(errno.ENOSPC, "No space left on device")
        assert err == f"usage error: cannot write {str(target)!r}: {full}\n"
        assert len(pieces) == 1 and target.read_text(encoding="utf-8") == pieces[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_full_device_out_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "graph-cycles", FIG1, "--out", "/dev/full")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: cannot write '/dev/full': ")


def _validate_into(stdout):
    """Run ``validate`` on fig1 in a fresh process whose stdout is ``stdout``
    and block-buffered, so the first write only fills the buffer and the
    failure comes at a flush.  Returns the exit code and stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "basincycles.cli", "validate", FIG1],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=fresh_env(),
        text=True,
        timeout=60,
    )
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_full_device_stdout_is_usage_error():
    with open("/dev/full", "w") as full:
        code, err = _validate_into(full)
    assert code == 1
    assert "Traceback" not in err
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("usage error: cannot write stdout: [Errno 28]")


def test_closed_pipe_stdout_is_usage_error():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write fails with EPIPE
    try:
        code, err = _validate_into(write_end)
    finally:
        os.close(write_end)
    assert code == 1
    assert "Traceback" not in err
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("usage error: cannot write stdout: [Errno 32]")


def test_invalid_input_with_unwritable_out_exits_2(tmp_path, capsys):
    # the output is opened only after the input is loaded and the result
    # computed, so the input's fault wins
    bad = tmp_path / "broken.json"
    bad.write_text('{"states": []}', encoding="utf-8")
    target = tmp_path / "missing" / "x.json"
    for command in ("validate", "path-cycles", "graph-cycles", "verify"):
        code, out, err = run_cli(capsys, command, str(bad), "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("MalformedInput: ")
    assert not target.parent.exists()


def test_unwritable_failure_dir_is_usage_error(capsys, tmp_path, monkeypatch):
    import basincycles.cli as cli_mod
    from basincycles.equivalence import EquivalenceReport

    def fake_verify(landscape):
        return EquivalenceReport(
            set_equal=False, graph_only=[], path_only=[], he_violations=[], hm_violations=[]
        )

    monkeypatch.setattr(cli_mod, "verify_equivalence", fake_verify)
    missing = tmp_path / "missing"
    code, out, err = run_cli(
        capsys, "fuzz", "--count", "2", "--seed", "9", "--failure-dir", str(missing)
    )
    assert code == 1
    assert out == ""
    first = missing / "fuzz-failure-9-0.json"
    assert err.startswith(f"usage error: cannot write {str(first)!r}: ")
    assert err.count("\n") == 1


def test_byte_determinism(capsys):
    argv = [
        "simulate",
        FIG1,
        "--cycle",
        "i,j",
        "--betas",
        "2,3",
        "--replicas",
        "60",
        "--seed",
        "777",
        "--start",
        "i",
        "--visit",
        "j",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2

    fuzz = ["fuzz", "--count", "30", "--seed", "42"]
    _, fa, _ = run_cli(capsys, *fuzz)
    _, fb, _ = run_cli(capsys, *fuzz)
    assert fa == fb


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "tree.json"
    code, out, _ = run_cli(capsys, "path-cycles", FIG1, "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["nodes"]) == 16
