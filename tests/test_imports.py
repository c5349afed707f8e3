"""What importing the package loads and exposes: numpy only with the
kernel, pickle only for a campaign split across processes, multiprocessing
never, annotations that resolve without numpy, and every name that the
benchmark's tracer wraps."""

import functools
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
import typing

import basincycles

from conftest import FIG1_PATH, SRC, fresh_env

FIG1 = str(FIG1_PATH)

# every command but simulate, then simulate; each writes to ``--out``
COMMANDS = [
    ["validate", FIG1],
    ["path-cycles", FIG1],
    ["path-cycles", FIG1, "--dot"],
    ["export-tree", FIG1],
    ["graph-cycles", FIG1],
    ["graph-cycles", FIG1, "--iterations"],
    ["verify", FIG1],
    ["fuzz", "--count", "5", "--seed", "1"],
    ["fuzz", "--count", "256", "--seed", "1"],
    ["simulate", FIG1, "--cycle", "i,j", "--betas", "2", "--replicas", "10", "--seed", "1"],
]

# run in a fresh process, since conftest has imported numpy into this one:
# whether numpy, multiprocessing and pickle are loaded after the imports and
# after each command, with four CPUs in the affinity mask
_WHICH_LOAD = """
import json, sys
import basincycles
from basincycles import cli
cli.os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
commands, out = json.loads(sys.argv[1]), sys.argv[2]
modules = ("numpy", "multiprocessing", "pickle")
loaded = [[name in sys.modules for name in modules]]
for argv in commands:
    assert cli.main(argv + ["--out", out]) == 0, argv
    loaded.append([name in sys.modules for name in modules])
print(json.dumps(loaded))
"""


def test_only_simulate_loads_numpy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _WHICH_LOAD, json.dumps(COMMANDS), str(tmp_path / "out")],
        capture_output=True,
        env=fresh_env(),
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    steps = ["import"] + [" ".join(argv[:1] + argv[2:]) for argv in COMMANDS]
    loaded = dict(zip(steps, json.loads(done.stdout)))
    # a five-landscape campaign is one range, checked in this process; one
    # of 256 is split into four ranges, three of them in forked workers,
    # which loads pickle for the rest of the process
    split = steps.index("fuzz 256 --seed 1")
    assert loaded == {
        step: [step.startswith("simulate"), False, j >= split] for j, step in enumerate(steps)
    }


MODULES = sorted(module.name for module in pkgutil.iter_modules(basincycles.__path__))


def _defined(module):
    """Every function, and every method of every class, defined in ``module``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, functools.cached_property):
                    attr = attr.func
                if isinstance(attr, property):
                    yield from filter(None, (attr.fget, attr.fset, attr.fdel))
                elif inspect.isfunction(attr):
                    yield attr


def test_every_annotation_resolves():
    functions = [
        function
        for name in MODULES
        for function in _defined(importlib.import_module(f"basincycles.{name}"))
    ]
    assert basincycles.TransitionMatrix.jumps in functions
    for function in functions:
        typing.get_type_hints(function)


def test_every_perfbench_target_resolves(monkeypatch):
    # perfbench/layers.py looks each target up by name on every traced pass,
    # so a deleted or renamed one fails the benchmark, whose own tests do not
    # run with this suite
    monkeypatch.syspath_prepend(str(SRC.parent))
    layers = importlib.import_module("perfbench.layers")
    assert layers.TARGETS
    for module, name, _ in layers.TARGETS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
