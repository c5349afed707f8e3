"""What importing the package loads and exposes: numpy only with the
kernel, and annotations that resolve without it."""

import functools
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
import typing

import basincycles

from conftest import FIG1_PATH, fresh_env

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
    ["simulate", FIG1, "--cycle", "i,j", "--betas", "2", "--replicas", "10", "--seed", "1"],
]

# run in a fresh process, since conftest has imported numpy into this one:
# whether numpy is loaded after the imports and after each command
_WHICH_LOAD_NUMPY = """
import json, sys
import basincycles
from basincycles import cli
commands, out = json.loads(sys.argv[1]), sys.argv[2]
loaded = ["numpy" in sys.modules]
for argv in commands:
    assert cli.main(argv + ["--out", out]) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_simulate_loads_numpy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _WHICH_LOAD_NUMPY, json.dumps(COMMANDS), str(tmp_path / "out")],
        capture_output=True,
        env=fresh_env(),
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    steps = ["import"] + [" ".join(argv[:1] + argv[2:]) for argv in COMMANDS]
    loaded = dict(zip(steps, json.loads(done.stdout)))
    assert loaded == {step: step.startswith("simulate") for step in steps}


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
