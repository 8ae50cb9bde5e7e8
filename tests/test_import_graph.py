"""Which modules each command loads.

Every case runs in a fresh interpreter, because this test process has
already imported every bitcube module.  `python -X importtime` lists each
module on its first import, so the listing is the set of modules a command
loaded beyond the interpreter's own start-up.
"""

import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
from importlib import import_module
from pathlib import Path

import pytest

import bitcube
from bitcube.cli import build_parser

SRC = str(Path(bitcube.__file__).resolve().parents[1])

# commands that use the orbits, with their exit codes
ORBIT_COMMANDS = [
    (["verify", "--scope", "all"], 0),
    (["tables", "--kind", "all", "--format", "json"], 0),
    (["classify", "--n", "4", "--group", "small"], 0),
    (["split", "--n", "4"], 0),
    (["rank", "--n", "4", "--semiring", "gf2", "--group", "large", "0110101110111101"], 0),
]


def _env(tmp_path):
    env = dict(os.environ, HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def loaded_modules(tmp_path, *argv):
    """Exit code of `python -m bitcube argv` and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bitcube", *argv],
        capture_output=True, text=True, env=_env(tmp_path), timeout=600,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert "bitcube.cli" in modules, proc.stderr[-2000:]
    return proc.returncode, modules


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["bounds"], 0),
        (["bounds", "--format", "json"], 0),
        (["--help"], 0),
        (["enumerate", "--n", "5", "--semiring", "gf2"], 2),
        (["tables", "--kind", "lower-bounds"], 0),
        (["rank", "--n", "4", "--semiring", "bool", "0110100110010110"], 0),
        (["enumerate", "--n", "4", "--semiring", "gf2"], 0),
        (["export", "--n", "4", "--semiring", "nat"], 0),
        *ORBIT_COMMANDS,
    ],
)
def test_commands_without_arrays_load_no_numpy(tmp_path, argv, exit_code):
    # dataclasses would load inspect, ast, dis and tokenize with it
    code, modules = loaded_modules(tmp_path, *argv)
    assert code == exit_code
    assert "numpy" not in modules
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    ([], 2),
    (["nosuch"], 2),
    (["enumerate", "--n", "5", "--semiring", "gf2"], 2),
])
def test_help_and_usage_errors_are_argparses(capsys, monkeypatch, tmp_path, argv, exit_code):
    # these take the argparse path; it wraps its text at $COLUMNS, so both
    # this process and the fresh one get the same width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "bitcube", *argv],
        capture_output=True, text=True, env=_env(tmp_path), timeout=600,
    )
    assert exc.value.code == proc.returncode == exit_code
    assert (proc.stdout, proc.stderr) == (expected.out, expected.err)


def test_orbit_commands_run_where_numpy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes `import numpy` raise ImportError
    script = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from bitcube.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""
    commands = [argv for argv, _ in ORBIT_COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=_env(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    blocked = json.loads(proc.stdout)
    for (argv, exit_code), (code, stdout) in zip(ORBIT_COMMANDS, blocked, strict=True):
        plain = subprocess.run(
            [sys.executable, "-m", "bitcube", *argv],
            capture_output=True, text=True, env=_env(tmp_path), timeout=600,
        )
        assert (code, stdout) == (plain.returncode, plain.stdout), argv
        assert code == exit_code


def test_every_module_and_the_serialiser_work_where_numpy_cannot_be_imported(tmp_path):
    script = """
import importlib, pkgutil, sys
from pathlib import Path
sys.modules["numpy"] = None
import bitcube
for m in pkgutil.iter_modules(bitcube.__path__):
    importlib.import_module("bitcube." + m.name)
from bitcube import Semiring, Shape, stratify
from bitcube.cache import dump_table, load_table
table = stratify(Shape(4), Semiring.NONNEG)
dump_table(table, Path(sys.argv[1]) / "t.bin")
print(load_table(Path(sys.argv[1]) / "t.bin") == table)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=_env(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "True\n"


def test_rank_loads_only_what_it_runs(tmp_path):
    code, modules = loaded_modules(
        tmp_path, "rank", "--n", "4", "--semiring", "gf2", "0110101110111101"
    )
    assert code == 0
    assert "bitcube.ranks" in modules
    for name in ("numpy", "bitcube.groups", "bitcube.cache", "bitcube.expected",
                 "bitcube.reporting", "json", "csv", "fractions", "dataclasses", "inspect",
                 "argparse", "gettext"):
        assert name not in modules


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", (None, "2"))
def test_cli_runs_blas_single_threaded_unless_told_otherwise(tmp_path, preset):
    # numpy's OpenBLAS would start a worker per extra core at import.  No
    # command loads numpy, not even `rank --group`, so the process keeps one
    # thread whatever OPENBLAS_NUM_THREADS says, and the entry point leaves
    # the variable as the user set it, or unset.
    script = """
import os, sys
from bitcube.cli import entrypoint
sys.argv = ["bitcube", "rank", "--n", "4", "--semiring", "gf2", "--group", "large",
            "0110101110111101"]
try:
    entrypoint()
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules, len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
"""
    env = _env(tmp_path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *printed, last = proc.stdout.splitlines()
    assert printed == ["6", "canonical: 0110101110111101", "orbit-size: 24"]
    assert last.split() == ["0", "False", "1", preset or "unset"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "4", "--semiring", "nat", "--format", "csv"],
    ["tables", "--kind", "all", "--format", "json"],
    ["tables", "--kind", "all"],
    ["bounds"],
])
def test_table_commands_load_no_fractions_and_no_dataset(tmp_path, argv):
    # the exact percentages are written with math.gcd, and only verify
    # reads the reference dataset
    code, modules = loaded_modules(tmp_path, *argv)
    assert code == 0
    assert "bitcube.reporting" in modules
    for name in ("fractions", "decimal", "bitcube.expected", "argparse", "gettext"):
        assert name not in modules


def test_verify_loads_only_what_it_runs(tmp_path):
    # verify reads the partitions and the lower bounds from ranks and the
    # rank-2 small split from groups: none of the table code in reporting
    code, modules = loaded_modules(tmp_path, "verify", "--scope", "all")
    assert code == 0
    assert {"bitcube.expected", "bitcube.groups", "bitcube.ranks"} <= modules
    for name in ("bitcube.reporting", "bitcube.cache", "json", "csv", "numpy",
                 "argparse", "gettext"):
        assert name not in modules


def test_verify_loads_no_cache(tmp_path):
    code, modules = loaded_modules(tmp_path, "verify", "--scope", "3")
    assert code == 0
    assert {"bitcube.groups", "bitcube.expected"} <= modules
    assert "bitcube.cache" not in modules


def test_every_exported_name_is_the_defining_modules_object(tmp_path):
    # After a command has run and every submodule is imported, each exported
    # name must still be the object its module defines, never a submodule:
    # the function `stratify` lives in `ranks`, not in a module of its name.
    script = """
import importlib, sys, types
import bitcube
from bitcube.cli import main
assert main(["rank", "--n", "3", "--semiring", "gf2", "00000001"]) == 0
modules = [importlib.import_module("bitcube." + m)
           for m in ("arrays", "ranks", "cache", "groups", "reporting", "expected")]
for name in bitcube.__all__:
    namespace = {}
    exec(f"from bitcube import {name}", namespace)
    obj = namespace[name]
    owners = [m for m in modules if name in vars(m)]
    assert not isinstance(obj, types.ModuleType), name
    assert owners and all(vars(m)[name] is obj for m in owners), name
print("checked", len(bitcube.__all__))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_env(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == f"1\nchecked {len(bitcube.__all__)}\n"


@pytest.mark.parametrize(
    "name",
    ["GroupElement", "AxisPermutation", "all_axis_permutations", "GL2_GENERATORS", "GL2_F2"])
def test_removed_group_names_are_gone(name):
    # no value stands for the matrices or the direction permutations: the
    # engine builds the matrices from two slice moves, and the permutations
    # are itertools.permutations(range(1, n + 1))
    with pytest.raises(ImportError):
        exec(f"from bitcube import {name}", {})
    assert name not in bitcube.__all__
    assert not hasattr(import_module("bitcube.groups"), name)


@pytest.mark.parametrize("name",
                         ["render_mat", "RankShare", "rank_distribution", "NONZERO_VECS"])
def test_removed_display_and_distribution_names_are_gone(name):
    # the tables' block display is reporting.mat_compact, their rank
    # distributions are build_table("strata-N-S").rows, and the nonzero
    # factor pairs stay in bitcube.arrays
    with pytest.raises(ImportError):
        exec(f"from bitcube import {name}", {})
    assert name not in bitcube.__all__


@pytest.mark.parametrize("module, name", [
    ("bitcube", "CacheError"), ("bitcube", "dump_table"), ("bitcube", "load_table"),
    ("bitcube.expected", "DEFAULT"), ("bitcube.expected", "ReferenceData")])
def test_removed_serialiser_and_dataset_names_are_gone(module, name):
    # the serialiser stays in bitcube.cache, outside the public API, and the
    # dataset is the module tables of bitcube.expected
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert name not in bitcube.__all__


def test_public_api_has_27_names():
    assert len(bitcube.__all__) == 27


def _functions(module):
    """Every function and method that module defines, by qualified name."""
    found = {}
    for obj in vars(module).values():
        members = [obj]
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            members += vars(obj).values()
        for member in members:
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member) and member.__module__ == module.__name__:
                found[member.__qualname__] = member
    return found


def test_type_hints_resolve_except_for_names_bound_only_for_type_checkers():
    # cli binds Namespace and argparse, and reporting the groups records,
    # only under TYPE_CHECKING: a canonical command loads no argparse, and a
    # table command loads no groups
    modules = [bitcube] + [import_module(f"bitcube.{m.name}")
                           for m in pkgutil.iter_modules(bitcube.__path__)]
    unresolved = set()
    for module in modules:
        for qualname, function in _functions(module).items():
            try:
                typing.get_type_hints(function)
            except NameError:
                unresolved.add(f"{module.__name__}.{qualname}")
    commands = ("enumerate", "rank", "classify", "split", "bounds", "export", "tables",
                "verify")
    assert unresolved == {
        *(f"bitcube.cli.cmd_{command}" for command in commands), "bitcube.cli.build_parser",
        "bitcube.reporting.orbit_records_table", "bitcube.reporting._split_parts",
        "bitcube.reporting.split_rule"}


def _oracle_loads(tmp_path, script):
    """The bitcube modules loaded by script, run with tests/ on the path."""
    script += '\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith("bitcube"))))'
    env = _env(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_oracles_load_neither_groups_nor_ranks(tmp_path):
    # the orbit oracle shares no code with the engine it checks
    loaded = _oracle_loads(tmp_path, """
import json, sys
from orbit_oracle import MATRICES, OrbitMinima, axis_action_table
OrbitMinima(3).large(5)
axis_action_table(MATRICES[0], 1, 3)
""")
    assert "bitcube.arrays" in loaded
    assert "bitcube.groups" not in loaded and "bitcube.ranks" not in loaded


def test_rank_oracle_loads_no_bitcube_module(tmp_path):
    # the rank oracle builds even its rank-1 codes from the definition
    assert _oracle_loads(tmp_path, """
import json, sys
from rank_oracle import RankSearch, closure_ranks
closure_ranks(3, "gf2")
RankSearch(3, "nat").rank(0b01101001)
""") == []


def test_bare_import_loads_no_submodule_and_each_submodule_binds_itself(tmp_path):
    # every public name is resolved on first use, so `import bitcube` loads
    # nothing of the package, and no name shadows a submodule of the package
    script = """
import json, pkgutil, sys, types
import bitcube
loaded = sorted(m for m in sys.modules if m.startswith("bitcube."))
names = sorted(m.name for m in pkgutil.iter_modules(bitcube.__path__))
shadowed = []
for name in names:
    exec(f"import bitcube.{name} as x")
    if not isinstance(x, types.ModuleType) or x.__name__ != "bitcube." + name:
        shadowed.append(name)
print(json.dumps([loaded, names, shadowed]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_env(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded, names, shadowed = json.loads(proc.stdout)
    assert loaded == []
    assert "ranks" in names
    assert shadowed == []
