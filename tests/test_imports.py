"""Import graph: the closed-form package and commands never load numpy,
nor ``inspect``, which ``dataclasses`` would bring in.

Each probe runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import pytest

import catsize

SRC = os.path.dirname(os.path.dirname(catsize.__file__))


def run_probe(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def main_probe(argv: list[str], code: int, numpy_loaded: bool) -> str:
    # cli.main on argv with stdout and stderr discarded; checks the exit code
    # and whether numpy was loaded
    return (
        "import contextlib, io, sys\n"
        "from catsize import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        rc = cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        rc = exc.code\n"
        f"assert rc == {code}, rc\n"
        f"assert ('numpy' in sys.modules) is {numpy_loaded}\n"
    )


def test_import_catsize_loads_no_submodule_and_no_numpy():
    run_probe(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import catsize\n"
        "assert set(sys.modules) - before == {'catsize'}, set(sys.modules) - before\n"
        "import catsize.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in ('catsize.distillation', 'catsize.validation', 'catsize.oracle'):\n"
        "    assert name not in sys.modules, name\n"
    )


def test_scalar_names_load_no_numpy():
    # the closed forms live in the numpy-free layer, whatever module a name
    # is documented under
    run_probe(
        "import sys, catsize\n"
        "p = catsize.CatParams(10**6, 1e-3)\n"
        "catsize.expected_n(p), catsize.entropy_s1(p)\n"
        "catsize.build_effective_size_report(p).to_payload()\n"
        "''.join(catsize.decay_curve(p, 1, catsize.Linspace(0.5, 2)).to_csv())\n"
        "''.join(catsize.loss_curve(p, 1, catsize.Linspace(0.5, 2)).to_csv())\n"
        "catsize.cat_offdiag_norm(p, 0.5)\n"
        "assert 'numpy' not in sys.modules\n"
        "catsize.reduced_rho1(p)\n"
        "assert 'numpy' in sys.modules\n"
    )


def test_oracle_loads_no_closed_form_module():
    # the oracle checks the closed forms, so it must not load them: of the
    # package it imports only core, for the parameter type and its checks
    run_probe(
        "import sys\n"
        "import catsize.oracle\n"
        "loaded = {m for m in sys.modules if m.split('.')[0] == 'catsize'}\n"
        "assert loaded == {'catsize', 'catsize.core', 'catsize.oracle'}, sorted(loaded)\n"
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["effective-size", "--n", "1000000", "--epsilon", "0.001"], 0),
        (["effective-size", "--n", "1000000", "--epsilon-sq-overlap", "1e-6"], 0),
        (["decoherence-curve", "--n", "100", "--epsilon", "0.2", "--steps", "101"], 0),
        (["loss-curve", "--n", "100", "--epsilon", "0.2", "--steps", "101"], 0),
        (["--help"], 0),
        (["decoherence-curve", "--n", "100", "--epsilon", "0.2", "--steps", "1"], 2),
    ],
)
def test_closed_form_commands_load_no_numpy(argv, code):
    # nor dataclasses and the inspect, ast and dis it would load, some 13 ms
    # of a command that computes for microseconds, nor json, whose string
    # quoting the serializer does itself
    probe = main_probe(argv, code, numpy_loaded=False)
    run_probe(probe + "assert not {'dataclasses', 'inspect', 'json'} & set(sys.modules)\n")


def test_no_module_imports_dataclasses():
    # the records are namedtuple subclasses, which load no module
    package = os.path.dirname(catsize.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "dataclasses" for m in imported), name


@pytest.mark.parametrize(
    "argv",
    [
        ["distill-sim", "--n", "8", "--epsilon", "0.5", "--trials", "10"],
        ["validate", "--max-n", "2"],
    ],
)
def test_array_commands_load_numpy(argv):
    run_probe(main_probe(argv, 0, numpy_loaded=True))


def test_star_import_binds_every_export():
    run_probe(
        "import importlib\n"
        "import catsize\n"
        "namespace = {}\n"
        "exec('from catsize import *', namespace)\n"
        "missing = set(catsize.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "for name in catsize.__all__:\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    module = importlib.import_module('catsize.' + catsize._EXPORTS[name])\n"
        "    assert namespace[name] is getattr(module, name), name\n"
        "assert set(catsize.__all__) <= set(dir(catsize))\n"
    )


def _submodules():
    return [
        importlib.import_module(f"catsize.{info.name}")
        for info in pkgutil.iter_modules(catsize.__path__)
    ]


def test_each_name_has_one_home():
    # a submodule's __all__ lists only what it defines, so every public name
    # is importable from exactly one submodule, the one catsize._EXPORTS names
    homes = {}
    for module in _submodules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
            homes.setdefault(name, []).append(module.__name__)
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, shared
    for name, sub in catsize._EXPORTS.items():
        assert homes.get(name) == [f"catsize.{sub}"], name


def test_every_oracle_export_has_a_caller():
    # a public oracle name that no other module of the package and no
    # perfbench script uses is kept alive only by its tests; the files are
    # read, not imported
    from catsize import oracle

    package = os.path.dirname(catsize.__file__)
    perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    paths = [os.path.join(package, n) for n in os.listdir(package) if n != "oracle.py"]
    paths += [os.path.join(perfbench, n) for n in os.listdir(perfbench)]
    text = ""
    for path in sorted(paths):
        if path.endswith(".py"):
            with open(path, encoding="utf-8") as fh:
                text += fh.read()
    unused = [name for name in oracle.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not unused, unused


def test_moved_names_stay_where_callers_found_them():
    # everything perfbench's tracer wraps or reads stays where it is found:
    # the CLI bindings, the result methods, the oracle kernels as validation
    # reaches them, and numpy as the oracle reaches it
    import numpy as np

    from catsize import cli, decoherence, distillation, loss, oracle, validation

    for name in (
        "CatParams", "decay_curve", "loss_curve", "outcome_distribution",
        "simulate_protocol", "dumps_json", "run_validation",
    ):
        assert callable(getattr(cli, name)), name
    assert cli.__all__ == ["main"]
    for owner, name in (
        (decoherence.DecayCurve, "to_csv"), (loss.LossCurve, "to_csv"),
        (distillation.OutcomeDistribution, "to_payload"), (distillation.McResult, "to_payload"),
    ):
        assert callable(getattr(owner, name)), name
    assert validation.oracle is oracle
    assert oracle.np is np
    for name in (
        "apply_product_channel", "dense_trace_norm", "enumerate_protocol", "enumerate_loss",
        "build_cat_state", "kron_power", "kron_all",
    ):
        assert callable(getattr(oracle, name)), name
    # the tracer counts len(result.q): N + 1, in memory of the window only
    tracemalloc.start()
    try:
        q = distillation.outcome_distribution(catsize.CatParams(2**27, 1e-3)).q
        assert len(q) == 2**27 + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(AttributeError):
        catsize.no_such_name  # noqa: B018


def test_cli_numpy_commands_are_replaceable_attributes(monkeypatch, capsys):
    # the handlers call through the module attribute, so a replacement is seen
    from catsize import cli

    calls = []

    def fake_validation(max_n):
        calls.append(max_n)
        return []

    monkeypatch.setattr(cli, "run_validation", fake_validation)
    assert cli.main(["validate", "--max-n", "3"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == "status,name,max_err,tol\n"
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "command, factory, endpoint_flag, default_n_ref",
    [
        # N = 100, eps = 0.2: N sin^2 eps = 3.95 and N (1 - cos eps) = 1.99
        ("decoherence-curve", "decay_curve", "--gamma-t-max", 4),
        ("loss-curve", "loss_curve", "--lambda-max", 2),
    ],
)
def test_cli_curve_factories_are_looked_up_at_call_time(
    monkeypatch, capsys, command, factory, endpoint_flag, default_n_ref
):
    # the one curve handler calls the factory through the module attribute,
    # so a replacement made after import is the one called, with the grid
    # of --steps points that perfbench's tracer counts
    from catsize import cli

    calls = []

    class FakeCurve:
        def to_csv(self):
            return ["x\n"]

    def fake_factory(params, n_ref, grid):
        calls.append((params, n_ref, grid.endpoint, len(grid), list(grid)[-1]))
        return FakeCurve()

    monkeypatch.setattr(cli, factory, fake_factory)
    argv = [command, "--n", "100", "--epsilon", "0.2", endpoint_flag, "0.75", "--steps", "7"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "x\n"
    assert calls == [(catsize.CatParams(100, 0.2), default_n_ref, 0.75, 7, 0.75)]
    assert cli.main([*argv, "--n-ref", "5"]) == 0
    assert calls[-1][1] == 5
