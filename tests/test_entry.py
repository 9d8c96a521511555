"""BLAS thread policy, stdout errors and the exit-time heap freeze of the
process entry (``catsize.__main__.main``).

``python -m catsize`` and the console script ask for one BLAS thread before
numpy loads, unless the user has set a thread-count variable; the library
and an in-process ``cli.main`` leave the environment alone.  Each probe runs
in a fresh interpreter, since this test process has numpy loaded already.
A closed stdout pipe exits 141 quietly; any other stdout write error exits 2
with one error line.  The entry freezes the heap at exit, never while a
command runs.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

import catsize
from catsize.__main__ import _BLAS_THREAD_VARS, _USER_THREAD_VARS, EXIT_BROKEN_PIPE, main

SRC = os.path.dirname(os.path.dirname(catsize.__file__))
# a command that loads numpy, and with it the BLAS library
NUMPY_COMMAND = ["validate", "--max-n", "2"]


def run_probe(code: str, **env_vars: str) -> dict:
    # runs code with none of the thread variables set except env_vars and
    # returns the JSON object it prints last
    env = {k: v for k, v in os.environ.items() if k not in _USER_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def entry_probe(argv: list[str], preload_numpy: bool = False) -> str:
    # the command as ``python -m catsize argv`` runs it, stdout discarded;
    # prints the thread variables it leaves and the process's thread count
    return (
        "import contextlib, io, json, os, runpy, sys\n"
        + ("import numpy\n" if preload_numpy else "")
        + f"sys.argv = ['catsize', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('catsize', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert 'numpy' in sys.modules\n"
        "threads = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        f"env = {{v: os.environ.get(v) for v in {_USER_THREAD_VARS!r}}}\n"
        "print(json.dumps({'env': env, 'threads': threads}))\n"
    )


def test_entry_sets_one_blas_thread_by_default():
    out = run_probe(entry_probe(NUMPY_COMMAND))
    assert out["env"] == {v: "1" if v in _BLAS_THREAD_VARS else None for v in _USER_THREAD_VARS}
    if out["threads"] is not None:
        # no BLAS worker threads beside the main thread
        assert out["threads"] == 1


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_setting_wins(var):
    out = run_probe(entry_probe(NUMPY_COMMAND), **{var: "2"})
    assert out["env"] == {v: "2" if v == var else None for v in _USER_THREAD_VARS}


def test_entry_leaves_the_environment_once_numpy_is_loaded():
    # too late to matter: the BLAS library read its settings on load
    out = run_probe(entry_probe(NUMPY_COMMAND, preload_numpy=True))
    assert out["env"] == dict.fromkeys(_USER_THREAD_VARS)


def test_library_and_in_process_cli_leave_the_environment_alone():
    out = run_probe(
        "import contextlib, io, json, os\n"
        "before = dict(os.environ)\n"
        "import catsize, catsize.__main__\n"
        "from catsize import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({NUMPY_COMMAND!r}) == 0\n"
        "    assert cli.main(['distill-sim', '--n', '8', '--epsilon', '0.5']) == 0\n"
        "print(json.dumps({'same': dict(os.environ) == before}))\n"
    )
    assert out == {"same": True}


def test_entry_freezes_the_heap_at_exit():
    # atexit runs its handlers last in, first out, so this probe, registered
    # before the entry runs, runs after the entry's handler
    out = run_probe(
        "import atexit, gc, json\n"
        "atexit.register(lambda: print(json.dumps({'frozen': gc.get_freeze_count()})))\n"
        + entry_probe(NUMPY_COMMAND)
    )
    assert out["frozen"] > 0


def test_entry_registers_the_freeze_once_per_process():
    out = run_probe(
        "import atexit, contextlib, gc, io, json\n"
        "calls = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: calls.append(1) or freeze()\n"
        "atexit.register(lambda: print(json.dumps({'calls': len(calls)})))\n"
        "from catsize.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({NUMPY_COMMAND!r}) == 0\n"
        "    assert main(['effective-size', '--n', '5', '--epsilon', '0.1']) == 0\n"
    )
    assert out == {"calls": 1}


def test_in_process_entry_keeps_normal_collection(capsys):
    assert main(["effective-size", "--n", "5", "--epsilon", "0.1"]) == 0
    assert capsys.readouterr().out
    assert gc.get_freeze_count() == 0


def test_console_script_is_the_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(SRC), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"catsize": "catsize.__main__:main"}


@pytest.mark.parametrize(
    "argv",
    [
        ["distill-sim", "--n", "1000000", "--epsilon", "1e-3"],
        ["loss-curve", "--n", "100", "--epsilon", "0.2", "--steps", "200000"],
    ],
)
def test_closed_pipe_exits_quietly(argv):
    # the reader goes away after a few bytes, as with ``| head -c 20``; the
    # output is far larger than a pipe buffer, so the writer meets the
    # closed pipe: exit 141 (128 + SIGPIPE), nothing on stderr
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "catsize", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(20)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 20
    assert (code, err) == (EXIT_BROKEN_PIPE, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["effective-size", "--n", "5", "--epsilon", "0.1"], ["validate", "--max-n", "2"]],
)
def test_full_device_exits_2_with_one_error_line(argv, unbuffered):
    # a stdout that refuses the write (ENOSPC) is reported like a refused
    # --output: one error line, exit 2, nothing more at interpreter exit;
    # unbuffered, the write fails, buffered, the final flush does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "catsize", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write stdout: No space left on device\n"
    )
