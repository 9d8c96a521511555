"""Process entry of the ``catsize`` command: ``python -m catsize`` and the
installed console script both call :func:`main`.

The dense matrices the commands meet are at most 256 x 256 and the
distribution code uses elementwise ufuncs only, so a BLAS thread pool buys
no wall time here; threaded OpenBLAS even runs each oracle SVD slower while
burning a second core.  The entry therefore asks for one BLAS thread, in
the environment, before numpy can load.  A thread count the user has set
always wins, and importing the package or calling ``catsize.cli.main``
in-process leaves ``os.environ`` alone.

Output is written as it is produced, so a reader that closes the pipe
early (``catsize distill-sim ... | head -c 20``) ends the command with
exit status 141, 128 + SIGPIPE as a shell reports a command killed by
that signal, and with nothing on stderr.  Any other error writing stdout
(``> /dev/full``) prints one ``error: cannot write stdout: ...`` line, exit 2.

At exit the interpreter's full garbage collections would walk numpy's
import-time heap for tens of milliseconds; :func:`main` registers
``gc.freeze`` with ``atexit``, once per process, so they skip it.  A caller
of ``main`` in its own process keeps normal collection while it runs.
"""

import atexit
import gc
import os
import sys

# thread-count variables of the BLAS builds numpy ships with or links
# (OpenBLAS, MKL, BLIS, Accelerate) and of OpenMP, which the OpenMP builds
# of OpenBLAS and MKL follow
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# a user setting of any of these states a thread choice the entry keeps
_USER_THREAD_VARS = (*_BLAS_THREAD_VARS, "NUMEXPR_NUM_THREADS")
# exit status when the reader of stdout has gone away: 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with one BLAS thread unless numpy is loaded or the user
    has set a thread-count variable."""
    if "numpy" not in sys.modules and not any(v in os.environ for v in _USER_THREAD_VARS):
        for var in _BLAS_THREAD_VARS:
            os.environ[var] = "1"
    from .cli import main as cli_main

    atexit.unregister(gc.freeze)  # so that it runs once however often main is called
    atexit.register(gc.freeze)
    try:
        code = cli_main(argv)
        sys.stdout.flush()
    except OSError as exc:
        # cli_main reports --output errors itself, so this is stdout's: a
        # closed pipe or a refused write.  Python's exit would flush stdout
        # again and print a second error, so stdout is pointed at devnull
        # (the recipe of the signal module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
