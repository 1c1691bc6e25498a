"""Run a sequence of ``blochbounds`` calls through ``cli.main`` in one process.

Run with the tree under test on ``PYTHONPATH``; ``same_bytes.py`` runs it as
one of its commands, since its other commands each start a fresh process.
Later calls drop flags that earlier calls set, and refused calls come in
between, so anything one call left behind for the next would change a
later call's output. Prints each call's arguments, exit code, stdout and
stderr; stage times (``--timings``) keep their keys and order, not their
values. ``--dump-state`` writes ``dump.json`` in the working directory.
"""

import contextlib
import io
import shlex

from same_bytes import without_timing_values

CALLS = (
    "classify --builtin isotropic_ghz4 --d 2 --x 0.5 --tol 1e-6 --format json",
    "classify --builtin isotropic_ghz4 --d 2",
    "classify --builtin ghz --d 2 --parties 4",
    "frobnicate --d 2",
    "verify --d 2 --parties 3 --seed 1",
    "decompose --builtin ghz --d 2 --parties 3 --subset 1,3 --dump-state dump.json --format json",
    "decompose --builtin ghz --d 2 --parties 2",
    "verify --d 2 --parties 3 --kind mixed-ginibre --rank 2 --samples 5 --seed 1"
    " --checks ball-radius,purity-identity --tol 1e-6 --timings --format json",
    "verify --d 2 --parties 3 --kind mixed-ginibre --samples 5 --seed 1",
    "classify --builtin isotropic_ghz4 --d 3",
    "verify --d 2 --parties 3 --samples 5 --seed 1 --format json",
    "verify --d 2 --parties 3 --samples 5 --seed 1 --tol 1e-300 --timings",
    "verify --d 2 --parties 3 --samples 5 --seed 1",
    "tradeoff --builtin isotropic_ghz4 --d 2 --x 0.9 --tol 1e-3",
    "tradeoff --builtin ghz --d 2 --parties 4 --format json",
    "measure --builtin ghz --d 3 --parties 3",
    "decompose --builtin ghz --d 2 --parties 1 --format json",
    "bounds --d 3",
    "basis --d 2 --format json",
)


def outcomes(main):
    """``(call, exit code, stdout, stderr)`` of each call of ``CALLS`` through ``main``."""
    for call in CALLS:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(shlex.split(call))
        stdout = out.getvalue()
        if "--timings" in call:
            stdout = without_timing_values(stdout)
        yield call, code, stdout, err.getvalue()


def main():
    from blochbounds import cli

    for call, code, stdout, stderr in outcomes(cli.main):
        print(f"$ blochbounds {call}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}", end="")


if __name__ == "__main__":
    main()
