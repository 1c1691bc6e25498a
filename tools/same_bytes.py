"""Compare what two source trees print and write, command by command.

Usage, from the repository root:

    git worktree add /tmp/parent HEAD~1      # or: git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/same_bytes.py /tmp/parent .

Runs every command of ``same_bytes.txt`` (next to this file) once per tree,
each in its own process with ``PYTHONPATH=<tree>/src``, BLAS pinned to one
thread and a fresh empty working directory. It prints a header with the
interpreter, numpy and numpy's SIMD dispatch, since report bytes depend on
the dispatch, then one line per command whose exit code, stdout, stderr or
written files differ between the trees. Stage times (``--timings``) are
compared by their keys and their order, not their values. Exits 1 when a
command differs, else 0.

A command line is a ``blochbounds`` argument list, or ``python`` and the
interpreter's arguments. Leading ``NAME=value`` words set environment
variables, ``{tools}`` stands for this directory, and `` && `` chains
commands that share one working directory. A command ending in
`` | head -c 1`` has one byte of its stdout read before the pipe is closed,
as a reader that stops early does; its exit code and stderr are compared
in full. ``#`` starts a comment line.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
COMMANDS = TOOLS / "same_bytes.txt"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HEAD = " | head -c 1"
_TIMING_LINE = re.compile(r"^(  \S+:) .*$", re.MULTILINE)


def dispatch():
    """numpy's baseline SIMD features and the dispatched ones this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return " ".join(umath.__cpu_baseline__), " ".join(found)


def read_commands():
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def argv_of(step):
    """``(argv, extra environment)`` of one command of a chain."""
    words = shlex.split(step.replace("{tools}", str(TOOLS)))
    env = {}
    while words and re.fullmatch(r"[A-Za-z_]\w*=.*", words[0]):
        name, _, value = words.pop(0).partition("=")
        env[name] = value
    if words[:1] == ["python"]:
        return [sys.executable, *words[1:]], env
    return [sys.executable, "-m", "blochbounds.cli", *words], env


def run_step(argv, cwd, env, head):
    """Exit code, stdout and stderr of one command; ``head`` closes its stdout after one byte."""
    if not head:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
        return done.returncode, done.stdout, done.stderr
    with subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        first = proc.stdout.read(1)
        proc.stdout.close()
        stderr = proc.communicate(timeout=900)[1]
    return proc.returncode, first.decode(), stderr.decode()


def without_timing_values(text):
    """``text`` with each stage time's value dropped, its key and order kept."""
    try:
        doc = json.loads(text)
    except ValueError:
        head, sep, tail = text.partition("\ntimings:\n")
        return head + sep + _TIMING_LINE.sub(r"\1", tail)
    if isinstance(doc, dict) and "timings" in doc:
        doc["timings"] = list(doc["timings"])
    return json.dumps(doc, indent=2)


def run(tree, line):
    """What ``line`` gives under ``tree``: each step's exit code, stdout and stderr, and the files."""
    base = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    base.update({name: "1" for name in BLAS_THREADS})
    outcome = []
    with tempfile.TemporaryDirectory() as cwd:
        for step in line.split(" && "):
            head = step.endswith(HEAD)
            argv, env = argv_of(step.removesuffix(HEAD))
            code, stdout, stderr = run_step(argv, cwd, {**base, **env}, head)
            if "--timings" in argv:
                stdout = without_timing_values(stdout)
            outcome.append((step, code, stdout, stderr))
        files = {
            str(path.relative_to(cwd)): path.read_bytes()
            for path in sorted(Path(cwd).rglob("*"))
            if path.is_file()
        }
    return outcome, files


def differences(before, after):
    """Names of what differs between two ``run`` results."""
    (steps_a, files_a), (steps_b, files_b) = before, after
    found = []
    for (step, *a), (_, *b) in zip(steps_a, steps_b):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                found.append(f"{what} of {step!r}" if len(steps_a) > 1 else what)
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) != files_b.get(name):
            found.append(f"file {name}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="source tree to compare against (its src/ is imported)")
    parser.add_argument("after", help="source tree under test")
    args = parser.parse_args(argv)
    commands = read_commands()
    baseline, found = dispatch()
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}")
    print(f"simd baseline: {baseline}")
    print(f"simd dispatch found: {found}")
    print(f"NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES', '')!r}")
    print(f"{len(commands)} commands, {', '.join(BLAS_THREADS)} = 1")
    differing = 0
    for line in commands:
        found = differences(run(args.before, line), run(args.after, line))
        if found:
            differing += 1
            print(f"differs: {line}  [{', '.join(found)}]", flush=True)
    print(f"{differing} of {len(commands)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
