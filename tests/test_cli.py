import gc
import importlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blochbounds import state_to_json, ghz, isotropic_ghz4, DensityMatrix, sample_seed
from blochbounds import cli, sweeps
from blochbounds.cli import _dumps, _render_text, main
from conftest import MALFORMED_COMPLEX_DOCS, MALFORMED_SHAPE_DOCS, PSD_OVERFLOW, UNREAD_PARAM_DOCS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """The ``error:`` line of a refused command, after asserting exit 2, no output and one line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    return err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def child_env(**overrides):
    """This process's environment for a child interpreter that imports the package under test.

    ``overrides`` are set on top. ``OPENBLAS_VERBOSE`` is left out, since the child's OpenBLAS
    would print its kernel on the stderr a test reads, and so are glibc's allocator tunings
    (``MALLOC_*``, ``GLIBC_TUNABLES``), which a child's page-fault counts must not inherit.
    """
    env = {
        var: value
        for var, value in os.environ.items()
        if var not in ("OPENBLAS_VERBOSE", "GLIBC_TUNABLES") and not var.startswith("MALLOC_")
    }
    env.update(overrides, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return env


def assert_indent_layout(out):
    """``out`` is byte for byte what ``print(json.dumps(value, indent=2))`` writes of its value."""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def assert_compact_layout(text):
    """``text`` is byte for byte ``json.dumps(value)`` of the value it holds."""
    assert text == json.dumps(json.loads(text))


def test_bounds_d2(capsys):
    code, report, _ = run_json(capsys, "bounds", "--d", "2")
    assert code == 0
    assert report["bipartite"] == 3.0
    assert report["tripartite"] == 4.0
    assert report["fourpartite"] == 9.0
    assert report["tradeoff"] == 13.5
    assert report["separability_thresholds"] == {
        "1-1-1-1": 1.0,
        "1-1-2": 3.0,
        "1-3": 4.0,
        "2-2": 9.0,
    }
    assert report["measure_upper_bounds"]["4"]["closed_form"] == 2.0


def test_basis_d2_lists_paulis(capsys):
    code, report, _ = run_json(capsys, "basis", "--d", "2")
    assert code == 0
    assert report["count"] == 3
    labels = [g["label"] for g in report["generators"]]
    assert labels == ["sym(0,1)", "asym(0,1)", "diag(1)"]
    pauli_y = report["generators"][1]["matrix"]
    assert pauli_y == [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]


def test_classify_noisy_builtin(capsys):
    code, report, _ = run_json(
        capsys, "classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7"
    )
    assert code == 0
    assert abs(report["norm_sq_1234"] - 4.41) < 1e-9
    assert report["excluded"] == ["1-1-1-1", "1-1-2", "1-3"]
    assert "necessary" in report["note"]

    code, quiet, _ = run_json(
        capsys, "classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.3"
    )
    assert code == 0
    assert quiet["excluded"] == []


def test_classify_state_file(capsys, tmp_path):
    doc = state_to_json(isotropic_ghz4(0.7, 2))
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "classify", "--state", str(path))
    assert code == 0
    assert abs(report["norm_sq_1234"] - 4.41) < 1e-9


def test_measure_qutrit_ghz(capsys):
    code, report, _ = run_json(
        capsys, "measure", "--builtin", "ghz", "--d", "3", "--parties", "3"
    )
    assert code == 0
    assert abs(report["value"] - 3.01969) < 1e-4
    assert abs(report["upper_bound"] - 3.01969) < 1e-4
    routes = report["upper_bound_routes"]
    assert abs(routes["closed_form"] - routes["via_norm_bound"]) < 1e-12


def test_measure_reports_raw_and_clamped(capsys):
    code, report, _ = run_json(
        capsys, "measure", "--builtin", "ghz", "--d", "2", "--parties", "2"
    )
    assert code == 0
    assert report["upper_bound"] is None  # defined for 3 or 4 parties only
    assert abs(report["value"] - (math.sqrt(3) - 1)) < 1e-9
    assert report["value_clamped"] == max(report["value"], 0.0)


def test_measure_rejects_mixed_state(capsys):
    code, out, err = run_cli(
        capsys, "measure", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5"
    )
    assert code == 2
    assert out == ""
    assert err == "error: state is mixed (purity 0.2968749999999999); expected a pure state\n"


PURE_BUILTINS = [
    ["--builtin", "ghz", "--d", str(d), "--parties", str(n)] for d in (2, 3, 4) for n in (2, 3, 4)
] + [["--builtin", "product_max_entangled", "--d", str(d)] for d in (2, 3, 4)]


@pytest.mark.parametrize("argv", PURE_BUILTINS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_pure_matrix_document_measures_like_its_builtin(capsys, tmp_path, argv, fmt):
    # measure reads the matrix it is given, not a vector rebuilt from it
    dump = tmp_path / "dump.json"
    assert run_cli(capsys, "decompose", *argv, "--subset", "1", "--dump-state", str(dump))[0] == 0
    assert json.loads(dump.read_text())["kind"] == "matrix"
    builtin = run_cli(capsys, "measure", *argv, "--format", fmt)
    assert builtin[0] == 0 and builtin[1]
    assert run_cli(capsys, "measure", "--state", str(dump), "--format", fmt) == builtin


def test_measure_accepts_rank_one_matrix_input(capsys, tmp_path):
    doc = state_to_json(isotropic_ghz4(1.0, 2))  # pure state stored as a matrix
    path = tmp_path / "pure_matrix.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "measure", "--state", str(path))
    assert code == 0
    assert abs(report["value"] - 2.0) < 1e-9


def test_decompose_subset(capsys):
    code, report, _ = run_json(
        capsys,
        "decompose",
        "--builtin",
        "ghz",
        "--d",
        "2",
        "--parties",
        "4",
        "--subset",
        "1,2,3,4",
    )
    assert code == 0
    assert len(report["tensors"]) == 1
    tensor = report["tensors"][0]
    assert tensor["subset"] == [1, 2, 3, 4]
    assert len(tensor["coefficients"]) == 81
    assert abs(tensor["norm_sq"] - 9.0) < 1e-12


def test_decompose_full_listing(capsys):
    code, report, _ = run_json(
        capsys, "decompose", "--builtin", "ghz", "--d", "2", "--parties", "3"
    )
    assert code == 0
    assert len(report["tensors"]) == 7
    assert report["purity"] == pytest.approx(1.0, abs=1e-12)


def test_decompose_dump_and_reingest_preserves_norms(capsys, tmp_path):
    dump = tmp_path / "dump.json"
    code, first, _ = run_json(
        capsys,
        "decompose",
        "--builtin",
        "isotropic_ghz4",
        "--d",
        "2",
        "--x",
        "0.6",
        "--dump-state",
        str(dump),
    )
    assert code == 0
    assert json.loads(dump.read_text())["kind"] == "matrix"
    assert_compact_layout(dump.read_text())
    code, second, _ = run_json(capsys, "decompose", "--state", str(dump))
    assert code == 0
    for t1, t2 in zip(first["tensors"], second["tensors"]):
        assert t1["subset"] == t2["subset"]
        assert abs(t1["norm_sq"] - t2["norm_sq"]) <= 1e-12


def test_tradeoff_maximally_mixed_matrix_file(capsys, tmp_path):
    rho = DensityMatrix(np.eye(16) / 16, 2, 4)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(state_to_json(rho)))
    code, report, _ = run_json(capsys, "tradeoff", "--state", str(path))
    assert code == 0
    assert report["sum_sq"] == 0.0
    assert report["bound"] == 13.5
    assert report["satisfied"] is True
    assert [t["subset"] for t in report["per_triple"]] == [
        [1, 2, 3],
        [1, 2, 4],
        [1, 3, 4],
        [2, 3, 4],
    ]


def test_verify_passes_and_reports(capsys):
    code, report, _ = run_json(
        capsys,
        "verify",
        "--d",
        "2",
        "--parties",
        "3",
        "--samples",
        "25",
        "--seed",
        "42",
        "--checks",
        "tripartite-norm-bound,purity-identity",
    )
    assert code == 0
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["tripartite-norm-bound", "purity-identity"]
    for check in report["checks"]:
        assert check["samples"] == 25
        assert check["worst_margin"] <= check["tolerance"]


def test_verify_names_the_worst_sample_in_json_and_text(capsys):
    argv = ("verify", "--d", "2", "--parties", "2", "--samples", "7", "--seed", "3")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    for check in report["checks"]:
        assert 0 <= check["worst_index"] < 7
        assert check["worst_seed"] == sample_seed(3, check["worst_index"])
    code, text, _ = run_cli(capsys, *argv)
    first = report["checks"][0]
    assert f"worst_index: {first['worst_index']}" in text
    assert f"worst_seed: {first['worst_seed']}" in text


def test_verify_timings_flag_adds_only_the_timings(capsys):
    for d, samples in (("3", "4"), ("2", "3")):
        argv = ("verify", "--d", d, "--parties", "4", "--samples", samples, "--seed", "1")
        _, plain, _ = run_json(capsys, *argv)
        code, timed, _ = run_json(capsys, *argv, "--timings")
        assert code == 0 and "timings" not in plain
        timings = timed.pop("timings")
        assert timed == plain
        checks = [check["name"] for check in plain["checks"]]
        assert list(timings) == ["rho", "coeffs", "norms", "separable", *checks]
        assert all(isinstance(seconds, float) and seconds >= 0 for seconds in timings.values())
    code, text, _ = run_cli(capsys, *argv, "--timings")
    assert code == 0 and "\ntimings:\n  rho: " in text


# importing the package frees one 16 MiB block, which raises glibc's dynamic mmap and trim
# thresholds on 64-bit glibc, unless the process started with its allocator tuned
glibc_thresholds = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or platform.libc_ver()[0] != "glibc"
    or sys.maxsize < 2**32,
    reason="glibc's dynamic thresholds are raised on 64-bit glibc only",
)
TUNED_ALLOCATOR = any(var.startswith("MALLOC_") for var in os.environ) or (
    "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
)
SECOND_SWEEP_FAULTS = """
import resource
from blochbounds import SampleSpec, run_sweep
spec = SampleSpec(3, 4, count=100, base_seed=1)
run_sweep(spec)  # grows the heap to the working set
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_sweep(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def second_sweep_faults(**tuning):
    """Minor faults of a fresh interpreter's second library sweep, its allocator tuned by ``tuning`` alone.

    The thresholds are process-wide and this process has imported the package, so the
    sweep runs in its own interpreter.
    """
    done = subprocess.run(
        [sys.executable, "-c", SECOND_SWEEP_FAULTS],
        env=child_env(**tuning), capture_output=True, text=True, check=True, timeout=300,
    )
    return int(done.stdout)


@glibc_thresholds
@pytest.mark.skipif(TUNED_ALLOCATOR, reason="the environment tunes glibc's allocator")
def test_verify_keeps_freed_chunk_arrays_mapped(capsys):
    resource = pytest.importorskip("resource")
    argv = ["verify", "--d", "3", "--parties", "4", "--samples", "100", "--seed", "1"]
    assert main(argv) == 0  # grows the heap to the working set
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(argv)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    # under glibc's default thresholds each such call takes more than 13,000
    assert code == 0 and faults < 1000


@glibc_thresholds
def test_a_library_sweep_keeps_freed_chunk_arrays_mapped():
    # about 15,000 under glibc's default thresholds
    assert second_sweep_faults() < 1000


@glibc_thresholds
def test_a_tuned_allocator_keeps_its_thresholds():
    # glibc keeps a tuned threshold fixed, so the freed chunk arrays go back to the system
    assert second_sweep_faults(MALLOC_TRIM_THRESHOLD_="0") > 5000


def test_verify_refuses_oversized_dimensions_without_allocating(capsys):
    tracemalloc.start()
    try:
        err = run_refused(
            capsys, "verify", "--d", "1000", "--parties", "4", "--samples", "1", "--seed", "0"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "above the cap" in err
    assert peak < 4 << 20  # a d=1000, n=4 matrix would take 1.6e13 bytes
    assert "above the cap" in run_refused(capsys, "basis", "--d", "100000")


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--samples", "2.5"),
        ("--samples", "true"),
        ("--seed", "1.5"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
    ],
)
def test_verify_non_integer_count_or_seed_exits_two(capsys, flag, value):
    argv = {"--d": "2", "--parties": "2", "--samples": "3", "--seed": "0"}
    argv[flag] = value
    run_refused(capsys, "verify", *[x for kv in argv.items() for x in kv])


def test_boolean_ensemble_weight_in_state_file_exits_two(capsys, tmp_path):
    # also weights too large for a float: an ensemble weight and isotropic_ghz4's x
    docs = [
        {
            "d": 2,
            "parties": 1,
            "kind": "ensemble",
            "members": [{"weight": weight, "amplitudes": [[1, 0], [0, 0]]}],
        }
        for weight in (True, 10**400)
    ]
    docs.append({"kind": "builtin", "name": "isotropic_ghz4", "d": 2, "params": {"x": 10**400}})
    for doc in docs:
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        err = run_refused(capsys, "decompose", "--state", str(path))
        assert "weight" in err


def test_verify_exit_one_on_failure(capsys):
    code, report, _ = run_json(
        capsys,
        "verify",
        "--d",
        "2",
        "--parties",
        "2",
        "--samples",
        "5",
        "--seed",
        "1",
        "--checks",
        "purity-identity",
        "--tol",
        "1e-30",
    )
    assert code == 1
    assert report["passed"] is False


def _broken_sample(stack, index, fill):
    out = stack.copy()
    out[index] = fill(out[index])
    return out


def _non_psd(mat):
    # Hermitian and of unit trace, with eigenvalue -0.5
    out = np.zeros_like(mat)
    out[0, 0], out[1, 1] = 1.5, -0.5
    return out


@pytest.mark.parametrize(
    "target,check,fill",
    [
        ("_rebuild", "reconstruction-round-trip", _non_psd),
        ("_rebuild", "reconstruction-round-trip", lambda mat: np.full_like(mat, np.nan)),
        ("_partial_trace", "marginal-purity", lambda mat: mat + np.eye(len(mat))),
        ("_partial_trace", "marginal-purity", lambda mat: np.eye(len(mat)) / len(mat)),
    ],
    ids=["rebuild-non-psd", "rebuild-nan", "marginal-not-a-state", "marginal-wrong-state"],
)
def test_verify_exits_one_when_a_derived_state_breaks(capsys, monkeypatch, target, check, fill):
    # a broken reconstruction or marginal is a failed check naming its sample, not an input error
    original = getattr(sweeps, target)
    bad = 3
    monkeypatch.setattr(
        sweeps, target, lambda *args: _broken_sample(original(*args), bad, fill)
    )
    argv = ["verify", "--d", "2", "--parties", "3", "--samples", "6", "--seed", "4"]
    code, report, err = run_json(capsys, *argv, "--checks", check)
    assert code == 1 and err == ""
    assert report["passed"] is False
    (outcome,) = report["checks"]
    assert outcome["passed"] is False
    assert not outcome["max_observed"] <= outcome["tolerance"]
    assert outcome["worst_index"] == bad
    assert outcome["worst_seed"] == sample_seed(4, bad)
    code, text, err = run_cli(capsys, *argv, "--checks", check)
    assert code == 1 and err == ""
    assert f"worst_index: {bad}" in text


def test_verify_rejects_inapplicable_check(capsys):
    argv = ["verify", "--d", "2", "--parties", "2", "--samples", "5", "--seed", "1"]
    run_refused(capsys, *argv, "--checks", "fourpartite-norm-bound")


def test_error_paths_exit_two(capsys, tmp_path):
    run_refused(capsys, "frobnicate")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_refused(capsys, "classify", "--state", str(bad))
    run_refused(capsys, "classify", "--state", str(tmp_path / "gone.json"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert "nested too deeply" in run_refused(capsys, "decompose", "--state", str(deep))
    assert "is too large" in run_refused(capsys, "bounds", "--d", "1" + "0" * 52)
    run_refused(capsys, "classify", "--builtin", "ghz", "--d", "2")
    run_refused(capsys, "measure", "--builtin", "isotropic_ghz4", "--d", "2")
    run_refused(capsys, "classify", "--builtin", "ghz", "--parties", "4")
    # wrong arity for the subcommand
    run_refused(capsys, "classify", "--builtin", "ghz", "--d", "2", "--parties", "3")


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error: MemoryError"),
        (MemoryError("Unable to allocate 1.00 GiB"), "error: Unable to allocate 1.00 GiB"),
        (RuntimeError("boom"), "error: boom"),
    ],
    ids=["bare-memory-error", "memory-error", "runtime-error"],
)
@pytest.mark.parametrize(
    "target, argv",
    [
        ("run_sweep", ["verify", "--d", "2", "--parties", "3", "--samples", "2", "--seed", "1"]),
        ("full_decomposition", ["decompose", "--builtin", "ghz", "--d", "2", "--parties", "2"]),
    ],
    ids=["verify", "decompose"],
)
def test_any_failure_exits_two_with_one_line(capsys, monkeypatch, exc, line, target, argv):
    # exit 1 means a failed sweep; any other exception used to exit 1 with a traceback
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", line + "\n")


def test_a_reader_closing_stdout_early_exits_two_with_one_line():
    argv = ["decompose", "--builtin", "ghz", "--d", "4", "--parties", "4", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "blochbounds.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("shared", [False, True], ids=["stdout", "stdout-and-stderr"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--d", "2"],
        ["decompose", "--builtin", "ghz", "--d", "4", "--parties", "4", "--format", "json"],
        ["decompose", "--state", "/nonexistent.json"],
    ],
    ids=["bounds", "decompose-ghz", "missing-state"],
)
def test_a_closed_pipe_exits_two(argv, shared):
    # the pipe's reader is gone before the command starts; with stderr on it too
    # the error line cannot be written, and the exit is still 2
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "blochbounds.cli", *argv],
            stdout=write,
            stderr=write if shared else subprocess.PIPE,
            env=child_env(),
        )
    finally:
        os.close(write)
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 2
    if not shared:
        err = err.decode()
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--checks", "ball-radius,ball-radius"], "requested more than once"),
        (["--checks", ""], "no checks requested"),
        (["--samples", "99999999999999999999"], "count must lie in"),
    ],
    ids=["duplicate-checks", "empty-checks", "samples-past-2**64"],
)
def test_verify_refuses_bad_selections_before_sampling(capsys, extra, message):
    argv = ["verify", "--d", "2", "--parties", "3", "--samples", "5", "--seed", "1", *extra]
    err = run_refused(capsys, *argv)
    assert message in err


def _state_file(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "decompose",
            {"d": 2, "parties": 1, "kind": "pure", "amplitudes": [[1.5, 0], [0, 0]]},
            "state vector norm 1.5 is not 1 within 1e-09",
        ),
        (
            "decompose",
            {"d": 2, "parties": 1, "kind": "matrix", "matrix": [[[1.5, 0], [0, 0]], [[0, 0]] * 2]},
            "trace (1.5+0j) is not 1 within 1e-09",
        ),
        (
            "decompose",
            {"d": 2.7, "parties": 1, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]},
            "local dimension must be an integer, got 2.7",
        ),
        (
            "decompose",
            {"d": 2, "parties": True, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]},
            "party count must be an integer, got True",
        ),
        (
            "measure",
            {"d": 2, "parties": 2, "kind": "pure", "amplitudes": [[math.nan, 0]] + [[0, 0]] * 3},
            "amplitudes contain non-finite values (NaN or infinity)",
        ),
        # finite entries whose norm, trace, Hermitian deviation or Hermitian part overflows:
        # one error line, no numpy warning
        (
            "decompose",
            {"d": 2, "parties": 1, "kind": "pure", "amplitudes": [[1e200, 0], [0, 0]]},
            "state vector norm inf is not 1 within 1e-09",
        ),
        (
            "decompose",
            {
                "d": 2, "parties": 1, "kind": "matrix",
                "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]],
            },
            "trace (inf+0j) is not 1 within 1e-09",
        ),
        (
            "decompose",
            {
                "d": 2, "parties": 1, "kind": "matrix",
                "matrix": [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]],
            },
            "matrix deviates from Hermitian by inf",
        ),
        (
            "decompose",
            {
                "d": 2, "parties": 4, "kind": "matrix",
                "matrix": [[[x, 0] for x in row] for row in PSD_OVERFLOW.tolist()],
            },
            "matrix is not positive semidefinite: smallest eigenvalue -1.000e+308",
        ),
    ],
    ids=[
        "vector-norm",
        "trace",
        "fractional-dimension",
        "boolean-party-count",
        "nan-amplitude",
        "vector-norm-overflow",
        "trace-overflow",
        "hermitian-overflow",
        "hermitian-part-overflow",
    ],
)
@pytest.mark.filterwarnings("error")
def test_state_file_refusals_print_python_scalars(capsys, tmp_path, command, doc, message):
    path = _state_file(tmp_path, json.dumps(doc))
    assert run_cli(capsys, command, "--state", path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["decompose", "classify", "tradeoff", "measure"])
def test_a_pure_document_is_held_to_its_projector_rule(capsys, tmp_path, command):
    # a vector whose norm is 1 within 1e-9 is refused when its projector's purity is not 1,
    # in the vector's words, on either side of 1; a vector whose projector is pure goes
    # through every command, measure's purity check included
    doc = state_to_json(ghz(2, 4))
    amps = np.array(doc["amplitudes"])
    for scale in (1 + 0.9e-9, 1 - 0.4e-9):
        doc["amplitudes"] = (amps * scale).tolist()
        path = _state_file(tmp_path, json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--state", path)
        assert (code, out) == (2, "")
        norm = float(np.linalg.norm(ghz(2, 4).amplitudes * scale))
        assert err == f"error: state vector norm {norm!r} gives a projector of purity not 1 within 1e-09\n"
    for scale in (1 + 0.2e-9, 1 - 0.2e-9):
        doc["amplitudes"] = (amps * scale).tolist()
        path = _state_file(tmp_path, json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--state", path)
        assert code == 0 and out and err == ""


@pytest.mark.parametrize("command", ["decompose", "classify", "tradeoff"])
def test_one_hermiticity_rule_for_every_state_command(capsys, tmp_path, command):
    # a matrix within 1e-9 of Hermitian is a state and goes through; one beyond is refused
    doc = state_to_json(isotropic_ghz4(0.5, 2))
    doc["matrix"][0][15][1] = 4e-10  # its mirror entry [15][0] stays real
    code, out, err = run_cli(capsys, command, "--state", _state_file(tmp_path, json.dumps(doc)))
    assert code == 0 and out and err == ""
    doc["matrix"][0][15][1] = 2.4e-9
    code, out, err = run_cli(capsys, command, "--state", _state_file(tmp_path, json.dumps(doc)))
    assert (code, out, err) == (2, "", "error: matrix deviates from Hermitian by 2.400e-09\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_COMPLEX_DOCS))
def test_malformed_complex_entries_in_state_file_exit_two(capsys, tmp_path, case):
    path = _state_file(tmp_path, json.dumps(MALFORMED_COMPLEX_DOCS[case]))
    err = run_refused(capsys, "decompose", "--state", path)
    assert "JSON numbers" in err or "rectangular array" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPE_DOCS))
def test_fields_of_the_wrong_json_type_in_state_file_exit_two(capsys, tmp_path, case):
    doc, field = MALFORMED_SHAPE_DOCS[case]
    path = _state_file(tmp_path, json.dumps(doc))
    err = run_refused(capsys, "decompose", "--state", path)
    assert f"{field} must be" in err


def test_failed_decompose_writes_no_dump(capsys, tmp_path):
    # valid as a state (Hermiticity deviation 8e-10 < 1e-9), so it decomposes and is dumped
    matrix = [[[0.5, 0.0], [4e-10, 0.0]], [[-4e-10, 0.0], [0.5, 0.0]]]
    doc = {"d": 2, "parties": 1, "kind": "matrix", "matrix": matrix}
    path = _state_file(tmp_path, json.dumps(doc))
    dump = tmp_path / "dump.json"
    code, out, err = run_cli(capsys, "decompose", "--state", path, "--dump-state", str(dump))
    assert code == 0 and err == ""
    assert json.loads(dump.read_text())["matrix"] == matrix
    dump.unlink()
    # valid as a state, refused later: no dump
    argv = ["decompose", "--builtin", "ghz", "--d", "2", "--parties", "2", "--subset", "3"]
    assert "not contained" in run_refused(capsys, *argv, "--dump-state", str(dump))
    assert not dump.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--builtin", "ghz", "--d", "2", "--parties", "2", "--subset", ""], "--subset must be"),
        (["--builtin", "ghz", "--d", "2", "--parties", "2", "--dump-state", ""], "No such file"),
        (["--state", ""], "No such file"),
    ],
    ids=["subset", "dump-state", "state"],
)
def test_empty_values_exit_two_with_one_line(capsys, tmp_path, monkeypatch, argv, message):
    # an empty value is a value: it is refused, not read as the flag left out
    monkeypatch.chdir(tmp_path)
    err = run_refused(capsys, "decompose", *argv)
    assert message in err and err.rstrip().endswith("''")
    assert list(tmp_path.iterdir()) == []


def test_state_and_builtin_are_mutually_exclusive(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(state_to_json(isotropic_ghz4(0.5, 2))))
    run_refused(capsys, "classify", "--state", str(path), "--builtin", "ghz")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--builtin", "product_max_entangled", "--d", "2", "--parties", "3"], "always 4-party"),
        (["--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5", "--parties", "2"], "always 4-party"),
        (["--builtin", "ghz", "--d", "2", "--parties", "4", "--x", "0.5"], "takes no parameter 'x'"),
        (["--builtin", "product_max_entangled", "--d", "2", "--x", "0.5"], "takes no parameter 'x'"),
        (["--state", "s.json", "--d", "2"], "--d applies to --builtin only"),
        (["--state", "s.json", "--parties", "4"], "--parties applies to --builtin only"),
        (["--state", "s.json", "--x", "0.5"], "--x applies to --builtin only"),
    ],
    ids=["pme-parties", "iso-parties", "ghz-x", "pme-x", "state-d", "state-parties", "state-x"],
)
def test_state_flags_the_state_does_not_take_exit_two(capsys, tmp_path, monkeypatch, argv, message):
    # a flag is refused, never dropped: the same documents given as --state exit 2 too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(state_to_json(isotropic_ghz4(0.5, 2))))
    for command in ("classify", "decompose"):
        err = run_refused(capsys, command, *argv)
        assert message in err


def _builtin_doc(name, **keys):
    return {"kind": "builtin", "name": name, **keys}


# each --builtin flag set beside the document it stands for: --d is d, --parties is
# parties and --x is params.x, and a flag left out is a key left out
BUILTIN_REFUSALS = {
    "no-d": (["--builtin", "ghz", "--parties", "3"], _builtin_doc("ghz", parties=3)),
    "ghz-no-parties": (["--builtin", "ghz", "--d", "2"], _builtin_doc("ghz", d=2)),
    "iso-no-x": (["--builtin", "isotropic_ghz4", "--d", "2"], _builtin_doc("isotropic_ghz4", d=2)),
    "ghz-x": (
        ["--builtin", "ghz", "--d", "2", "--parties", "3", "--x", "0.5"],
        _builtin_doc("ghz", d=2, parties=3, params={"x": 0.5}),
    ),
    "pme-x": (
        ["--builtin", "product_max_entangled", "--d", "2", "--x", "0.5"],
        _builtin_doc("product_max_entangled", d=2, params={"x": 0.5}),
    ),
    "pme-parties": (
        ["--builtin", "product_max_entangled", "--d", "2", "--parties", "3"],
        _builtin_doc("product_max_entangled", d=2, parties=3),
    ),
    "iso-parties": (
        ["--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5", "--parties", "2"],
        _builtin_doc("isotropic_ghz4", d=2, parties=2, params={"x": 0.5}),
    ),
}

BUILTIN_ACCEPTS = {
    "ghz": (["--builtin", "ghz", "--d", "3", "--parties", "3"], _builtin_doc("ghz", d=3, parties=3)),
    "iso": (
        ["--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7"],
        _builtin_doc("isotropic_ghz4", d=2, params={"x": 0.7}),
    ),
    "iso-parties": (
        ["--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7", "--parties", "4"],
        _builtin_doc("isotropic_ghz4", d=2, parties=4, params={"x": 0.7}),
    ),
    "pme": (
        ["--builtin", "product_max_entangled", "--d", "2"],
        _builtin_doc("product_max_entangled", d=2),
    ),
    "pme-parties": (
        ["--builtin", "product_max_entangled", "--d", "2", "--parties", "4"],
        _builtin_doc("product_max_entangled", d=2, parties=4),
    ),
}


@pytest.mark.parametrize("case", sorted(BUILTIN_REFUSALS))
def test_builtin_flags_and_documents_refuse_alike(capsys, tmp_path, case):
    # the flags are the document's keys, so both routes refuse in the document's words
    argv, doc = BUILTIN_REFUSALS[case]
    flags_err = run_refused(capsys, "classify", *argv)
    path = _state_file(tmp_path, json.dumps(doc))
    assert run_refused(capsys, "classify", "--state", path) == flags_err


@pytest.mark.parametrize("case", sorted(BUILTIN_ACCEPTS))
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_builtin_flags_and_documents_give_the_same_report(capsys, tmp_path, case, fmt):
    # one report either way, or one refusal where classify meets a three-party state
    argv, doc = BUILTIN_ACCEPTS[case]
    path = _state_file(tmp_path, json.dumps(doc))
    for command in ("decompose", "classify"):
        flags = run_cli(capsys, command, *argv, "--format", fmt)
        assert flags[0] == (2 if command == "classify" and case == "ghz" else 0)
        assert run_cli(capsys, command, "--state", path, "--format", fmt) == flags


@pytest.mark.parametrize("case", sorted(UNREAD_PARAM_DOCS))
def test_state_documents_with_params_the_builtin_does_not_read_exit_two(capsys, tmp_path, case):
    doc, message = UNREAD_PARAM_DOCS[case]
    path = _state_file(tmp_path, json.dumps(doc))
    err = run_refused(capsys, "decompose", "--state", path)
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--builtin", "product_max_entangled", "--d", "2"],
        ["--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5"],
    ],
    ids=["pme", "iso"],
)
def test_four_parties_are_forwarded_to_the_four_party_builtins(capsys, argv):
    code, plain, _ = run_cli(capsys, "classify", *argv)
    assert code == 0
    code, forwarded, _ = run_cli(capsys, "classify", *argv, "--parties", "4")
    assert code == 0 and forwarded == plain


def test_verify_help_names_both_tolerance_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # no wrap inside the hyphenated check name
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default 1e-09, 1e-10 for reconstruction-round-trip, or $BLOCHBOUNDS_TOL)" in text


def test_text_and_json_report_identical_values(capsys):
    args = ("classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7")
    code, report, _ = run_json(capsys, *args)
    assert code == 0
    code, text, _ = run_cli(capsys, *args)
    assert code == 0
    line = next(l for l in text.splitlines() if l.startswith("norm_sq_1234:"))
    assert float(line.split(":", 1)[1]) == report["norm_sq_1234"]
    excluded_line = next(l for l in text.splitlines() if l.startswith("excluded:"))
    assert excluded_line == "excluded: [1-1-1-1, 1-1-2, 1-3]"


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BLOCHBOUNDS_TOL", "10.0")
    code, report, _ = run_json(
        capsys, "classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7"
    )
    assert code == 0
    assert report["excluded"] == []  # every margin is below the huge tolerance
    monkeypatch.setenv("BLOCHBOUNDS_TOL", "-1")
    code, _, err = run_cli(
        capsys, "classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7"
    )
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5", "--tol", "0"],
        ["tradeoff", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5", "--tol", "-1"],
        ["verify", "--d", "2", "--parties", "3", "--samples", "2", "--seed", "1", "--tol", "0"],
    ],
    ids=["classify", "tradeoff", "verify"],
)
def test_non_positive_tolerance_exits_two(capsys, monkeypatch, argv):
    # the library refuses it, whether given by the flag or by the environment
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: comparison tolerance must be positive") and err.count("\n") == 1
    for value in ("0", "-1"):
        monkeypatch.setenv("BLOCHBOUNDS_TOL", value)
        line = f"error: comparison tolerance must be positive and finite, got {float(value)}\n"
        assert run_cli(capsys, *argv[:-2]) == (2, "", line)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.5"],
        ["verify", "--d", "2", "--parties", "3", "--samples", "2", "--seed", "1"],
    ],
    ids=["classify", "verify"],
)
def test_non_numeric_tolerance_env_exits_two(capsys, monkeypatch, argv):
    monkeypatch.setenv("BLOCHBOUNDS_TOL", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: BLOCHBOUNDS_TOL must be a number, got 'abc'\n"


def test_json_floats_round_trip_through_text(capsys):
    code, report, _ = run_json(
        capsys, "measure", "--builtin", "ghz", "--d", "3", "--parties", "3"
    )
    assert code == 0
    # the JSON encoding must preserve the double exactly
    assert float(repr(report["value"])) == report["value"]


BOUNDS_D2_TEXT = """\
d: 2
bipartite: 3.0
tripartite: 4.0
fourpartite: 9.0
tradeoff: 13.5
ball_radii:
  inner: 1.0
  outer: 1.0
separability_thresholds:
  1-1-1-1: 1.0
  1-1-2: 3.0
  1-3: 4.0
  2-2: 9.0
measure_upper_bounds:
  3:
    closed_form: 1.0
    via_norm_bound: 1.0
    difference: 0.0
  4:
    closed_form: 2.0
    via_norm_bound: 2.0
    difference: 0.0
"""

BASIS_D2_TEXT = """\
d: 2
count: 3
generators:
  -
    label: sym(0,1)
    matrix: [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
  -
    label: asym(0,1)
    matrix: [[[0.0, 0.0], [-0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
  -
    label: diag(1)
    matrix: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
"""

TEXT_LINE = re.compile(r"(  )*(-|- \S.*|[^\s:-][^:]*:|[^\s:-][^:]*: \S.*)")


def test_text_reports_keep_their_layout(capsys):
    # closed forms and exact basis entries: the same bytes on any BLAS
    assert run_cli(capsys, "bounds", "--d", "2") == (0, BOUNDS_D2_TEXT, "")
    assert run_cli(capsys, "basis", "--d", "2") == (0, BASIS_D2_TEXT, "")
    argv = ["verify", "--d", "2", "--parties", "3", "--samples", "3", "--seed", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for line in out.splitlines():
        assert TEXT_LINE.fullmatch(line), line
    # a list mixing scalars and containers: "- value" items beside "-" items
    assert _render_text({"mix": [1.5, [2, [3]], {"k": True}]}) == [
        "mix:", "  - 1.5", "  - [2, [3]]", "  -", "    k: true",
    ]


LAYOUT_CASES = {
    "basis": ["basis", "--d", "3"],
    "bounds": ["bounds", "--d", "3"],
    "decompose": ["decompose", "--builtin", "ghz", "--d", "3", "--parties", "3"],
    "decompose-subset": [
        "decompose", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.6", "--subset", "1,3",
    ],
    "classify": ["classify", "--builtin", "isotropic_ghz4", "--d", "2", "--x", "0.7"],
    "measure-no-bound": ["measure", "--builtin", "ghz", "--d", "2", "--parties", "2"],
    "measure-routes": ["measure", "--builtin", "ghz", "--d", "3", "--parties", "3"],
    "tradeoff": ["tradeoff", "--builtin", "product_max_entangled", "--d", "2"],
    "verify": ["verify", "--d", "2", "--parties", "3", "--samples", "6", "--seed", "4"],
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_json_reports_keep_the_stdlib_indent_layout(capsys, case):
    code, out, _ = run_cli(capsys, *LAYOUT_CASES[case], "--format", "json")
    assert code == 0
    assert_indent_layout(out)


def test_failing_verify_with_nan_keeps_the_stdlib_indent_layout(capsys, monkeypatch):
    original = sweeps._rebuild

    def rebuild(*args):
        return _broken_sample(original(*args), 3, lambda mat: np.full_like(mat, np.nan))

    monkeypatch.setattr(sweeps, "_rebuild", rebuild)
    argv = ["verify", "--d", "2", "--parties", "3", "--samples", "6", "--seed", "4"]
    argv += ["--checks", "reconstruction-round-trip", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert '"max_observed": NaN' in out
    assert_indent_layout(out)


def test_d4_report_and_dump_keep_the_stdlib_layouts(capsys, tmp_path, d4_matrix_file):
    dump = tmp_path / "dump.json"
    sources = [
        (["--state", str(d4_matrix_file)], 65_535),
        (["--builtin", "product_max_entangled", "--d", "2"], 255),
    ]
    for source, coefficients in sources:
        argv = ["decompose", *source, "--dump-state", str(dump)]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert_indent_layout(out)
        assert sum(len(t["coefficients"]) for t in json.loads(out)["tensors"]) == coefficients
        assert_compact_layout(dump.read_text())


def collections_during(capsys, *argv):
    """``main(argv)``'s exit code and the number of collections the cyclic collector starts in it."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = run_cli(capsys, *argv)[0]
    finally:
        gc.callbacks.remove(count)
    return code, len(started)


def test_state_file_commands_run_no_collection(capsys, tmp_path, d4_matrix_file):
    # the document decodes into 65 792 lists, over which an enabled collector runs about 85 times
    state = ["--state", str(d4_matrix_file)]
    calls = [
        ["decompose", *state, "--dump-state", str(tmp_path / "dump.json"), "--format", "json"],
        ["classify", *state],
        ["tradeoff", *state],
    ]
    for argv in calls:
        assert collections_during(capsys, *argv) == (0, 0), argv[0]


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting):
    found = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["bounds", "--d", "2"]) == 0
        assert gc.isenabled() is collecting
        assert main(["verify", "--d", "1000", "--parties", "4", "--samples", "1", "--seed", "0"]) == 2
        assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["--version"])
        assert gc.isenabled() is collecting
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _ClosedStdout())
            assert main(["bounds", "--d", "2"]) == 2
        assert gc.isenabled() is collecting
        assert capsys.readouterr().err.count("error: ") == 2
    finally:
        (gc.enable if found else gc.disable)()


def test_dumps_matches_the_stdlib_indent_encoder_on_edge_values():
    nan, inf = float("nan"), float("inf")
    value = {
        "numbers": [1, -2.5, 1e-300, 2**70, nan, inf, -inf, -0.0],
        "not-plain": [True, 1, np.float64(0.1), None],
        "strings": ["a, b", "caf\u00e9\n", ""],
        "empty": [[], {}, ()],
        "nested": [[[0.0, 1.0]], (2, 3), {"k": [4]}],
        "scalar": nan,
    }
    assert _dumps(value) == json.dumps(value, indent=2)
    for leaf in (1, 0.5, "s", None, True, [], {}, [7], (1.5,)):
        assert _dumps(leaf) == json.dumps(leaf, indent=2)


TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def fresh_parser():
    """The process's parser dropped before and after the test, so the test sees every build."""
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_main_builds_its_parser_once(capsys, monkeypatch, fresh_parser):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    calls = [
        ["bounds", "--d", "2"],
        ["frobnicate"],
        ["basis", "--d", "2", "--format", "json"],
        ["classify", "--builtin", "isotropic_ghz4", "--d", "2"],
        ["decompose", "--builtin", "ghz", "--d", "2", "--parties", "2"],
    ]
    codes = [run_cli(capsys, *argv)[0] for argv in calls]
    assert codes == [0, 2, 0, 2, 0]
    assert len(built) == 8  # the parser and its seven subcommands, once


def test_a_reused_parser_gives_each_call_what_a_fresh_one_gives(monkeypatch, tmp_path, fresh_parser):
    monkeypatch.syspath_prepend(str(TOOLS))
    sequence = importlib.import_module("cli_sequence")
    # each of these flags is set by one call and left out by a later call of that subcommand
    for flag in ("--x", "--tol", "--timings", "--subset", "--dump-state", "--rank", "--checks"):
        first = next(i for i, call in enumerate(sequence.CALLS) if flag in call.split())
        sub = sequence.CALLS[first].split()[0]
        later = [call.split() for call in sequence.CALLS[first + 1 :]]
        assert any(words[0] == sub and flag not in words for words in later), flag
    monkeypatch.chdir(tmp_path)

    def on_a_fresh_parser(argv):
        cli._build_parser.cache_clear()
        return main(argv)

    fresh = list(sequence.outcomes(on_a_fresh_parser))
    fresh_dump = (tmp_path / "dump.json").read_bytes()
    cli._build_parser.cache_clear()
    reused = list(sequence.outcomes(main))
    assert reused == fresh
    assert (tmp_path / "dump.json").read_bytes() == fresh_dump
    assert {code for _, code, _, _ in fresh} == {0, 1, 2}


def test_help_on_a_reused_parser_follows_columns(capsys, monkeypatch, fresh_parser):
    def help_text(columns):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        return capsys.readouterr().out

    reused = {columns: help_text(columns) for columns in ("200", "50", "200")}
    for columns, text in reused.items():
        cli._build_parser.cache_clear()
        assert text == help_text(columns)
    assert reused["50"] != reused["200"]
