"""Benchmark of the blochbounds command line, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload verify-q4-pure --seed 1 --trace 0

The benchmark drives the real CLI in-process (``blochbounds.cli.main(argv)``
with stdout captured) in a closed loop from one caller: each call starts
only after the previous one returned and its output was checked. BLAS
threads are pinned to one before numpy is imported.

``--trace 0`` runs the call mix for ``--seconds`` seconds and reports the
end-to-end metrics, with every timing scaled to a reference host speed that
a fixed gauge kernel, run on a timer during the loop, measures (see
``HostGauge``); the unscaled wall-clock figures are printed above the result.
``--trace 1`` runs a fixed number of mix cycles, derived from ``--seconds``
only, twice: once untraced and once with every layer boundary wrapped (see
``layers.py``). It reports the per-layer metrics of the traced pass and the
tracing overhead (traced minus untraced wall time), so counts repeat exactly
for the same seed and seconds.

Every call's output is checked; a call that exits non-zero, raises, or
fails its check counts as failed. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give provenance and a readable summary. See README.md.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
PACKAGE = "blochbounds"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

SETUP_PROBES = 9
# Host-speed gauge (see HostGauge): a timer runs the gauge kernel every
# GAUGE_EVERY_S during the timed loop, and each call or probe is scaled by
# REFERENCE_KERNEL_S over the median kernel time within GAUGE_WINDOW_S of it.
GAUGE_EVERY_S = 0.2
GAUGE_WINDOW_S = 0.5
GAUGE_BURST = 5
REFERENCE_KERNEL_S = 0.008
PROBE_TIMEOUT_S = 60
TOL = 1e-9  # the CLI's default comparison tolerance

# Samples per verify call: the 100-sample sweep that ROADMAP's baseline and
# its ms/sample target are stated for, so that batching the samples of one
# sweep is measured at the batch size it is meant for.
SWEEP_SAMPLES = 100
# verify-q4-pure: every applicable check runs
Q4_CHECKS = (
    "ball-radius", "bipartite-norm-bound", "tripartite-norm-bound",
    "fourpartite-norm-bound", "triple-norm-tradeoff", "purity-identity",
    "marginal-purity", "pure-triple-sum-rule", "reconstruction-round-trip",
    "separable-1-3", "separable-2-2", "separable-1-1-2", "separable-1-1-1-1",
)
# verify-grid-mixed: the acceptance-6 grid with its norm-cap checks. (3, 4)
# comes twice so that a cycle has an odd number of calls: the median and the
# 90th percentile then fall inside one call kind's times, not on the gap
# between two kinds.
GRID = ((2, 3), (3, 3), (2, 4), (3, 4), (3, 4))
NORM_CAPS = ("ball-radius", "bipartite-norm-bound", "tripartite-norm-bound")
FOUR_PARTY_CAPS = ("fourpartite-norm-bound", "triple-norm-tradeoff")
# state-files-d4: one d=4, n=4 full-rank matrix document and one pure document
FILE_D, FILE_N = 4, 4
CLASS_LABELS = ("1-1-1-1", "1-1-2", "1-3", "2-2")

# --trace 1 runs round(seconds * rate) mix cycles: about --seconds of wall
# time for the untraced and traced passes together on a 2-core Xeon.
TRACE_CYCLES_PER_S = {"verify-q4-pure": 0.27, "verify-grid-mixed": 0.28, "state-files-d4": 0.35}

Call = namedtuple("Call", "kind argv samples check")


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(a, b, rel=TOL):
    """NaN-aware closeness: false whenever either side is not finite."""
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def derived_seed(seed, index):
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# ---------------------------------------------------------------- workloads


def _verify_call(kind, d, n, sample_kind, samples, seed, checks, expected_checks):
    """A verify call; ``checks=None`` requests every applicable check."""
    argv = [
        "verify", "--d", str(d), "--parties", str(n), "--kind", sample_kind,
        "--samples", str(samples), "--seed", str(seed), "--format", "json",
    ]
    if checks:
        argv += ["--checks", ",".join(checks)]

    def check(code, report):
        expect(code == 0, f"verify exited {code}")
        expect(report["passed"] is True, "verify reported passed != true")
        expect(report["samples"] == samples, "wrong sample count")
        expect([c["name"] for c in report["checks"]] == list(expected_checks),
               "the report does not list the expected checks")
        for c in report["checks"]:
            margin = c["max_observed"] - c["bound"]
            expect(c["passed"] is True and margin <= c["tolerance"],
                   f"check {c['name']} failed: margin {margin!r}")

    return Call(kind, argv, samples, check)


def verify_q4_pure(seed, workdir):
    def make_call(i):
        return _verify_call("verify d3 n4", 3, 4, "pure-haar", SWEEP_SAMPLES,
                            derived_seed(seed, i), None, Q4_CHECKS)

    return 1, make_call


def verify_grid_mixed(seed, workdir):
    def make_call(i):
        d, n = GRID[i % len(GRID)]
        checks = NORM_CAPS + (FOUR_PARTY_CAPS if n == 4 else ())
        return _verify_call(f"verify d{d} n{n}", d, n, "mixed-ginibre", SWEEP_SAMPLES,
                            derived_seed(seed, i), checks, checks)

    return len(GRID), make_call


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def _closed_form_thresholds(d):
    scale = 16.0 / d**4
    return {
        "1-3": scale * (d - 1) * (d**3 - 3 * d + 2),
        "2-2": 16.0 * (d * d - 1) ** 2 / d**4,
        "1-1-2": scale * (d * d - 1) * (d - 1) ** 2,
        "1-1-1-1": scale * (d - 1) ** 4,
    }


def state_files_d4(seed, workdir):
    """Write the input documents, then cycle through the five-call mix.

    The matrix document is x |psi><psi| + (1 - x) G G^dagger / Tr: full rank,
    with x drawn from the seed so that the excluded classes differ by seed.
    The plain ``decompose`` call reads the file the ``--dump-state`` call just
    wrote, which is how the dump is reloaded and its norms compared.
    """
    d, n = FILE_D, FILE_N
    dim = d**n
    rng = np.random.default_rng(derived_seed(seed, "files"))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    noise = g @ g.conj().T
    noise /= noise.trace().real
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    x = rng.uniform(0.5, 0.95)
    rho = x * np.outer(psi, psi.conj()) + (1.0 - x) * noise
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi /= np.linalg.norm(phi)

    matrix_path = str(workdir / "matrix.json")
    pure_path = str(workdir / "pure.json")
    dump_path = str(workdir / "dump.json")
    _write_json(matrix_path, {"d": d, "parties": n, "kind": "matrix",
                              "matrix": [_pairs(row) for row in rho]})
    _write_json(pure_path, {"d": d, "parties": n, "kind": "pure", "amplitudes": _pairs(phi)})

    thresholds = _closed_form_thresholds(d)
    triple_cap = 8.0 * (d * d - 1) ** 3 / (d**3 * (d * d - 2))
    measure_cap = d * d * (d - 1) / 2.0
    reference = {}

    def check_decompose(code, report, compare_to=None):
        expect(code == 0, f"decompose exited {code}")
        tensors = report["tensors"]
        expect(len(tensors) == 2**n - 1, "decompose is missing subsets")
        norms = {}
        from_norms = 1.0 / dim
        for t in tensors:
            k = len(t["subset"])
            coeffs = np.asarray(t["coefficients"], dtype=float)
            expect(coeffs.size == (d * d - 1) ** k, f"wrong coefficient count for {t['subset']}")
            expect(close(t["norm_sq"], float(np.dot(coeffs, coeffs))),
                   f"norm of {t['subset']} disagrees with its coefficients")
            norms[tuple(t["subset"])] = t["norm_sq"]
            from_norms += t["norm_sq"] / (2**k * d ** (n - k))
        expect(close(report["purity"], from_norms),
               f"purity {report['purity']!r} != {from_norms!r} from tensor norms")
        if compare_to is not None:
            expect(norms == compare_to, "reloaded dump changed the norms")
        return norms

    def dump_check(code, report):
        reference["norms"] = check_decompose(code, report)

    def reload_check(code, report):
        check_decompose(code, report, compare_to=reference.get("norms"))

    def classify_check(code, report):
        expect(code == 0, f"classify exited {code}")
        norm = report["norm_sq_1234"]
        for label in CLASS_LABELS:
            expect(close(report["thresholds"][label], thresholds[label], 1e-12),
                   f"threshold {label} differs from its closed form")
        expected = {label for label in CLASS_LABELS if norm - thresholds[label] > TOL}
        expect(set(report["excluded"]) == expected,
               f"excluded {report['excluded']} != {sorted(expected)} at norm {norm!r}")
        ref = reference.get("norms")
        expect(ref is not None and close(norm, ref[(1, 2, 3, 4)]),
               "classify norm disagrees with decompose")

    def tradeoff_check(code, report):
        expect(code == 0, f"tradeoff exited {code}")
        total = sum(t["norm_sq"] for t in report["per_triple"])
        expect(close(report["sum_sq"], total), "sum_sq != sum of per-triple norms")
        expect(close(report["bound"], triple_cap, 1e-12), "trade-off bound differs from closed form")
        expect(report["satisfied"] is True and report["sum_sq"] <= report["bound"] + TOL,
               "trade-off cap violated")
        ref = reference.get("norms")
        expect(ref is not None and all(
            close(t["norm_sq"], ref[tuple(t["subset"])]) for t in report["per_triple"]
        ), "per-triple norms disagree with decompose")

    def measure_check(code, report):
        expect(code == 0, f"measure exited {code}")
        value = report["value"]
        expect(close(report["upper_bound"], measure_cap, 1e-12), "measure bound differs from closed form")
        expect(math.isfinite(value) and value <= report["upper_bound"] + TOL,
               f"measure {value!r} exceeds its bound")

    fmt = ["--format", "json"]
    mix = (
        Call("decompose --dump-state",
             ["decompose", "--state", matrix_path, "--dump-state", dump_path] + fmt, 1, dump_check),
        Call("decompose", ["decompose", "--state", dump_path] + fmt, 1, reload_check),
        Call("classify", ["classify", "--state", matrix_path] + fmt, 1, classify_check),
        Call("tradeoff", ["tradeoff", "--state", matrix_path] + fmt, 1, tradeoff_check),
        Call("measure", ["measure", "--state", pure_path] + fmt, 1, measure_check),
    )

    def make_call(i):
        if i % len(mix) == 0:
            reference.clear()
        return mix[i % len(mix)]

    return len(mix), make_call


WORKLOADS = {
    "verify-q4-pure": verify_q4_pure,
    "verify-grid-mixed": verify_grid_mixed,
    "state-files-d4": state_files_d4,
}

# one cheap call per workload that fills the basis cache before timing
WARMUP = {
    "verify-q4-pure": ["verify", "--d", "3", "--parties", "4", "--samples", "1", "--seed", "0"],
    "verify-grid-mixed": ["verify", "--d", "3", "--parties", "4", "--kind", "mixed-ginibre",
                          "--samples", "1", "--seed", "0"],
    "state-files-d4": ["decompose", "--builtin", "ghz", "--d", "4", "--parties", "2"],
}


# ---------------------------------------------------------------- running


def import_program():
    """Import blochbounds from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import blochbounds.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import {PACKAGE} from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: {PACKAGE} was imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, argv, gauge=None):
    """One timed CLI call; returns (start, seconds, exit code, stdout, stderr).

    Time the ``gauge`` kernel ran inside the call is not counted.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed call, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    elapsed = end - start - (gauge.seconds_within(start, end) if gauge else 0.0)
    return start, elapsed, code, out.getvalue(), err.getvalue()


def setup(workload, seed, workdir):
    """Everything before the first timed call: imports, inputs, basis cache."""
    cli = import_program()
    cycle, make_call = WORKLOADS[workload](seed, workdir)
    invoke(cli, WARMUP[workload])
    return cli, cycle, make_call


Record = namedtuple("Record", "kind start seconds samples ok bytes_in bytes_out")


def run_call(cli, call, failures, gauge=None):
    start, seconds, code, out, err = invoke(cli, call.argv, gauge)
    try:
        if not isinstance(code, int):
            raise CheckFailed(f"raised {code}")
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            raise CheckFailed(f"exit {code}, no JSON report: {err.strip()[:200]}") from None
        call.check(code, report)
        ok = True
    except CheckFailed as exc:
        ok = False
        if len(failures) < 5:
            failures.append(f"{call.kind}: {exc}")
    argv = call.argv
    bytes_in = os.path.getsize(argv[argv.index("--state") + 1]) if "--state" in argv else 0
    bytes_out = 0
    if "--dump-state" in argv:
        dump = argv[argv.index("--dump-state") + 1]
        bytes_out = os.path.getsize(dump) if os.path.exists(dump) else 0
    return Record(call.kind, start, seconds, call.samples, ok, bytes_in, bytes_out)


def closed_loop(cli, make_call, failures, calls):
    """Run a fixed number of calls back to back; returns records and wall seconds."""
    start = time.perf_counter()
    records = [run_call(cli, make_call(i), failures) for i in range(calls)]
    return records, time.perf_counter() - start


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to its first timed call."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return float(done.stdout.split()[-1]) - start


class HostGauge:
    """Samples the host's current speed with a fixed kernel.

    The host shares its cores with other tenants, and the same call takes
    up to twice as long in a busy minute as in a quiet one. The kernel does
    a little of each kind of work the program spends its time on: stdlib
    JSON decoding and encoding, small ``eigvalsh`` calls and interpreted
    Python. Its inputs are fixed, so it runs the same work in every run and
    on every commit; only the host's speed moves its time. While
    ``ticking``, a SIGALRM timer runs it every GAUGE_EVERY_S, also in the
    middle of a call; ``seconds_within`` tells callers how much of an
    interval they timed went to the kernel.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.doc = json.dumps([_pairs(rng.normal(size=64) + 1j * rng.normal(size=64))
                               for _ in range(16)])
        a = rng.normal(size=(81, 81))
        self.matrix = a + a.T
        self.kernel()  # the first run pays for lazy imports and allocations
        self.runs = []  # (start, end) of each kernel run, on the perf_counter clock

    def kernel(self):
        json.dumps(json.loads(self.doc))
        for _ in range(8):
            np.linalg.eigvalsh(self.matrix)
        total = 0
        for i in range(30000):
            total += i * i
        return total

    def sample(self, *_signal):
        start = time.perf_counter()
        self.kernel()
        self.runs.append((start, time.perf_counter()))

    def burst(self):
        for _ in range(GAUGE_BURST):
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def seconds_within(self, start, end):
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.runs)

    def scale(self, start, seconds):
        """REFERENCE_KERNEL_S over the median kernel time near [start, start + seconds]."""
        near = [b - a for a, b in self.runs
                if start - GAUGE_WINDOW_S <= 0.5 * (a + b) <= start + seconds + GAUGE_WINDOW_S]
        return REFERENCE_KERNEL_S / statistics.median(near)


def timing_metrics(records, seconds_of, setups):
    times = [seconds_of(r) for r in records]
    return {
        "samples_per_s": (sum(r.samples for r in records) / sum(times), "1/s"),
        "call_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "call_p90_ms": (1000.0 * percentile(times, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(cli, make_call, cycle, workload, seed, seconds, failures):
    """Closed loop for ``seconds`` of measured time, with set-up probes spread over it.

    The host's speed drifts over seconds and minutes, so every timing is
    reported at a reference host speed: each call or set-up probe is scaled
    by REFERENCE_KERNEL_S over the median time of the gauge kernel runs
    within GAUGE_WINDOW_S of it (see HostGauge). The timer is off while a
    probe runs; bursts of kernel runs before and after it, and at both ends
    of the loop, stand in for it. The probes run between calls at evenly
    spaced points of the run; the loop's clock stops while one runs. The
    unscaled figures are printed too.

    One cycle of the mix runs first, checked but untimed: the first full
    ``verify`` call of a process runs about 8% slower than the rest.
    """
    warmup = [run_call(cli, make_call(i), failures) for i in range(cycle)]
    gauge = HostGauge()
    probe_at = [(j + 0.5) * seconds / SETUP_PROBES for j in range(SETUP_PROBES)]
    records, probes = [], []  # probes: (start, seconds)
    measured = 0.0

    def probe():
        gauge.burst()
        start = time.perf_counter()
        probes.append((start, probe_setup(workload, seed)))
        gauge.burst()

    gauge.burst()
    while measured < seconds:
        if len(probes) < SETUP_PROBES and measured >= probe_at[len(probes)]:
            probe()
            continue
        with gauge.ticking():
            while measured < seconds and (len(probes) == SETUP_PROBES
                                          or measured < probe_at[len(probes)]):
                records.append(run_call(cli, make_call(cycle + len(records)), failures, gauge))
                measured += records[-1].seconds
    gauge.burst()
    while len(probes) < SETUP_PROBES:
        probe()
    metrics = timing_metrics(records, lambda r: r.seconds * gauge.scale(r.start, r.seconds),
                             [t * gauge.scale(start, t) for start, t in probes])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = timing_metrics(records, lambda r: r.seconds, [t for _, t in probes])
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    kernel_ms = 1000.0 * statistics.median(b - a for a, b in gauge.runs)
    notes = [f"{len(records)} calls in {measured:.1f} s after one untimed cycle of {cycle} calls; "
             f"gauge kernel median {kernel_ms:.3f} ms over {len(gauge.runs)} runs "
             f"(reference {1000.0 * REFERENCE_KERNEL_S:g} ms)",
             "unscaled wall clock: " + ", ".join(
                 f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items())]
    for kind, ts in by_kind.items():
        notes.append(f"  {kind}: {len(ts)} calls, unscaled median "
                     f"{1000.0 * statistics.median(ts):.2f} ms")
    return warmup + records, metrics, notes


def traced(cli, make_call, cycle, workload, seconds, failures):
    """Run each mix cycle untraced and traced, alternating which goes first.

    The overhead is the median over cycles of the traced minus the untraced
    time of that cycle's two passes, times the number of cycles: the two
    passes of a cycle run back to back, so the host's drift cancels in the
    pair, and the median keeps one slow call from setting the result.
    """
    cycles = max(1, round(seconds * TRACE_CYCLES_PER_S[workload]))
    tracer = Tracer()
    plain, records, differences = [], [], []
    untraced_s = traced_s = 0.0
    for c in range(cycles):
        def cycle_calls(i, c=c):
            return make_call(c * cycle + i)

        elapsed_by_pass = {}
        for traced_pass in ((False, True) if c % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install(PACKAGE)
            try:
                batch, elapsed = closed_loop(cli, cycle_calls, failures, cycle)
            finally:
                tracer.uninstall()
            elapsed_by_pass[traced_pass] = elapsed
            if traced_pass:
                records += batch
                traced_s += elapsed
            else:
                plain += batch
                untraced_s += elapsed
        differences.append(elapsed_by_pass[True] - elapsed_by_pass[False])
    metrics = tracer.layer_metrics(samples=sum(r.samples for r in records))
    metrics["serialize.bytes_in"] = (sum(r.bytes_in for r in records), "B")
    metrics["serialize.bytes_out"] = (sum(r.bytes_out for r in records), "B")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (cycles * statistics.median(differences), "s")
    notes = [f"{cycles} cycles of {cycle} calls, each untraced and traced; "
             f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s"]
    return plain + records, metrics, notes


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blochbounds": sys.modules[PACKAGE].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        cli, cycle, make_call = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        failures = []
        if args.trace:
            records, metrics, notes = traced(
                cli, make_call, cycle, args.workload, args.seconds, failures)
        else:
            records, metrics, notes = end_to_end(
                cli, make_call, cycle, args.workload, args.seed, args.seconds, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    failed = sum(not r.ok for r in records)
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + [f"failure: {f}" for f in failures]:
        print(line)
    print(f"error_rate: {failed / len(records):.6g} ({failed} of {len(records)} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
