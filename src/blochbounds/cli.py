"""Command-line entry point.

Subcommands: ``basis``, ``decompose``, ``bounds``, ``classify``, ``measure``,
``tradeoff``, ``verify``. States come from a JSON document (``--state FILE``)
or from a builtin document's flags: ``--builtin``, ``--d``, ``--parties`` and
``--x`` are its ``name``, ``d``, ``parties`` and ``params.x``, and a flag left
out is a key left out, so every builtin refusal is the document's own. Reports
print as JSON (``--format json``) or as indented text carrying the same
values. Exit codes: 0 on success, 1 only when a verification sweep fails, 2
on any other failure (out of memory and a closed stdout included), with one
``error:`` line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import math
import os
import sys

from . import __version__
from .basis import generate_basis
from .bloch import bloch_tensor, full_decomposition, tensor_norm_sq
from .bounds import (
    COMPARISON_TOL,
    _measure_from_norm_sq,
    bound_table,
    classify,
    et_bound_audit,
    separability_thresholds,
    tradeoff_check,
)
from .serialize import BUILTIN_NAMES, _dump_matrix, _encode_complex, as_density, state_from_json
from .states import _check_pure, purity
from .sweeps import (
    MIXED_GINIBRE,
    PURE_HAAR,
    ROUND_TRIP_TOL,
    SampleSpec,
    available_checks,
    run_sweep,
)

TOL_ENV_VAR = "BLOCHBOUNDS_TOL"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser():
    """The process's one parser, built on the first call and reused by every later one.

    Reuse carries nothing from one call to the next: ``parse_args`` fills a
    fresh namespace each time, the handlers read ``run_sweep`` and the rest
    as module globals when they run, and help text is formatted when it is
    printed, so ``COLUMNS`` still applies.
    """
    parser = _Parser(prog="blochbounds", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    basis = subs.add_parser("basis", help="print the generator basis for one dimension")
    basis.add_argument("--d", type=int, required=True, help="local dimension")
    _format_argument(basis)
    basis.set_defaults(handler=_cmd_basis)

    decompose = subs.add_parser("decompose", help="correlation tensors of a state")
    _state_arguments(decompose)
    decompose.add_argument(
        "--subset", help="restrict to one party subset, e.g. 1,2,4 (default: all)"
    )
    decompose.add_argument(
        "--dump-state",
        metavar="FILE",
        help="on success, also write the validated state as matrix-kind JSON",
    )
    _format_argument(decompose)
    decompose.set_defaults(handler=_cmd_decompose)

    bounds_cmd = subs.add_parser("bounds", help="closed-form bounds and thresholds")
    bounds_cmd.add_argument("--d", type=int, required=True, help="local dimension")
    _format_argument(bounds_cmd)
    bounds_cmd.set_defaults(handler=_cmd_bounds)

    classify_cmd = subs.add_parser(
        "classify", help="excluded separability classes of a four-party state"
    )
    _state_arguments(classify_cmd)
    _tol_argument(classify_cmd)
    _format_argument(classify_cmd)
    classify_cmd.set_defaults(handler=_cmd_classify)

    measure = subs.add_parser("measure", help="tensor-norm measure of a pure state")
    _state_arguments(measure)
    _format_argument(measure)
    measure.set_defaults(handler=_cmd_measure)

    tradeoff = subs.add_parser(
        "tradeoff", help="joint three-party norm budget of a four-party state"
    )
    _state_arguments(tradeoff)
    _tol_argument(tradeoff)
    _format_argument(tradeoff)
    tradeoff.set_defaults(handler=_cmd_tradeoff)

    verify = subs.add_parser("verify", help="randomized sweep over bounds and identities")
    verify.add_argument("--d", type=int, required=True, help="local dimension")
    verify.add_argument("--parties", type=int, required=True, help="party count")
    verify.add_argument("--samples", type=int, required=True, help="number of samples")
    verify.add_argument("--seed", type=int, required=True, help="64-bit base seed")
    verify.add_argument(
        "--kind", choices=(PURE_HAAR, MIXED_GINIBRE), default=PURE_HAAR
    )
    verify.add_argument("--rank", type=int, help="rank cap for mixed-ginibre samples")
    verify.add_argument(
        "--checks",
        help="comma-separated check names (default: all applicable); "
        f"known: {','.join(available_checks())}",
    )
    _tol_argument(verify, f"{COMPARISON_TOL}, {ROUND_TRIP_TOL} for reconstruction-round-trip")
    verify.add_argument(
        "--timings",
        action="store_true",
        help="also report the seconds spent per sweep stage and per check",
    )
    _format_argument(verify)
    verify.set_defaults(handler=_cmd_verify)
    return parser


def _format_argument(sub):
    sub.add_argument("--format", choices=("json", "text"), default="text")


def _tol_argument(sub, default=COMPARISON_TOL):
    sub.add_argument(
        "--tol",
        type=float,
        help=f"comparison tolerance (default {default}, or ${TOL_ENV_VAR})",
    )


def _state_arguments(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", metavar="FILE", help="JSON state document")
    source.add_argument("--builtin", choices=BUILTIN_NAMES, help="inline builtin state")
    sub.add_argument("--d", type=int, help="local dimension (builtin only)")
    sub.add_argument("--parties", type=int, help="party count (builtin only; ghz needs it)")
    sub.add_argument("--x", type=float, help="mixing weight (builtin isotropic_ghz4 only)")


def _resolve_tol(args, default=None):
    raw = os.environ.get(TOL_ENV_VAR)
    if args.tol is not None or raw is None:
        return default if args.tol is None else args.tol
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from None


def _load_state(args):
    """The state of ``--state`` or of the builtin flags, as one validated ``DensityMatrix``."""
    if args.state is not None:
        for flag, value in (("--d", args.d), ("--parties", args.parties), ("--x", args.x)):
            if value is not None:
                raise ValueError(f"{flag} applies to --builtin only, not to --state")
        with open(args.state, "r", encoding="utf-8") as handle:
            try:
                return as_density(state_from_json(json.load(handle)))
            except RecursionError:
                raise ValueError(f"state file {args.state} is nested too deeply") from None
    # the flags are the builtin document's keys, so the document rules what each builtin takes
    doc = {"kind": "builtin", "name": args.builtin, "d": args.d, "parties": args.parties}
    return as_density(state_from_json({**doc, "params": {} if args.x is None else {"x": args.x}}))


def _parse_subset(raw):
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"--subset must be comma-separated integers, got {raw!r}") from None


def _cmd_basis(args):
    basis = generate_basis(args.d)
    generators = [
        {"label": label, "matrix": _encode_complex(matrix)}
        for label, matrix in zip(basis.labels, basis)
    ]
    return {"d": basis.local_dim, "count": len(basis), "generators": generators}, 0


def _cmd_decompose(args):
    rho = _load_state(args)
    decomp = full_decomposition(rho)
    subsets = [_parse_subset(args.subset)] if args.subset is not None else decomp.subsets()
    tensors = list(map(decomp.tensor, subsets))
    # Written once nothing can refuse the input, so a refused input leaves no file, and
    # before the coefficient lists are built, so they and the dump's row texts never coexist.
    if args.dump_state is not None:
        _dump_matrix(rho, args.dump_state)
    report = {
        "d": rho.local_dim,
        "parties": rho.num_parties,
        "purity": purity(rho),
        "tensors": [
            {
                "subset": list(t.subset),
                "norm_sq": tensor_norm_sq(t),
                "coefficients": t.coefficients.tolist(),
            }
            for t in tensors
        ],
    }
    return report, 0


def _cmd_bounds(args):
    table = bound_table(args.d)
    inner, outer = table.ball_radii
    audit = et_bound_audit(args.d)
    return {
        "d": table.local_dim,
        "bipartite": table.bipartite_bound,
        "tripartite": table.tripartite_bound,
        "fourpartite": table.fourpartite_bound,
        "tradeoff": table.tradeoff_bound,
        "ball_radii": {"inner": inner, "outer": outer},
        "separability_thresholds": separability_thresholds(args.d),
        "measure_upper_bounds": {str(n): audit[n] for n in sorted(audit)},
    }, 0


def _cmd_classify(args):
    rho = _load_state(args)
    report = classify(rho, _resolve_tol(args, COMPARISON_TOL))
    return {
        "d": report.local_dim,
        "norm_sq_1234": report.norm_sq_1234,
        "thresholds": report.thresholds,
        "margins": report.margins,
        "excluded": [label for label in report.margins if label in report.excluded],
        "note": report.verdict_note,
    }, 0


def _cmd_measure(args):
    rho = _load_state(args)
    _check_pure(rho)
    d, n = rho.local_dim, rho.num_parties
    norm_sq = tensor_norm_sq(bloch_tensor(rho, tuple(range(1, n + 1))))
    value = _measure_from_norm_sq(d, n, norm_sq)
    routes = et_bound_audit(d).get(n)
    report = {
        "d": d,
        "parties": n,
        "norm_sq": norm_sq,
        "norm": math.sqrt(norm_sq),
        "value": value,
        "value_clamped": max(value, 0.0),
        "upper_bound": routes["closed_form"] if routes else None,
    }
    if routes:
        report["upper_bound_routes"] = routes
    return report, 0


def _cmd_tradeoff(args):
    rho = _load_state(args)
    result = tradeoff_check(rho, _resolve_tol(args, COMPARISON_TOL))
    return {
        "d": rho.local_dim,
        "sum_sq": result.sum_sq,
        "bound": result.bound,
        "satisfied": result.satisfied,
        "per_triple": [
            {"subset": list(triple), "norm_sq": norm_sq}
            for triple, norm_sq in result.per_triple.items()
        ],
    }, 0


def _cmd_verify(args):
    spec = SampleSpec(
        local_dim=args.d,
        num_parties=args.parties,
        kind=args.kind,
        count=args.samples,
        base_seed=args.seed,
        rank=args.rank,
    )
    # an empty --checks is an empty selection, refused by run_sweep, not the default
    checks = None if args.checks is None else args.checks.split(",") if args.checks else []
    report = run_sweep(spec, checks=checks, tol=_resolve_tol(args))
    payload = {
        "d": spec.local_dim,
        "parties": spec.num_parties,
        "kind": spec.kind,
        "rank": spec.rank,
        "samples": spec.count,
        "seed": spec.base_seed,
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "passed": report.passed,
    }
    if args.timings:
        payload["timings"] = report.timings
    return payload, 0 if report.passed else 1


_PLAIN_NUMBERS = frozenset((int, float))


def _dumps(value, pad="\n"):
    """``json.dumps(value, indent=2)`` byte for byte, encoded by the stdlib's C encoder.

    The stdlib encodes with ``indent`` in pure Python; only a one-shot
    ``json.dumps`` without it reaches the C encoder. So each non-empty list
    of plain ints and floats is one C call whose ``", "`` separators become
    the indented line breaks (a number's repr never contains ``", "``), and
    every other item keeps the stdlib's own encoding. ``pad`` is the line
    break and indentation before ``value``'s closing bracket. Keys are strings.
    """
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _PLAIN_NUMBERS:
            body = json.dumps(value)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_dumps(item, inner) for item in value)
        return "[" + inner + body + pad + "]"
    if isinstance(value, dict) and value:
        body = ("," + inner).join(
            json.dumps(key) + ": " + _dumps(item, inner) for key, item in value.items()
        )
        return "{" + inner + body + pad + "}"
    return json.dumps(value)


def _inline(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    return str(value)


def _is_scalar_list(value):
    return isinstance(value, list) and all(
        not isinstance(item, (dict, list)) or _is_scalar_list(item) for item in value
    )


def _render_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        pairs = [(f"{key}:", value) for key, value in obj.items()]
    else:
        pairs = [("-", item) for item in obj]
    lines = []
    for label, value in pairs:
        if isinstance(value, dict) or (isinstance(value, list) and not _is_scalar_list(value)):
            lines.append(f"{pad}{label}")
            lines.extend(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {_inline(value)}")
    return lines


def _to_devnull(stream):
    """Point ``stream``'s descriptor at ``os.devnull``, so the flush at exit writes there."""
    # a stream without a descriptor (an in-memory one) is left as it is
    with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def main(argv=None) -> int:
    """Run one command; the cyclic collector is paused for its length and then put back as found.

    A state file decodes into tens of thousands of lists, which the collector
    would walk again and again, and a command leaves no cyclic garbage behind.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        report, code = args.handler(args)
        text = _dumps(report) if args.format == "json" else "\n".join(_render_text(report))
        print(text, flush=True)
    except Exception as exc:
        if isinstance(exc, BrokenPipeError):
            _to_devnull(sys.stdout)
        try:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr, flush=True)
        except OSError:  # stderr's reader is gone too: the line is dropped
            _to_devnull(sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
