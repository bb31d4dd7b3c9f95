"""Command-line front end: run identity checks, compute single quantities.

Two subcommands:

    mahlerlab verify [ids...] [--all] [--filter kinds] ...
    mahlerlab compute <quantity tokens> [--digits N] ...

Configuration layering, tightest first: command-line flags, then a flat
key=value file ./mahlerlab.cfg in the working directory, then defaults.
The file is read once; an unknown, repeated or malformed key exits 2.
--digits belongs to compute, --all and --filter to verify.

Report formats: text is for people (real wall times, values to at most 40
digits); json and csv are for machines and are byte-identical across
reruns with the same configuration, which requires the one lossy choice of
reporting wall_ms as 0 there (wall time is the only non-deterministic
field a check produces).  The json document carries schema version "v1".

Exit codes: 0 all requested work succeeded (verify: every check passed),
1 at least one check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from mpmath import mp

from . import mahler, modular, registry, special
from .modular import NEWFORM_F, NEWFORM_H
from .precision import ResourceLimitError
from .registry import UnknownCheckError

__all__ = ["RunConfig", "main", "cmd_verify", "cmd_compute", "JSON_SCHEMA"]

_FORMATS = ("text", "json", "csv")
_CONFIG_FILENAME = "mahlerlab.cfg"
_MACHINE_DIGITS = 40

JSON_SCHEMA = {
    "type": "object",
    "required": ["version", "results", "summary"],
    "properties": {
        "version": {"const": "v1"},
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed"],
            "properties": {
                "total": {"type": "integer"},
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
                "exact": {"type": "integer"},
                "high-precision": {"type": "integer"},
                "statistical": {"type": "integer"},
            },
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "id",
                    "lhs",
                    "rhs",
                    "deviation",
                    "tolerance",
                    "pass",
                    "wall_ms",
                    "evals",
                    "seed",
                ],
                "properties": {
                    "id": {"type": "string"},
                    "kind": {"type": "string"},
                    "lhs": {"type": ["string", "null"]},
                    "rhs": {"type": ["string", "null"]},
                    "deviation": {"type": ["string", "null"]},
                    "tolerance": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "wall_ms": {"type": "integer"},
                    "evals": {"type": "integer"},
                    "seed": {"type": "integer"},
                    "note": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
}


class UsageError(Exception):
    """Bad flags, bad config, unknown names: anything that exits 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved execution configuration shared by both subcommands."""

    precision: int = registry.DEFAULT_PRECISION
    seed: int = registry.DEFAULT_SEED
    qmc_samples: int = registry.DEFAULT_SAMPLES
    filter: Tuple[str, ...] = ()
    output_format: str = "text"
    digits: int = 30

    def validate(self) -> "RunConfig":
        if not 0 <= self.seed < 1 << 64:
            raise UsageError(f"seed must be a 64-bit integer, got {self.seed}")
        try:
            registry.validate_run_args(self.precision, self.qmc_samples, self.filter)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if self.output_format not in _FORMATS:
            raise UsageError(
                f"unknown format {self.output_format!r}; valid: {', '.join(_FORMATS)}"
            )
        if not 1 <= self.digits <= 1000:
            raise UsageError(f"digits must lie in [1, 1000], got {self.digits}")
        return self


# ---------------------------------------------------------------------------
# Configuration layering


def _read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise UsageError(f"{path}:{lineno}: key {key!r} repeated")
            out[key] = value
    return out


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _parse_filter(text: str, what: str) -> Tuple[str, ...]:
    return tuple(tag.strip() for tag in text.split(",") if tag.strip())


# (config-file key, which is also the argparse dest of its flag; RunConfig
# field; parser(text, key) of a text value).  Flags that argparse already
# typed as int skip the parser.
_CONFIG_KEYS = (
    ("precision", "precision", _parse_int),
    ("seed", "seed", _parse_int),
    ("samples", "qmc_samples", _parse_int),
    ("filter", "filter", _parse_filter),
    ("format", "output_format", lambda text, what: text),
    ("digits", "digits", _parse_int),
)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags > ./mahlerlab.cfg > defaults."""
    file_map: Dict[str, str] = {}
    if os.path.isfile(_CONFIG_FILENAME):
        file_map = _read_config_file(_CONFIG_FILENAME)
    known = sorted(key for key, _, _ in _CONFIG_KEYS)
    unknown = set(file_map) - set(known)
    if unknown:
        raise UsageError(
            f"{_CONFIG_FILENAME}: unknown keys {sorted(unknown)}; valid: "
            f"{', '.join(known)}"
        )

    config = RunConfig()
    for layer in (file_map, vars(args)):
        for key, field, parse in _CONFIG_KEYS:
            value = layer.get(key)
            if value is not None:
                if isinstance(value, str):
                    value = parse(value, key)
                config = replace(config, **{field: value})
    return config.validate()


# ---------------------------------------------------------------------------
# Value formatting


def _render(value, digits: int, width: int) -> Optional[str]:
    """value to digits significant digits, or exactly when it is rational
    and width allows: zero always, any other int whenever width > 0, p/q
    while it fits in width characters.  None stays None."""
    if value is None:
        return None
    if isinstance(value, (int, Fraction)):
        frac = Fraction(value)
        if not frac or (width and frac.denominator == 1):
            return str(frac.numerator)
        text = f"{frac.numerator}/{frac.denominator}"
        if len(text) <= width:
            return text
        with mp.workprec(4 * _MACHINE_DIGITS):
            value = mp.mpf(frac.numerator) / mp.mpf(frac.denominator)
    return mp.nstr(value, digits)


def _machine_value(value) -> Optional[str]:
    """Deterministic decimal rendering for json/csv fields."""
    return _render(value, _MACHINE_DIGITS, 64)


def _text_value(value, digits: int) -> str:
    return _render(value, digits, 32) or "-"


def _sci_value(value) -> str:
    return _render(value, 3, 0) or "-"


def _fixed_decimal(value, places: int) -> str:
    """value to a fixed number of decimal places, half-even, exact carry."""
    with mp.workprec(max(mp.prec, int(3.33 * places) + 64)):
        scaled = mp.nint(mp.mpf(value) * mp.mpf(10) ** places)
        units = int(scaled)
    sign = "-" if units < 0 else ""
    body = str(abs(units)).rjust(places + 1, "0")
    if places == 0:
        return sign + body
    return f"{sign}{body[:-places]}.{body[-places:]}"


# ---------------------------------------------------------------------------
# verify


def _result_record(result: registry.CheckResult) -> Dict[str, object]:
    return {
        "id": result.id,
        "kind": result.kind,
        "lhs": _machine_value(result.lhs),
        "rhs": _machine_value(result.rhs),
        "deviation": _machine_value(result.deviation),
        "tolerance": _machine_value(result.tolerance),
        "pass": result.passed,
        "wall_ms": 0,
        "evals": result.evaluations,
        "seed": result.seed_used,
        "note": result.note,
    }


def _emit_text(results: Sequence[registry.CheckResult], config: RunConfig, out) -> None:
    digits = min(int(0.3010 * config.precision) + 1, 40)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"{status} {r.id} [{r.kind}] "
            f"lhs={_text_value(r.lhs, digits)} rhs={_text_value(r.rhs, digits)} "
            f"deviation={_sci_value(r.deviation)} tolerance={_sci_value(r.tolerance)} "
            f"({r.wall_ms} ms, {r.evaluations} evals)"
        )
        if r.note:
            line += f" note: {r.note}"
        print(line, file=out)
    counts = registry.summarize(results)
    print(
        f"{counts['total']} checks: {counts['passed']} passed, "
        f"{counts['failed']} failed "
        f"(exact {counts['exact']}, high-precision {counts['high-precision']}, "
        f"statistical {counts['statistical']})",
        file=out,
    )


def _emit_json(results: Sequence[registry.CheckResult], out) -> None:
    doc = {
        "version": "v1",
        "results": [_result_record(r) for r in results],
        "summary": registry.summarize(results),
    }
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


def _emit_csv(results: Sequence[registry.CheckResult], out) -> None:
    # the columns are the json record's properties, in schema order
    fields = list(JSON_SCHEMA["properties"]["results"]["items"]["properties"])
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in results:
        record = _result_record(r)
        record["pass"] = "true" if record["pass"] else "false"
        writer.writerow(record)
    out.write(buffer.getvalue())


def cmd_verify(args: argparse.Namespace, out=None) -> int:
    out = sys.stdout if out is None else out
    config = resolve_config(args)
    if not args.ids and not args.all:
        raise UsageError("verify needs check ids or --all (see --help)")
    if args.ids:
        try:
            for check_id in args.ids:
                registry.get_check(check_id)
        except UnknownCheckError as exc:
            raise UsageError(str(exc)) from None
        results = [
            registry.run_check(
                check_id,
                config.precision,
                seed=config.seed,
                samples=config.qmc_samples,
            )
            for check_id in args.ids
        ]
    else:
        tags = config.filter or None
        results = registry.run_all(
            tags,
            config.precision,
            seed=config.seed,
            samples=config.qmc_samples,
        )
    if config.output_format == "json":
        _emit_json(results, out)
    elif config.output_format == "csv":
        _emit_csv(results, out)
    else:
        _emit_text(results, config, out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# compute


def _quantity_l(tokens: Sequence[str], work: int, config: RunConfig):
    forms = {"f": NEWFORM_F, "h": NEWFORM_H}
    if tokens[0] not in forms:
        raise UsageError(f"unknown form {tokens[0]!r}; valid: f, h")
    s = _parse_int(tokens[1], "s")
    spec = forms[tokens[0]]
    if not 2 <= s <= spec.weight:
        raise UsageError(f"s must lie in [2, {spec.weight}] for {tokens[0]}")
    value = modular.l_value(spec, s, precision=work)
    return value, f"mellin-split L({tokens[0]},{s})", mp.mpf(2) ** (8 - work)


def _quantity_zeta(tokens: Sequence[str], work: int, config: RunConfig):
    s = _parse_int(tokens[0], "s")
    if s < 2:
        raise UsageError(f"zeta needs integer s >= 2, got {s}")
    return special.zeta_int(s, work), "borwein", mp.mpf(2) ** (8 - work)


def _quantity_catalan(tokens: Sequence[str], work: int, config: RunConfig):
    return special.catalan(work), "bradley-3f2", mp.mpf(2) ** (8 - work)


def _quantity_k(tokens: Sequence[str], work: int, config: RunConfig):
    with mp.workprec(work):
        try:
            k = mp.mpf(tokens[0])
        except (ValueError, TypeError):
            raise UsageError(f"modulus must be a number, got {tokens[0]!r}") from None
        if not 0 <= k < 1:
            raise UsageError(f"modulus must lie in [0, 1), got {tokens[0]}")
        value = special.ell_k(k, precision=work)
    return value, "agm", mp.mpf(2) ** (8 - work)


def _parse_k_token(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        k = float(token)
    except ValueError:
        raise UsageError(f"k must be a number, got {token!r}") from None
    if not math.isfinite(k):
        raise UsageError(f"k must be a finite number, got {token!r}")
    return k


def _quantity_mrk(tokens: Sequence[str], work: int, config: RunConfig):
    k = _parse_k_token(tokens[0])
    with mp.workprec(work + 16):
        target = mp.mpf(10) ** (-(config.digits + 4))
        try:
            value = mahler.m_rk_hypergeometric(k, target_abs_error=target, precision=work)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return value, "hypergeometric-6f5", target


def _quantity_mahler(tokens: Sequence[str], work: int, config: RunConfig):
    name = tokens[0]
    try:
        if os.path.isfile(name):
            with open(name) as fh:
                descriptor = mahler.parse_descriptor(fh.read(), name=os.path.basename(name))
        else:
            descriptor = mahler.builtin_descriptor(name)
    except (ValueError, KeyError) as exc:
        raise UsageError(
            f"bad descriptor {name!r} ({exc}); built-ins: {', '.join(mahler.builtin_names())}"
        ) from None
    result = mahler.mahler_numeric(
        descriptor,
        samples=config.qmc_samples,
        seed=[config.seed, 0],
    )
    return mp.mpf(result.value), "lattice-qmc", mp.mpf(result.error_estimate)


def _quantity_ap(tokens: Sequence[str], work: int, config: RunConfig):
    n = _parse_int(tokens[0], "n")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    try:
        return modular.newform_coefficient(NEWFORM_F, n), "q-expansion", 0
    except ResourceLimitError as exc:
        raise UsageError(str(exc)) from None


# quantity -> (handler(tokens, work bits, config) returning (value, route,
# error estimate), usage with one word per token); the order is the one
# usage errors list.
_QUANTITIES = {
    "L": (_quantity_l, "<f|h> <s>"),
    "zeta": (_quantity_zeta, "<s>"),
    "catalan": (_quantity_catalan, ""),
    "K": (_quantity_k, "<k>"),
    "mahler": (_quantity_mahler, "<descriptor>"),
    "mRk": (_quantity_mrk, "<k>"),
    "ap": (_quantity_ap, "<n>"),
}


def cmd_compute(args: argparse.Namespace, out=None) -> int:
    out = sys.stdout if out is None else out
    config = resolve_config(args)
    digits = config.digits
    work = max(config.precision, int(3.33 * digits) + 48)
    tokens = list(args.quantity)
    head = tokens[0]
    if head not in _QUANTITIES:
        raise UsageError(f"unknown quantity {head!r}; valid: {', '.join(_QUANTITIES)}")
    handler, usage = _QUANTITIES[head]
    if len(tokens) - 1 != len(usage.split()):
        raise UsageError(f"usage: compute {head} {usage}".rstrip())
    value, route, err = handler(tokens[1:], work, config)

    if isinstance(value, int):
        rendered = str(value)
    else:
        with mp.workprec(work + 16):
            rendered = _fixed_decimal(value, digits)
    error_text = "0" if err == 0 else mp.nstr(mp.mpf(err), 3)
    if config.output_format == "json":
        doc = {
            "version": "v1",
            "quantity": " ".join(tokens),
            "value": rendered,
            "route": route,
            "error_estimate": error_text,
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        print(rendered, file=out)
        print(f"route: {route}", file=out)
        print(f"error-estimate: {error_text}", file=out)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--precision", type=int, default=None, metavar="BITS")
    shared.add_argument("--seed", default=None, metavar="INT")
    shared.add_argument("--samples", type=int, default=None, metavar="N")
    shared.add_argument("--format", default=None, choices=_FORMATS)

    parser = argparse.ArgumentParser(
        prog="mahlerlab",
        description="Verify Mahler-measure identities and compute the "
        "quantities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        parents=[shared],
        help="run identity checks by id or kind",
    )
    verify.add_argument("ids", nargs="*", metavar="CHECK-ID")
    verify.add_argument("--all", action="store_true", help="run every check")
    verify.add_argument("--filter", default=None, metavar="KINDS")

    compute = sub.add_parser(
        "compute",
        parents=[shared],
        help="evaluate one quantity (L f 4 | zeta 3 | catalan | K <k> | "
        "mahler <descriptor> | mRk <k> | ap <n>)",
    )
    compute.add_argument("quantity", nargs="+", metavar="TOKEN")
    compute.add_argument("--digits", type=int, default=None, metavar="N")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # no check calls BLAS, so the OpenBLAS thread pool that the first numpy
    # import would start only spins beside the main thread; numpy is
    # imported lazily, inside a command, and a value the caller set wins.
    # OpenBLAS reads the variable once, when it loads, so a value set here
    # is removed on return and the caller's process keeps its environment.
    set_here = "OPENBLAS_NUM_THREADS" not in os.environ
    if set_here:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _run(argv)
    finally:
        if set_here:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_compute(args)
    except UsageError as exc:
        print(f"mahlerlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
