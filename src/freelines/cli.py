"""Batch command-line interface with machine-readable JSON output.

Exit codes: 0 success, 1 domain failure (not free, no candidate exponents,
failed check), 2 usage errors, reported as a {"command", "error"} JSON object
on stderr. main is the one place that turns an error into an exit code: an
OSError or ValueError raised while a command runs (an unreadable or unwritable
path, a malformed file, a bad value) is a usage error, and anything else is a
fault of the program and propagates. Exact quantities are emitted as integer
or rational strings; only losses, scores and timings are floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import NoReturn

from .arrangement import (
    Arrangement,
    arrangement_hash,
    arrangement_to_json,
    candidate_exponents,
    characteristic_polynomial,
    intersection_summary,
    no_exponent_reason,
    read_arrangement,
    read_json,
    tjurina,
    write_json,
)
from .certify import (
    Certified,
    NotFreeAtExponents,
    certificate_to_json,
    check_certificate,
    read_certificate,
    verify_arrangement,
    verify_free,
    write_certificate,
)
from .saito import saito_functional
from .scores import RewardWeights
from .search import (
    Catalog,
    ExtensionConfig,
    beam_search_build,
    bootstrap_extend,
    candidate_pool,
    cascade,
    construct_certified,
    discovery_to_json,
    save_catalog,
)

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _emit(command: str, payload: dict, input_hash: str | None = None) -> None:
    print(json.dumps({"command": command, "input_hash": input_hash, "payload": payload}, indent=2))


def _report_usage(command: str, message: str) -> int:
    print(json.dumps({"command": command, "error": message}), file=sys.stderr)
    return USAGE_ERROR


def _usage_error(command: str, message: str) -> NoReturn:
    raise SystemExit(_report_usage(command, message))


def _parse_exponents(command: str, text: str) -> tuple[int, int]:
    """A "d1,d2" pair of positive integers; anything else is a usage error."""
    try:
        d1, d2 = (int(x) for x in text.split(","))
    except ValueError:
        _usage_error(command, f"expected d1,d2 as two integers, got {text!r}")
    if d1 < 1 or d2 < 1:
        _usage_error(command, f"exponents must be positive, got {text!r}")
    return d1, d2


def _exponents_for(arr: Arrangement, args) -> tuple[int, int] | None:
    text = getattr(args, "exponents", None)
    if text is None:
        auto = candidate_exponents(arr)
        return (auto.d1, auto.d2) if auto is not None else None
    d1, d2 = _parse_exponents(args.command, text)
    if d1 + d2 != arr.n - 1:
        _usage_error(args.command, f"exponents {d1},{d2} do not sum to n - 1 = {arr.n - 1}")
    return d1, d2


def cmd_invariants(args) -> int:
    arr = read_arrangement(args.file)
    s = intersection_summary(arr)
    chi = characteristic_polynomial(arr)
    exps = s.exponents
    payload = {
        "n": str(arr.n),
        "t": {str(m): str(cnt) for m, cnt in s.t.items()},
        "b2": str(s.b2),
        "pair_count_check": s.pair_count_check,
        "delta": str(s.discriminant),
        "exponents": [str(exps.d1), str(exps.d2)] if exps else None,
        "no_exponent_reason": s.no_exponent_reason,
        "tjurina": str(tjurina(arr)),
        "chi_cubic": [str(c) for c in chi.cubic],
        "chi_quadratic": [str(c) for c in chi.quadratic],
    }
    _emit("invariants", payload, arrangement_hash(arr))
    return 0


def cmd_saito(args) -> int:
    arr = read_arrangement(args.file)
    exps = _exponents_for(arr, args)
    if exps is None:
        _emit(
            "saito",
            {"error": "no-candidate-exponents", "reason": no_exponent_reason(arr)},
            arrangement_hash(arr),
        )
        return DOMAIN_ERROR
    ev = saito_functional(arr, exps[0], exps[1])
    payload = {
        "loss": ev.loss,
        "exponents": [str(ev.d1), str(ev.d2)],
        "k1": str(ev.k1),
        "k2": str(ev.k2),
        "elapsed_ms": ev.elapsed_ms,
        "reason": ev.reason,
    }
    _emit("saito", payload, arrangement_hash(arr))
    return 0


def cmd_verify(args) -> int:
    arr = read_arrangement(args.file)
    exps = _exponents_for(arr, args)
    if exps is None:
        _emit(
            "verify",
            {"verdict": "no-candidate-exponents", "reason": no_exponent_reason(arr)},
            arrangement_hash(arr),
        )
        return DOMAIN_ERROR
    # freeness has a multiset of exponents, so d2,d1 asks what d1,d2 does
    outcome = verify_free(arr, *sorted(exps))
    if isinstance(outcome, NotFreeAtExponents):
        _emit(
            "verify",
            {
                "verdict": "not-free-at-exponents",
                "exponents": [str(outcome.d1), str(outcome.d2)],
                "pairs_scanned": str(outcome.pairs_scanned),
            },
            arrangement_hash(arr),
        )
        return DOMAIN_ERROR
    cert = outcome.certificate
    cert_path = args.certificate_out or (args.file + ".cert.json")
    write_certificate(cert_path, cert)
    _emit(
        "verify",
        {
            "verdict": "certified",
            "exponents": [str(cert.d1), str(cert.d2)],
            "c": str(cert.c),
            "certificate_path": cert_path,
        },
        arrangement_hash(arr),
    )
    return 0


def cmd_check(args) -> int:
    arr = read_arrangement(args.file)
    ok, failing = check_certificate(arr, read_certificate(args.certificate))
    _emit(
        "check",
        {"verdict": "valid" if ok else "invalid", "first_failing_check": failing},
        arrangement_hash(arr),
    )
    return 0 if ok else DOMAIN_ERROR


def cmd_construct(args) -> int:
    disc = construct_certified(args.d1, args.d2)
    payload = {
        "arrangement": arrangement_to_json(disc.arrangement),
        "certificate": certificate_to_json(disc.certificate),
        "n": str(disc.arrangement.n),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = f"two_pencil_{args.d1}x{args.d2}"
        # one call: a pair that cannot be written leaves neither file
        write_json({
            os.path.join(args.out, base + ".json"): payload["arrangement"],
            os.path.join(args.out, base + ".cert.json"): payload["certificate"],
        })
        payload["written_to"] = args.out
    _emit("construct", payload, arrangement_hash(disc.arrangement))
    return 0


def _weights_from(args) -> RewardWeights:
    """The reward weights of the optional --config JSON object {"weights": {...}}."""
    if not args.config:
        return RewardWeights()

    def parse(data) -> RewardWeights:
        if not isinstance(data, dict):
            _usage_error("config", f"expected a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"weights"})
        if unknown:
            _usage_error("config", f"{args.command} does not read config key {unknown[0]!r}")
        weights = data.get("weights", {})
        if not isinstance(weights, dict):
            _usage_error("config", f"weights: expected a JSON object, got {type(weights).__name__}")
        unknown = sorted(set(weights) - {f.name for f in fields(RewardWeights)})
        if unknown:
            _usage_error("config", f"weights: there is no weight {unknown[0]!r}")
        return RewardWeights(**weights)

    return read_json(args.config, parse)


def cmd_extend(args) -> int:
    arr = read_arrangement(args.file)
    config = ExtensionConfig(pool_bound=args.pool_bound)
    if not 1 <= args.d1 <= args.d2 or args.d1 + args.d2 != arr.n:
        _usage_error("extend", f"need 1 <= d1 <= d2 with d1 + d2 = n = {arr.n}, got {args.d1},{args.d2}")
    seed_outcome = verify_arrangement(arr)
    if not isinstance(seed_outcome, Certified):
        _emit("extend", {"error": "seed-not-certified"}, arrangement_hash(arr))
        return DOMAIN_ERROR
    discoveries = bootstrap_extend(arr, seed_outcome.certificate, args.d1, args.d2, config)
    payload = {
        "seed_exponents": [str(seed_outcome.certificate.d1), str(seed_outcome.certificate.d2)],
        "discoveries": [discovery_to_json(d) for d in discoveries],
    }
    if args.out:
        catalog = Catalog()
        for d in discoveries:
            catalog.add(d)
        payload["index"] = save_catalog(catalog, args.out)
    _emit("extend", payload, arrangement_hash(arr))
    return 0


def cmd_search(args) -> int:
    entries = beam_search_build(
        args.n,
        args.d1,
        args.d2,
        weights=_weights_from(args),
        pool=candidate_pool(args.pool_bound),
        beam_width=args.beam,
    )
    payload = {
        "beam": [
            {
                "arrangement": arrangement_to_json(e.arrangement),
                "cumulative_reward": e.cumulative_reward,
                "sigma_alg": e.sigma_alg,
                "verdict": (
                    "certified"
                    if isinstance(e.outcome, Certified)
                    else "not-free-at-exponents"
                    if isinstance(e.outcome, NotFreeAtExponents)
                    else "no-candidate-exponents"
                ),
            }
            for e in entries
        ]
    }
    _emit("search", payload)
    return 0


def cmd_cascade(args) -> int:
    seeds = [read_arrangement(path) for path in args.seeds]
    targets = None
    if args.targets:
        targets = [_parse_exponents(args.command, pair) for pair in args.targets.split(";")]
    catalog = cascade(seeds, args.n_max, targets, ExtensionConfig(pool_bound=args.pool_bound))
    payload = {
        "levels": {
            f"{n},{d1},{d2}": str(len(ds))
            for (n, d1, d2), ds in sorted(catalog.entries.items())
        },
        "total": str(catalog.size),
    }
    if args.out:
        payload["index"] = save_catalog(catalog, args.out)
    _emit("cascade", payload)
    return 0


def cmd_survey(args) -> int:
    rows = []
    for path in args.files:
        arr = read_arrangement(path)
        exps = _exponents_for(arr, args)
        if exps is None:
            rows.append(
                {
                    "file": path,
                    "n": str(arr.n),
                    "loss": None,
                    "reason": no_exponent_reason(arr),
                }
            )
            continue
        ev = saito_functional(arr, exps[0], exps[1])
        rows.append(
            {
                "file": path,
                "n": str(arr.n),
                "exponents": [str(ev.d1), str(ev.d2)],
                "loss": ev.loss,
                "elapsed_ms": ev.elapsed_ms,
            }
        )
    _emit("survey", {"rows": rows})
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors as a usage error; subparsers inherit the class and name their command."""

    def error(self, message: str) -> NoReturn:
        _usage_error(self.prog.split()[-1], message)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            command = getattr(namespace, "command", None) or self.prog
            _usage_error(command, f"unrecognized arguments: {' '.join(extras)}")
        return namespace


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="lattice invariants of an arrangement file")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("saito", help="evaluate the freeness loss")
    p.add_argument("file")
    p.add_argument("--exponents", help="d1,d2 override")
    p.set_defaults(func=cmd_saito)

    p = sub.add_parser("verify", help="exact freeness certification")
    p.add_argument("file")
    p.add_argument("--exponents", help="d1,d2 override")
    p.add_argument("--certificate-out", help="path for the certificate file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="re-check a certificate against an arrangement")
    p.add_argument("file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="certified two-pencil arrangement")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("extend", help="bootstrap extension of a certified seed")
    p.add_argument("file")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("--pool-bound", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("search", help="deterministic beam-search construction")
    p.add_argument("n", type=int)
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--pool-bound", type=int, default=1)
    p.add_argument("--config", help="JSON config with the reward weights")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cascade", help="level-by-level bootstrap cascade")
    p.add_argument("seeds", nargs="*")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--targets", help="semicolon-separated d1,d2 pairs")
    p.add_argument("--pool-bound", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("survey", help="batch freeness-loss table over files")
    p.add_argument("files", nargs="+")
    p.add_argument("--exponents", help="d1,d2 override for every file")
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 0
    except (OSError, ValueError) as exc:
        return _report_usage(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
