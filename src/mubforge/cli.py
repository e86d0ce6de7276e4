"""Command-line surface: run constructions and searches, emit certificates.

Every command writes a self-contained JSON certificate (stdout by default,
``--output`` to a file) whose claims were re-derived by the independent
checker before the ``verified`` flag was set. ``mubforge check`` re-verifies
a certificate from the file alone and exits 0 (verified), 1 (refuted, with a
diff report) or 2 (malformed input).

Sources for the analysis commands are either paths to class-set
certificates or one of the built-in names: paper-d4-weak, paper-d4-strong,
paper-d8-strong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from mubforge import certificates as cert
from mubforge.analysis import (
    SATURATION_TOL,
    eur_check,
    ks_alternate_partition,
    ks_sign_verify,
    strong_unext_search,
)
from mubforge.bases import eigenbasis
from mubforge.classes import ClassSet, canonical_complete_set, classes_from_json
from mubforge.named_sets import NAMED_CLASS_SETS, named_class_set
from mubforge.unextendible import (
    build_unextendible_set,
    conjecture_scan,
    extra_classes_within_union,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_MALFORMED = 2


def _emit(certificate: dict, output: Optional[str], table: bool) -> None:
    text = json.dumps(certificate, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    if table:
        _print_table(certificate)
    elif not output:
        print(text)


def _print_table(certificate: dict) -> None:
    payload = certificate["payload"]
    kind = payload["kind"]
    print(f"command   : {certificate['command']}")
    print(f"verified  : {certificate['verified']}")
    if kind == "class_set":
        cs = payload["class_set"]
        print(f"classes   : {len(cs['classes'])} (complete={cs['complete']})")
        for i, c in enumerate(cs["classes"]):
            print(f"  [{i}] {' '.join(c['elements'])}")
    elif kind == "unextendible_set":
        cs = payload["classes"]
        print(f"classes   : {len(cs['classes'])} (unextendible)")
        for i, c in enumerate(cs["classes"]):
            print(f"  [{i}] {' '.join(c['elements'])}")
        print(f"extra     : {' '.join(payload['extra_class']['elements'])}")
        print(f"leftover  : {' '.join(payload['extendibility']['universe_operators'])}")
    elif kind == "search_outcome":
        print(f"residual  : {payload['min_residual']:.6e}")
        print(f"starts    : {payload['starts']} (converged {payload['converged_starts']})")
        print(f"seed      : {payload['seed']}")
    elif kind == "eur_report":
        print(f"bound     : {payload['bound']}")
        for s in payload["states"]:
            entropies = " ".join(f"{h:.12f}" for h in s["per_basis"])
            print(f"  state {s['label']}: H2 = [{entropies}] avg {s['average']:.12f}")
    elif kind == "ks_report":
        print(f"contexts  : {len(payload['signs'])}")
        signs = " ".join("+1" if s > 0 else "-1" for s in payload["signs"])
        print(f"signs     : {signs}")
        print(f"parity odd: {payload['parity_odd']}")
    elif kind == "scan_report":
        print(f"scanned   : {payload['subsets_scanned']} (exhaustive={payload['exhaustive']})")
        print(f"within-union counts: {payload['within_union_distribution']}")
        print(f"spanning counts    : {payload['spanning_distribution']}")
        print(f"swap passes        : {payload['swap_passes']}")
    else:  # pragma: no cover
        print(json.dumps(payload, indent=2, sort_keys=True))


def _resolve_source(source: str) -> ClassSet:
    if source in NAMED_CLASS_SETS:
        return named_class_set(source)
    path = Path(source)
    if not path.exists():
        raise ValueError(
            f"source {source!r} is neither a built-in name nor an existing file"
        )
    data = json.loads(path.read_text(encoding="utf-8"))
    payload = data.get("payload", data)
    kind = payload.get("kind")
    if kind == "class_set":
        return classes_from_json(payload["class_set"])
    if kind == "unextendible_set":
        return classes_from_json(payload["classes"])
    raise ValueError(f"certificate payload kind {kind!r} does not carry classes")


def _cmd_complete_set(args: argparse.Namespace) -> int:
    cs = canonical_complete_set(args.dim)
    config = {"n": args.dim}
    payload = {
        "kind": "class_set",
        "class_set": cert.classes_to_json(cs),
        "expected_complete": True,
    }
    certificate = cert.make_certificate("complete-set", config, payload)
    _emit(certificate, args.output, args.table)
    return EXIT_OK


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"bad index list {text!r}; expected e.g. 0,1,2") from None


def _unextendible_certificate(n: int, chosen: tuple[int, ...], seed: int) -> dict:
    complete = canonical_complete_set(n)
    us = build_unextendible_set(complete, chosen)
    config = {"n": n, "chosen": list(chosen), "seed": seed}
    payload = cert.unextendible_set_to_json(us)
    return cert.make_certificate("find-unextendible", config, payload)


def _cmd_find_unextendible(args: argparse.Namespace) -> int:
    if args.dim not in (2, 3):
        raise ValueError("find-unextendible supports n in {2, 3}")
    size = (1 << (args.dim - 1)) + 1
    if args.all:
        from itertools import combinations

        outdir = Path(args.output) if args.output else None
        if outdir:
            outdir.mkdir(parents=True, exist_ok=True)
        count = 0
        for chosen in combinations(range((1 << args.dim) + 1), size):
            certificate = _unextendible_certificate(args.dim, chosen, args.seed)
            count += 1
            if outdir:
                name = f"unextendible-n{args.dim}-" + "-".join(map(str, chosen))
                (outdir / f"{name}.json").write_text(
                    json.dumps(certificate, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
            elif args.table:
                _print_table(certificate)
            else:
                print(json.dumps(certificate, indent=2, sort_keys=True))
        if outdir:
            print(f"wrote {count} certificates to {outdir}")
        return EXIT_OK
    if not args.choose:
        raise ValueError("give --choose indices or --all")
    chosen = _parse_indices(args.choose)
    certificate = _unextendible_certificate(args.dim, chosen, args.seed)
    _emit(certificate, args.output, args.table)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    worst = EXIT_OK
    for path in args.certificates:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: malformed ({exc})")
            worst = max(worst, EXIT_MALFORMED)
            continue
        if not isinstance(data, dict):
            print(f"{path}: malformed (not a JSON object)")
            worst = max(worst, EXIT_MALFORMED)
            continue
        try:
            problems = cert.verify_certificate(data)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            reason = (str(exc).splitlines() or [""])[0]
            print(f"{path}: malformed ({type(exc).__name__}: {reason})")
            worst = max(worst, EXIT_MALFORMED)
            continue
        if problems:
            print(f"{path}: REFUTED")
            for p in problems:
                print(f"  - {p}")
            worst = max(worst, EXIT_REFUTED)
        else:
            print(f"{path}: verified")
    return worst


def _cmd_strong(args: argparse.Namespace) -> int:
    cs = _resolve_source(args.source)
    bases = [eigenbasis(c) for c in cs]
    outcome = strong_unext_search(
        bases,
        starts=args.starts,
        seed=args.seed,
        stop_below=args.stop_below,
    )
    config = {
        "source": args.source,
        "starts": args.starts,
        "seed": args.seed,
        "stop_below": args.stop_below,
    }
    payload = cert.search_outcome_to_json(outcome, cs)
    certificate = cert.make_certificate("strong", config, payload)
    _emit(certificate, args.output, args.table)
    return EXIT_OK


def _cmd_eur(args: argparse.Namespace) -> int:
    cs = _resolve_source(args.source)
    report = extra_classes_within_union(cs)
    if not report.found:
        raise ValueError("no extra class exists inside the source triple")
    certificates = []
    for extra in report.found:
        eur = eur_check(cs, extra)
        config = {
            "source": args.source,
            "extra": " ".join(extra.letters()),
            "saturation_tol": SATURATION_TOL,
        }
        payload = cert.eur_report_to_json(eur)
        certificates.append(cert.make_certificate("eur", config, payload))
    if args.output and len(certificates) > 1:
        base = Path(args.output)
        for i, certificate in enumerate(certificates):
            path = base.with_name(f"{base.stem}-{i}{base.suffix}")
            path.write_text(
                json.dumps(certificate, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            if args.table:
                _print_table(certificate)
        return EXIT_OK
    for certificate in certificates:
        _emit(certificate, args.output, args.table)
    return EXIT_OK


def _cmd_ks(args: argparse.Namespace) -> int:
    cs = _resolve_source(args.source)
    ctx = ks_alternate_partition(cs)
    report = ks_sign_verify(ctx)
    config = {"source": args.source}
    payload = cert.ks_report_to_json(ctx, report)
    certificate = cert.make_certificate("ks", config, payload)
    _emit(certificate, args.output, args.table)
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    budget = None if args.all else args.budget
    if budget is None and not args.all:
        raise ValueError("give --budget N or --all")
    report = conjecture_scan(n=args.dim, budget=budget, seed=args.seed)
    config = {"n": args.dim, "budget": budget, "seed": args.seed}
    payload = cert.scan_report_to_json(report)
    certificate = cert.make_certificate("scan", config, payload)
    _emit(certificate, args.output, args.table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubforge",
        description="Unextendible mutually unbiased bases from Pauli classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, dim_choices=None) -> None:
        if dim_choices:
            p.add_argument(
                "--dim", "-n", type=int, required=True, choices=dim_choices,
                help="number of qubits (Hilbert dimension 2**n)",
            )
        p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument("--output", "-o", help="write the certificate here")
        p.add_argument(
            "--table", action="store_true", help="print a human-readable summary"
        )

    p = sub.add_parser("complete-set", help="emit a canonical complete class set")
    add_common(p, dim_choices=(2, 3, 4))
    p.set_defaults(func=_cmd_complete_set)

    p = sub.add_parser(
        "find-unextendible", help="build an unextendible set from chosen classes"
    )
    add_common(p, dim_choices=(2, 3))
    p.add_argument("--choose", help="comma-separated class indices, e.g. 0,1,2")
    p.add_argument(
        "--all", action="store_true", help="enumerate every choice of indices"
    )
    p.set_defaults(func=_cmd_find_unextendible)

    p = sub.add_parser("check", help="re-verify certificates from file")
    p.add_argument("certificates", nargs="+", help="certificate JSON paths")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("strong", help="multistart search for an unbiased vector")
    p.add_argument("source", help="built-in name or class-set certificate path")
    add_common(p)
    p.add_argument("--starts", type=int, default=1000, help="number of starts")
    p.add_argument(
        "--stop-below", type=float, default=None,
        help="stop early once a residual below this is found",
    )
    p.set_defaults(func=_cmd_strong)

    p = sub.add_parser("eur", help="collision-entropy saturation report")
    p.add_argument("source", help="built-in name or class-set certificate path")
    add_common(p)
    p.set_defaults(func=_cmd_eur)

    p = sub.add_parser("ks", help="double-context partition and sign parity")
    p.add_argument("source", help="built-in name or class-set certificate path")
    add_common(p)
    p.set_defaults(func=_cmd_ks)

    p = sub.add_parser("scan", help="four-qubit conjecture evidence scan")
    add_common(p, dim_choices=(4,))
    p.add_argument("--budget", type=int, help="number of sampled subsets")
    p.add_argument("--all", action="store_true", help="scan every subset")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
