"""Command-line surface: run constructions and searches, emit certificates.

Every command writes a self-contained JSON certificate (stdout by default,
``--output`` to a file) whose claims were checked by the code that computed
them; emitting runs no second verifier. ``mubforge check`` is the one
verifier: it re-derives a certificate from the file alone and exits 0
(verified), 1 (refuted, with a diff report) or 2 (malformed input, or a
file whose kind needs numpy when numpy cannot be imported). A command
that needs numpy without it exits 2 with one ``error:`` line.

Sources for the analysis commands are either paths to class-set or
unextendible-set certificates or one of the built-in names: paper-d4-weak,
paper-d4-strong, paper-d8-strong.

``find-unextendible`` takes exactly one of ``--choose`` and ``--all``, and
``scan`` exactly one of ``--budget`` and ``--all``. ``find-unextendible
--all`` writes one certificate per valid swap, in itertools.combinations
order (10, 126 and 1870 at n = 2, 3 and 4), into the ``--output``
directory, or as JSON Lines on stdout. The ``--seed`` of ``strong`` and
``scan`` drives a generator and must be non-negative (``check`` still
verifies a ``scan --all`` file that records a negative one); the seed of
``find-unextendible`` is only recorded and that of ``complete-set`` is
ignored, so both take any integer. A usage error exits 2 with argparse's
usage line; input the parser lets through but the command cannot use (a
``--choose`` list with an empty part, or that owns no class or several,
an output path that cannot be written, a ``--starts`` outside 1..2**32,
a ``--stop-below`` that is not finite) exits 2 with one ``error:`` line.

Only ``strong``, ``eur`` and ``scan --budget``, and ``check`` of their
files, import numpy; the other commands and their checks run on the
standard library alone. The same ``complete-set``, ``find-unextendible``,
``scan`` or ``ks`` command, with the same seed where it takes one, gives
the same hashed content on every machine. ``strong`` and ``eur`` write
floats that another BLAS kernel may round differently in the last bits,
so their hashes can differ between machines, while each file verifies on
every one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

from mubforge import certificates as cert
from mubforge.classes import ClassSet, canonical_complete_set, classes_from_json
from mubforge.named_sets import NAMED_CLASS_SETS, named_class_set
from mubforge.unextendible import extra_classes_within_union, owner_census

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_MALFORMED = 2

# what ``check`` reports as malformed input rather than a refuted claim; a
# file nested just under the JSON decoder's limit parses, then overflows the
# stack when it is hashed, and int() of a number that parsed as infinity
# (1e400) overflows
MALFORMED_ERRORS = (
    KeyError, TypeError, AttributeError, ValueError, OverflowError, RecursionError
)


def _write(args: argparse.Namespace, contents: Iterable[tuple]) -> int:
    """Certify, render and write each ``(path, (config, payload))``; return EXIT_OK.

    The text is the canonical JSON the hash is taken over, one line: sorted
    keys, no whitespace. Without a path it goes to stdout, one certificate
    per line, unless a table is asked for. ``contents`` may be lazy: one
    certificate is held in memory at a time.
    """
    for path, content in contents:
        certificate = cert.make_certificate(*content)
        text = cert.canonical_json(certificate)
        if path:
            Path(path).write_text(text + "\n", encoding="utf-8")
        if args.table:
            _print_table(certificate)
        elif not path:
            print(text)
    return EXIT_OK


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


def _read_json(path: Path, subject: str):
    """The JSON a file holds; ValueError says why ``subject`` cannot be read."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{subject} cannot be read ({exc.strerror})") from None
    # not UTF-8, not JSON, an over-long integer, or nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{subject} cannot be read as UTF-8 JSON ({exc})") from None


def _resolve_source(source: str) -> ClassSet:
    """A built-in set, or the classes of a class-set or unextendible-set file.

    Any file that cannot be read as such raises ValueError.
    """
    if source in NAMED_CLASS_SETS:
        return named_class_set(source)
    path = Path(source)
    if not path.exists():
        raise ValueError(
            f"source {source!r} is neither a built-in name nor an existing file"
        )
    data = _read_json(path, f"source {source!r}")
    payload = data.get("payload") if isinstance(data, dict) else None
    if not isinstance(payload, dict):
        raise ValueError(f"source {source!r} does not hold a payload object")
    kind = payload.get("kind")
    if kind == "class_set":
        field = "class_set"
    elif kind == "unextendible_set":
        field = "classes"
    else:
        raise ValueError(f"certificate payload kind {kind!r} does not carry classes")
    try:
        return classes_from_json(payload[field])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"source {source!r} has no readable classes ({type(exc).__name__}: {exc})"
        ) from None


def _cmd_complete_set(args: argparse.Namespace) -> int:
    content = cert.complete_set_content(canonical_complete_set(args.dim))
    return _write(args, [(args.output, content)])


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad index list {text!r}; expected e.g. 0,1,2") from None


def _cmd_find_unextendible(args: argparse.Namespace) -> int:
    complete = canonical_complete_set(args.dim)
    outdir = Path(args.output) if args.all and args.output else None
    if args.all:
        # every valid swap's choice, in itertools.combinations order
        choices = sorted(
            tuple(i for i in range(len(complete)) if c >> i & 1)
            for c in owner_census(complete).swaps
        )
    else:
        choices = [_parse_indices(args.choose)]
    paths = [args.output] * len(choices)
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
        paths = [
            outdir / f"unextendible-n{args.dim}-{'-'.join(map(str, c))}.json"
            for c in choices
        ]
    # lazy, so that --all at n = 4 holds one of its 1870 certificates at a time
    _write(args, (
        (path, cert.unextendible_content(complete, chosen, args.seed))
        for path, chosen in zip(paths, choices)
    ))
    if outdir:
        print(f"wrote {len(choices)} certificates to {outdir}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    worst = EXIT_OK
    for path in args.certificates:
        try:
            data = _read_json(Path(path), "file")
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            print(f"{path}: malformed ({exc})")
            worst = max(worst, EXIT_MALFORMED)
            continue
        try:
            problems = cert.verify_certificate(data)
        except MALFORMED_ERRORS as exc:
            reason = (str(exc).splitlines() or [""])[0]
            print(f"{path}: malformed ({type(exc).__name__}: {reason})")
            worst = max(worst, EXIT_MALFORMED)
            continue
        except ImportError as exc:  # the numeric kinds need numpy
            kind = data["payload"].get("kind")
            print(f"{path}: not checked ({_missing(exc)} is required for {kind} payloads)")
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


def _missing(exc: ImportError) -> str:
    return exc.name or "a module that cannot be imported"


def _cmd_strong(args: argparse.Namespace) -> int:
    cs = _resolve_source(args.source)
    # the parser leaves the default unset, so building it loads no numeric
    # code; strong_content reads a missing --starts as the default
    content = cert.strong_content(args.source, cs, args.starts, args.seed, args.stop_below)
    return _write(args, [(args.output, content)])


def _cmd_eur(args: argparse.Namespace) -> int:
    cs = _resolve_source(args.source)
    extras = extra_classes_within_union(cs)
    if not extras:
        raise ValueError("no extra class exists inside the source triple")
    # every report is computed before any file is written
    contents = [cert.eur_content(args.source, cs, extra) for extra in extras]
    base = Path(args.output) if args.output else None
    paths = [base] * len(contents)
    if base and len(contents) > 1:
        paths = [
            base.with_name(f"{base.stem}-{i}{base.suffix}") for i in range(len(contents))
        ]
    return _write(args, zip(paths, contents))


def _cmd_ks(args: argparse.Namespace) -> int:
    content = cert.ks_content(args.source, _resolve_source(args.source))
    return _write(args, [(args.output, content)])


def _cmd_scan(args: argparse.Namespace) -> int:
    content = cert.scan_content(args.dim, args.budget, args.seed)
    return _write(args, [(args.output, content)])


def _generator_seed(text: str) -> int:
    """A seed that drives a random generator: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubforge",
        description="Unextendible mutually unbiased bases from Pauli classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        dim_choices=None,
        seed="deterministic seed (a non-negative integer)",
        seed_type=_generator_seed,
    ) -> None:
        """Add the shared options; ``seed`` is the --seed help, None for none.

        A seed that drives a generator is refused below zero; a seed that is
        only a label (``seed_type=int``) takes any integer.
        """
        if dim_choices:
            p.add_argument(
                "--dim", "-n", type=int, required=True, choices=dim_choices,
                help="number of qubits (Hilbert dimension 2**n)",
            )
        if seed:
            p.add_argument("--seed", type=seed_type, default=0, help=seed)
        p.add_argument("--output", "-o", help="write the certificate here")
        p.add_argument(
            "--table", action="store_true", help="print a human-readable summary"
        )

    p = sub.add_parser("complete-set", help="emit a canonical complete class set")
    add_common(
        p, (2, 3, 4), "accepted and ignored: the canonical set takes no seed", int
    )
    p.set_defaults(func=_cmd_complete_set)

    p = sub.add_parser(
        "find-unextendible", help="build an unextendible set from chosen classes"
    )
    add_common(
        p, (2, 3, 4), "recorded in the certificate, unused by the construction", int
    )
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--choose", help="comma-separated class indices, e.g. 0,1,2")
    which.add_argument(
        "--all", action="store_true", help="enumerate every choice of indices"
    )
    p.set_defaults(func=_cmd_find_unextendible)

    p = sub.add_parser("check", help="re-verify certificates from file")
    p.add_argument("certificates", nargs="+", help="certificate JSON paths")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("strong", help="multistart search for an unbiased vector")
    p.add_argument("source", help="built-in name or class-set certificate path")
    add_common(p)
    p.add_argument("--starts", type=int, help="number of starts")
    p.add_argument(
        "--stop-below", type=float, default=None,
        help="skip the later batches of starts once a residual below this is found",
    )
    p.set_defaults(func=_cmd_strong)

    p = sub.add_parser("eur", help="collision-entropy saturation report")
    p.add_argument("source", help="built-in name or class-set certificate path")
    add_common(p, seed=None)
    p.set_defaults(func=_cmd_eur)

    p = sub.add_parser("ks", help="double-context partition and sign parity")
    p.add_argument("source", help="built-in name or class-set certificate path")
    add_common(p, seed=None)
    p.set_defaults(func=_cmd_ks)

    p = sub.add_parser("scan", help="four-qubit conjecture evidence scan")
    add_common(p, dim_choices=(4,))
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--budget", type=int, help="number of sampled subsets")
    which.add_argument("--all", action="store_true", help="scan every subset")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; every outcome, a usage error included, is an exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage line
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ImportError as exc:
        print(f"error: {_missing(exc)} is required for {args.command}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
