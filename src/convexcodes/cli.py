"""Command-line frontend: analyze, code-of, verify, gen, link.

Exit-code contract: 0 for operational success (verdicts are report content,
never exit codes), 1 for operational errors such as parse failures, 2 for a
verification mismatch.  All output is deterministic for fixed inputs; ``analyze``
builds its report before it writes a byte, then writes its rows straight to the
output (``render_analysis``), a block's rows in joins of at most 256 rows.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .codes import (
    MaxIntersectionCheck,
    NeuralCode,
    Word,
    _max_intersection_check,
    simplicial_complex,
    word,
    word_key,
    word_label,
)
from .formats import (
    _decimal,
    parse_arrangement,
    parse_code,
    serialize_arrangement,
    serialize_code,
)
from .generators import FAMILIES, corpus, family_entry
from .geometry import code_of_arrangement

if TYPE_CHECKING:
    from .topology import Entry, LocalObstructionReport


class AnalysisReport(NamedTuple):
    """Everything cmd_analyze prints, recomputable from the code alone: the
    records of the max-intersection and locally-good tests as the pipeline
    makes them, and the mandatory-codeword table as the walk's entries, none
    of whose blocks holds a codeword, which render_analysis writes."""

    code: NeuralCode
    maximal: tuple[Word, ...]
    max_intersection: MaxIntersectionCheck
    mandatory_table: tuple[Entry, ...]
    local: LocalObstructionReport
    betti: tuple[int, ...] | None


def build_analysis(code: NeuralCode, include_homology: bool = False) -> AnalysisReport:
    # topology is imported by its two users, so code-of, verify and gen never load it
    from .topology import LocalObstructionReport, _mandatory_rows, reduced_homology

    cpx = simplicial_complex(code)
    # the maximal codewords are the complex's facets, found once for both questions
    maximal = cpx.sorted_facets()
    table = _mandatory_rows(cpx, code.words)
    # the missing intersections are the faces not in the code that are
    # intersections of facets: the rows with no cone apex, which built a link
    local = LocalObstructionReport(tuple(
        (f, res) for f, _, res, _, _ in table if res.cone_apex is None and f not in code.words
    ))
    return AnalysisReport(
        code=code,
        maximal=tuple(maximal),
        max_intersection=_max_intersection_check(maximal, code.words),
        mandatory_table=tuple(table),
        local=local,
        betti=reduced_homology(cpx) if include_homology else None,
    )


# a table row's word for a link status, keyed by value: this module loads topology lazily
_KIND = {"non-contractible": "mandatory", "contractible": "non-mandatory", "unknown": "undetermined"}


def render_analysis(report: AnalysisReport, out: TextIO) -> None:
    """Write the report's header, the mandatory-codeword table and its Betti line.

    The one writer of the table's rows: each is "  face {", its label and
    one of its status's two tails (in code: no or yes), rendered once per
    status.  Rows go straight to ``out``: an entry's row in one write, the
    rows of its block, which share a head and hold no codeword, as joins of
    their label suffixes in slices of at most 256 rows; so no more than a
    slice of text is held.
    """
    mic = report.max_intersection
    lines = [
        f"code: {report.code.n} neurons, {len(report.code.words)} codewords",
        "maximal codewords: " + " ".join(word_label(w) for w in report.maximal),
    ]
    if mic.complete:
        lines.append("max-intersection complete: true")
    else:
        inter = " & ".join(word_label(w) for w in mic.witness_sets)
        lines.append(
            f"max-intersection complete: false (witness: {inter} = "
            f"{word_label(mic.witness_value)} not in code)"
        )
    verdict = {True: "true", False: "false", None: "unknown"}[report.local.verdict]
    lines.append(f"locally good: {verdict}")
    if report.local.checked:
        for f, res in report.local.checked:
            lines.append(f"  checked face {word_label(f)}: {res.describe()}")
    else:
        lines.append("  checked faces: none (all intersections of maximal codewords present)")
    lines.append("mandatory codewords of the code complex:")
    out.write("\n".join(lines) + "\n")
    words = report.code.words
    tails: dict[int, tuple[str, str]] = {}  # by id of a status the report holds
    for h, label, res, suffixes, _ in report.mandatory_table:
        pair = tails.get(id(res))
        if pair is None:
            text = f"}}: {_KIND[res.status.value]} ({res.describe()}), in code: "
            pair = tails[id(res)] = (text + "no\n", text + "yes\n")
        out.write(f"  face {{{label}{pair[h in words]}")
        if suffixes:
            head = f"  face {{{label},"
            no = pair[0]
            for k in range(0, len(suffixes), 256):
                out.write(head + (no + head).join(suffixes[k:k + 256]) + no)
    if report.betti is not None:
        rendered = " ".join(str(b) for b in report.betti)
        out.write(f"reduced betti numbers of the code complex: {rendered}\n")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_analyze(args: argparse.Namespace) -> int:
    code = parse_code(_read(args.code_file))
    report = build_analysis(code, include_homology=args.homology)
    render_analysis(report, sys.stdout)
    return 0


def cmd_code_of(args: argparse.Namespace) -> int:
    arr = parse_arrangement(_read(args.arrangement_file))
    sys.stdout.write(serialize_code(code_of_arrangement(arr)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    arr = parse_arrangement(_read(args.arrangement_file))
    given = parse_code(_read(args.code_file))
    extracted = code_of_arrangement(arr)
    if extracted.n == given.n and extracted.words == given.words:
        sys.stdout.write("ok: arrangement realizes the code\n")
        return 0
    lines = ["mismatch: arrangement code differs from the given code"]
    if extracted.n != given.n:
        lines.append(f"  set count {extracted.n} != neuron count {given.n}")
    only_arr = sorted(extracted.words - given.words, key=word_key)
    only_given = sorted(given.words - extracted.words, key=word_key)
    if only_arr:
        lines.append("  only in arrangement code:")
        lines.extend(f"    {word_label(w)}" for w in only_arr)
    if only_given:
        lines.append("  only in given code:")
        lines.extend(f"    {word_label(w)}" for w in only_given)
    sys.stdout.write("\n".join(lines) + "\n")
    return 2


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def cmd_gen(args: argparse.Namespace) -> int:
    # every file is built before the --out directory is touched, so a bad
    # family, --n or --realization leaves nothing behind
    family = args.family
    if family in FAMILIES:
        if args.n is None:
            raise ValueError(f"family {family!r} needs --n")
        tags = () if args.realization is None else (args.realization,)
        entry = family_entry(family, args.n, tags)
    else:
        # one corpus() call: it builds every entry's code and realizations
        entry = next((e for e in corpus() if e.name == family), None)
        if entry is None:
            raise ValueError(f"unknown family {family!r}")
        if args.n is not None:
            raise ValueError(f"corpus entry {family!r} does not take --n")
        if args.realization is not None:
            raise ValueError(f"corpus entry {family!r} does not take --realization")
    files = [(f"{entry.name}.code", serialize_code(entry.code))]
    files += [
        (f"{real.stem}.arr", serialize_arrangement(real.arrangement))
        for real in entry.realizations
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        _write(out / name, text)
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    from .topology import FaceNotFoundError, contractibility, link

    code = parse_code(_read(args.code_file))
    try:
        face = word(_decimal(t) for t in args.face.split())
    except ValueError as exc:
        raise ValueError(f"bad --face value: {exc}") from None
    try:
        lk = link(simplicial_complex(code), face)
    except FaceNotFoundError:
        raise ValueError(
            f"face {word_label(face)} is not in the code's simplicial complex"
        ) from None
    res = contractibility(lk)
    facets = " ".join(word_label(f) for f in lk.sorted_facets())
    sys.stdout.write(f"face: {word_label(face)}\n")
    sys.stdout.write(f"link facets: {facets}\n")
    sys.stdout.write(f"link status: {res.describe()}\n")
    return 0


def _count(token: str) -> int:
    # argparse reports an ArgumentTypeError with its own message
    try:
        return _decimal(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# read once from the family table: gen's family help and its --realization tags
_FAMILY_HELP = " | ".join([*FAMILIES, "a corpus entry name"])
_REALIZATION_TAGS = sorted({tag for spec in FAMILIES.values() for tag in spec.realizations})


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # verification mismatches here, so route usage errors through ValueError
    def error(self, message: str):  # noqa: D102
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convexcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a code file")
    p.add_argument("code_file")
    p.add_argument("--homology", action="store_true", help="include reduced betti numbers")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("code-of", help="extract the code of an arrangement file")
    p.add_argument("arrangement_file")
    p.set_defaults(func=cmd_code_of)

    p = sub.add_parser("verify", help="check that an arrangement realizes a code")
    p.add_argument("arrangement_file")
    p.add_argument("code_file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write generated code/arrangement files")
    p.add_argument("family", help=_FAMILY_HELP)
    p.add_argument("--n", type=_count, default=None)
    p.add_argument("--realization", choices=_REALIZATION_TAGS, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("link", help="print the link of a face and its status")
    p.add_argument("code_file")
    p.add_argument("--face", required=True, help='face as space-separated indices, e.g. "1 3"')
    p.set_defaults(func=cmd_link)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # raised with no message, by an allocation too large to attempt
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
