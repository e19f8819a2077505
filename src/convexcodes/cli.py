"""Command-line frontend: analyze, code-of, verify, gen, link.

Exit-code contract: 0 for operational success (verdicts are report content,
never exit codes), 1 for operational errors such as parse failures, 2 for a
verification mismatch.  All output is deterministic for fixed inputs; ``analyze``
builds its report before it writes a byte, then streams it (``render_analysis``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .codes import (
    NeuralCode,
    Word,
    _max_intersection_check,
    simplicial_complex,
    word,
    word_key,
    word_label,
)
from .formats import (
    ParseError,
    _decimal,
    parse_arrangement,
    parse_code,
    serialize_arrangement,
    serialize_code,
)
from .generators import FAMILIES, corpus, family_entry
from .geometry import TopologyError, code_of_arrangement

if TYPE_CHECKING:
    from .topology import ContractibilityResult


class AnalysisReport(NamedTuple):
    """Everything cmd_analyze prints, recomputable from the code alone."""

    code: NeuralCode
    maximal: tuple[Word, ...]
    max_intersection_complete: bool
    incompleteness_witness: tuple[tuple[Word, ...], Word] | None
    mandatory_table: tuple[str, ...]  # the table's text, 256 rows a string
    locally_good: bool | None
    locally_good_checked: tuple[tuple[Word, ContractibilityResult], ...]
    betti: tuple[int, ...] | None


def build_analysis(code: NeuralCode, include_homology: bool = False) -> AnalysisReport:
    # topology is imported by its two users, so code-of, verify and gen never load it
    from .topology import LocalObstructionReport, _mandatory_rows, reduced_homology

    cpx = simplicial_complex(code)
    # the maximal codewords are the complex's facets, found once for both questions
    maximal = cpx.sorted_facets()
    mic = _max_intersection_check(maximal, code.words)
    witness = None
    if not mic.complete:
        witness = (mic.witness_sets, mic.witness_value)
    table, _, linked = _mandatory_rows(cpx, code.words)
    # the missing intersections are the faces not in the code that are
    # intersections of facets: the rows with no cone apex, which built a link
    lg = LocalObstructionReport(tuple((f, res) for f, res, in_code in linked if not in_code))
    betti = reduced_homology(cpx) if include_homology else None
    return AnalysisReport(
        code=code,
        maximal=tuple(maximal),
        max_intersection_complete=mic.complete,
        incompleteness_witness=witness,
        mandatory_table=tuple(table),
        locally_good=lg.verdict,
        locally_good_checked=lg.checked,
        betti=betti,
    )


def render_analysis(report: AnalysisReport, out: TextIO) -> None:
    """Write the report's header, the table's chunks as the walk wrote them, and its Betti line."""
    lines = [
        f"code: {report.code.n} neurons, {len(report.code.words)} codewords",
        "maximal codewords: " + " ".join(word_label(w) for w in report.maximal),
    ]
    if report.max_intersection_complete:
        lines.append("max-intersection complete: true")
    else:
        sets, value = report.incompleteness_witness
        inter = " & ".join(word_label(w) for w in sets)
        lines.append(
            f"max-intersection complete: false (witness: {inter} = {word_label(value)} not in code)"
        )
    verdict = {True: "true", False: "false", None: "unknown"}[report.locally_good]
    lines.append(f"locally good: {verdict}")
    if report.locally_good_checked:
        for f, res in report.locally_good_checked:
            lines.append(f"  checked face {word_label(f)}: {res.describe()}")
    else:
        lines.append("  checked faces: none (all intersections of maximal codewords present)")
    lines.append("mandatory codewords of the code complex:")
    out.write("\n".join(lines) + "\n")
    out.writelines(report.mandatory_table)
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
    from .topology import contractibility, link

    code = parse_code(_read(args.code_file))
    try:
        face = word(_decimal(t) for t in args.face.split())
    except ValueError as exc:
        raise ValueError(f"bad --face value: {exc}") from None
    cpx = simplicial_complex(code)
    if not cpx.has_face(face):
        raise ValueError(
            f"face {word_label(face)} is not in the code's simplicial complex"
        )
    lk = link(cpx, face)
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
    except (ParseError, TopologyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
