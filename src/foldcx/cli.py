"""Command-line front end.

Each subcommand is declared once, in build_parser: its arguments, the
complex files it reads and its action.  An action takes the parsed
arguments and the loaded complexes and returns the text to write, paired
with the exit code when it checks something; main alone reads the files,
writes to stdout or -o and maps errors to exit codes.  Complexes travel
as the JSON documents of jsonio, which validates every document it loads;
verification reports print as text or JSON.  Exit codes: 0 success /
verified, 1 failed check or verification, 2 malformed input, exhausted
budget or internal error (a failed consistency check or the recursion
limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .canonical import isomorphic
from .complexes import (
    Morphism,
    average_curvature,
    collapse_free_face,
    euler_characteristic,
    free_faces,
    immersion_witness,
    presentation_complex,
)
from .enumeration import MAX_NODES, BudgetExceeded, EnumerationFilter, enumerate_immersions
from .families import TYPE_LONG, TYPE_SHORT, build_family, classify, parse_family_spec
from .folding import couple, fold, identify_edges, identify_vertices
from .groups import MAX_COSETS
from .homology import homology
from .jsonio import export_dot, morphism_from_json, morphism_to_json
from .presentations import parse_presentation
from .topology import certify_contractible
from .verify import (
    check_lemma_coupling,
    check_lemma_edge_identification,
    check_lemma_vertex_identification,
    verify_main_theorem,
)

LEMMA_CHECKERS = {
    "2.2": check_lemma_vertex_identification,
    "vertex-identification": check_lemma_vertex_identification,
    "2.4": check_lemma_edge_identification,
    "edge-identification": check_lemma_edge_identification,
    "2.5": check_lemma_coupling,
    "coupling": check_lemma_coupling,
}

TYPE_CHOICES = {
    "both": frozenset({TYPE_SHORT, TYPE_LONG}),
    "1": frozenset({TYPE_SHORT}),
    "2": frozenset({TYPE_LONG}),
    "none": frozenset(),
}


def _read(path: str) -> Morphism:
    with open(path) as handle:
        return morphism_from_json(handle.read())


def _build(args) -> str:
    return morphism_to_json(presentation_complex(parse_presentation(args.presentation)))


def _family(args) -> str:
    return morphism_to_json(build_family(parse_family_spec(args.spec)))


def _chi(args, f: Morphism) -> str:
    return f"{euler_characteristic(f.complex)}\n"


def _kappa(args, f: Morphism) -> str:
    return f"{average_curvature(f.complex)}\n"


def _check_immersion(args, f: Morphism) -> tuple[str, int]:
    witness = immersion_witness(f)
    if witness is None:
        return "immersion\n", 0
    return f"not an immersion: {witness}\n", 1


def _free_faces(args, f: Morphism) -> str:
    return "".join(f"{e}\n" for e in sorted(free_faces(f.complex)))


def _classify(args, f: Morphism) -> str:
    return f"{classify(f) or 'other'}\n"


def _homology(args, f: Morphism) -> str:
    return json.dumps(homology(f.complex).as_dict(), sort_keys=True) + "\n"


def _certify(args, f: Morphism) -> str:
    return certify_contractible(f.complex, args.max_cosets).to_json()


def _fold(args, f: Morphism) -> str:
    folded, trace = fold(f)
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(trace.to_json_lines())
    return morphism_to_json(folded)


def _collapse(args, f: Morphism) -> str:
    collapsed = collapse_free_face(f.complex, args.edge)
    # the labels of the removed edge and face stay behind unread: the JSON
    # lists only the labels of cells the complex has
    return morphism_to_json(replace(f, complex=collapsed))


def _couple(args, f: Morphism) -> str:
    return morphism_to_json(couple(f, args.face_type, args.pos, args.edge))


def _identify_vertices(args, f: Morphism) -> str:
    return morphism_to_json(identify_vertices(f, args.u, args.v))


def _identify_edges(args, f: Morphism) -> str:
    return morphism_to_json(identify_edges(f, args.e1, args.e2))


def _iso(args, f1: Morphism, f2: Morphism) -> str:
    mapping = isomorphic(f1, f2)
    if mapping is None:
        return "none\n"
    return json.dumps(mapping, indent=2, sort_keys=True) + "\n"


def _enumerate(args) -> str:
    filt = EnumerationFilter(
        max_vertices=args.max_vertices,
        require_connected=not args.allow_disconnected,
        require_no_free_faces=not args.allow_free_faces,
        required_types=TYPE_CHOICES[args.types],
    )
    doc = [
        {
            "classification": str(classify(m) or "other"),
            "chi": euler_characteristic(m.complex),
            "vertices": len(m.complex.vertices),
            "edges": len(m.complex.edges),
            "faces": len(m.complex.faces),
        }
        for m in enumerate_immersions(filt, args.max_nodes)
    ]
    if args.json:
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"{len(doc)} classes"] + [
        f"  class {k}: {row['classification']} chi={row['chi']} "
        f"V={row['vertices']} E={row['edges']} F={row['faces']}"
        for k, row in enumerate(doc)
    ]
    return "\n".join(lines) + "\n"


def _report(report, args) -> tuple[str, int]:
    report.parameters["version"] = __version__
    render = report.to_json if args.json else report.to_text
    text = render(include_timing=args.timing)
    return text, 0 if report.passed else 1


def _verify_lemma(args) -> tuple[str, int]:
    return _report(LEMMA_CHECKERS[args.which](args.max_i), args)


def _verify_theorem(args) -> tuple[str, int]:
    report = verify_main_theorem(args.max_vertices, args.max_cosets, args.max_nodes)
    return _report(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldcx",
        description="combinatorial 2-complexes immersed over a presentation "
        "complex: builders, folding moves, certificates, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, reads=("file",)):
        """Declare a subcommand whose action is run(args, *complexes): main
        loads one complex from each positional file argument named in reads
        and writes what run returns, the text or a (text, exit code) pair."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        for read in reads:
            p.add_argument(read)
        p.set_defaults(run=run, reads=reads)
        return p

    p = add("build", "build the presentation complex of 'gens|rel,rel,...'", _build, ())
    p.add_argument("presentation")
    p = add("family", "build a family complex: D:3, C:5, Dt:3, Ct:5", _family, ())
    p.add_argument("spec")
    add("chi", "Euler characteristic of a complex", _chi)
    add("kappa", "average curvature chi/faces as an exact rational", _kappa)
    add(
        "check-immersion",
        "verify local injectivity; exit 1 with a witness if not",
        _check_immersion,
    )
    add("free-faces", "list edges that occur exactly once over all boundaries", _free_faces)
    add("classify", "family tag of a complex, or 'other'", _classify)
    add("homology", "Betti numbers and H1 torsion", _homology)
    p = add("certify", "contractibility certificate", _certify)
    p.add_argument("--max-cosets", type=int, default=MAX_COSETS)
    add("export-dot", "DOT digraph of the 1-skeleton", lambda args, f: export_dot(f))
    p = add("fold", "fold to an immersion", _fold)
    p.add_argument("--trace", default=None, help="write JSON-lines merge trace here")

    p = add("collapse", "collapse one free face", _collapse)
    p.add_argument("--edge", required=True)

    p = add("couple", "glue one cell along an edge at a relator position, then fold", _couple)
    p.add_argument("--type", type=int, required=True, dest="face_type")
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--edge", required=True)

    p = add("identify-vertices", "identify two vertices, then fold", _identify_vertices)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("identify-edges", "identify two same-labeled edges, then fold", _identify_edges)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)

    add("iso", "explicit isomorphism of two complexes, or 'none'", _iso, ("file1", "file2"))

    p = add("enumerate", "enumerate immersion classes", _enumerate, ())
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument(
        "--types",
        choices=sorted(TYPE_CHOICES),
        default="both",
        help="the relator types each class uses, exactly: 1 means short-relator-only, "
        "2 long-relator-only, none no faces",
    )
    p.add_argument("--allow-free-faces", action="store_true")
    p.add_argument("--allow-disconnected", action="store_true")
    p.add_argument("--max-nodes", type=int, default=MAX_NODES)
    p.add_argument("--json", action="store_true")

    p = add("verify-lemma", "run one structure checker", _verify_lemma, ())
    p.add_argument("which", choices=sorted(LEMMA_CHECKERS))
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="add the wall-clock time")

    p = add("verify-theorem", "enumerate and certify at desk scale", _verify_theorem, ())
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=MAX_NODES)
    p.add_argument("--max-cosets", type=int, default=MAX_COSETS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="add the wall-clock time")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.run(args, *(_read(getattr(args, name)) for name in args.reads))
        text, code = (out, 0) if isinstance(out, str) else out
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
        return code
    except (BudgetExceeded, ValueError, OSError) as exc:
        # BudgetExceeded is a RuntimeError, so this clause must come first;
        # ComplexError (every malformed document), PresentationError and a
        # file that is not UTF-8 are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a failed internal consistency check; RecursionError is one too
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
