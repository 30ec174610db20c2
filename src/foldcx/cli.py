"""Command-line front end.

Complexes travel as the JSON documents of jsonio; verification reports
print as text or JSON.  Exit codes: 0 success / verified, 1 failed check
or verification, 2 malformed input, exhausted budget or internal error
(a failed consistency check or the recursion limit).  The environment
variable FOLDCX_BUDGET overrides the default search budgets: enumeration
nodes and the coset cap.  Collapse needs no budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .canonical import isomorphic
from .complexes import (
    ComplexError,
    Morphism,
    average_curvature,
    collapse_free_face,
    euler_characteristic,
    free_faces,
    immersion_witness,
    presentation_complex,
    validate,
)
from .enumeration import MAX_NODES, BudgetExceeded, EnumerationFilter, enumerate_immersions
from .families import (
    TYPE_LONG,
    TYPE_SHORT,
    build_family,
    classify,
    parse_family_spec,
)
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


def _env_budget(default: int) -> int:
    raw = os.environ.get("FOLDCX_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FOLDCX_BUDGET must be an integer, got {raw!r}") from None


def _read(path: str) -> Morphism:
    with open(path) as handle:
        morphism = morphism_from_json(handle.read())
    problems = validate(morphism)
    if problems:
        raise ComplexError("; ".join(problems))
    return morphism


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _emit_report(report, args) -> int:
    if args.json:
        _write(report.to_json(include_timing=True), args.output)
    else:
        _write(report.to_text(), args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldcx",
        description="combinatorial 2-complexes immersed over a presentation "
        "complex: builders, folding moves, certificates, verification",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed recorded in reports (all commands are deterministic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        return p

    p = add("build", "build the presentation complex of 'gens|rel,rel,...'")
    p.add_argument("presentation")

    p = add("family", "build a family complex: D:3, C:5, Dt:3, Ct:5")
    p.add_argument("spec")

    for name, help_text in (
        ("chi", "Euler characteristic of a complex"),
        ("kappa", "average curvature chi/faces as an exact rational"),
        ("check-immersion", "verify local injectivity; exit 1 with a witness if not"),
        ("free-faces", "list edges that occur exactly once over all boundaries"),
        ("classify", "family tag of a complex, or 'other'"),
        ("homology", "Betti numbers and H1 torsion"),
        ("certify", "contractibility certificate"),
        ("export-dot", "DOT digraph of the 1-skeleton"),
        ("fold", "fold to an immersion"),
    ):
        p = add(name, help_text)
        p.add_argument("file")
        if name == "fold":
            p.add_argument("--trace", default=None, help="write JSON-lines merge trace here")
        if name == "certify":
            p.add_argument("--max-cosets", type=int, default=None)

    p = add("collapse", "collapse one free face")
    p.add_argument("file")
    p.add_argument("--edge", required=True)

    p = add("couple", "glue one cell along an edge at a relator position, then fold")
    p.add_argument("file")
    p.add_argument("--type", type=int, required=True, dest="face_type")
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--edge", required=True)

    p = add("identify-vertices", "identify two vertices, then fold")
    p.add_argument("file")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("identify-edges", "identify two same-labeled edges, then fold")
    p.add_argument("file")
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)

    p = add("iso", "explicit isomorphism between two complexes, or 'none'")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("enumerate", "enumerate immersion classes")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--types", choices=sorted(TYPE_CHOICES), default="both")
    p.add_argument("--allow-free-faces", action="store_true")
    p.add_argument("--allow-disconnected", action="store_true")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = add("verify-lemma", "run one structure checker")
    p.add_argument("which", choices=sorted(LEMMA_CHECKERS))
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("verify-theorem", "enumerate and certify at desk scale")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--json", action="store_true")

    return parser


def _run(args) -> int:
    # a budget flag left unset takes FOLDCX_BUDGET, else the library default
    for name, default in (("max_nodes", MAX_NODES), ("max_cosets", MAX_COSETS)):
        if getattr(args, name, 0) is None:
            setattr(args, name, _env_budget(default))
    if args.command == "build":
        pres = parse_presentation(args.presentation)
        _write(morphism_to_json(presentation_complex(pres)), args.output)
        return 0
    if args.command == "family":
        _write(morphism_to_json(build_family(parse_family_spec(args.spec))), args.output)
        return 0

    if args.command == "enumerate":
        filt = EnumerationFilter(
            max_vertices=args.max_vertices,
            require_connected=not args.allow_disconnected,
            require_no_free_faces=not args.allow_free_faces,
            required_types=TYPE_CHOICES[args.types],
        )
        classes = enumerate_immersions(filt, args.max_nodes)
        doc = [
            {
                "classification": str(classify(m) or "other"),
                "chi": euler_characteristic(m.complex),
                "vertices": len(m.complex.vertices),
                "edges": len(m.complex.edges),
                "faces": len(m.complex.faces),
            }
            for m in classes
        ]
        if args.json:
            _write(json.dumps(doc, indent=2) + "\n", args.output)
        else:
            lines = [f"{len(doc)} classes"]
            for k, row in enumerate(doc):
                lines.append(
                    f"  class {k}: {row['classification']} chi={row['chi']} "
                    f"V={row['vertices']} E={row['edges']} F={row['faces']}"
                )
            _write("\n".join(lines) + "\n", args.output)
        return 0

    if args.command == "verify-lemma":
        report = LEMMA_CHECKERS[args.which](args.max_i)
        report.parameters["seed"] = args.seed
        report.parameters["version"] = __version__
        return _emit_report(report, args)

    if args.command == "verify-theorem":
        report = verify_main_theorem(args.max_vertices, args.max_cosets, args.max_nodes)
        report.parameters["seed"] = args.seed
        report.parameters["version"] = __version__
        return _emit_report(report, args)

    if args.command == "iso":
        mapping = isomorphic(_read(args.file1), _read(args.file2))
        if mapping is None:
            _write("none\n", args.output)
        else:
            _write(json.dumps(mapping, indent=2, sort_keys=True) + "\n", args.output)
        return 0

    morphism = _read(args.file)

    if args.command == "chi":
        _write(f"{euler_characteristic(morphism.complex)}\n", args.output)
        return 0
    if args.command == "kappa":
        _write(f"{average_curvature(morphism.complex)}\n", args.output)
        return 0
    if args.command == "check-immersion":
        witness = immersion_witness(morphism)
        if witness is None:
            _write("immersion\n", args.output)
            return 0
        _write(f"not an immersion: {witness}\n", args.output)
        return 1
    if args.command == "free-faces":
        _write("".join(f"{e}\n" for e in sorted(free_faces(morphism.complex))), args.output)
        return 0
    if args.command == "collapse":
        collapsed = collapse_free_face(morphism.complex, args.edge)
        out = Morphism(
            collapsed,
            morphism.presentation,
            {e.id: morphism.edge_labels[e.id] for e in collapsed.edges},
            {f.id: morphism.face_types[f.id] for f in collapsed.faces},
        )
        _write(morphism_to_json(out), args.output)
        return 0
    if args.command == "fold":
        folded, trace = fold(morphism)
        if args.trace:
            with open(args.trace, "w") as handle:
                handle.write(trace.to_json_lines())
        _write(morphism_to_json(folded), args.output)
        return 0
    if args.command == "couple":
        _write(
            morphism_to_json(couple(morphism, args.face_type, args.pos, args.edge)),
            args.output,
        )
        return 0
    if args.command == "identify-vertices":
        _write(morphism_to_json(identify_vertices(morphism, args.u, args.v)), args.output)
        return 0
    if args.command == "identify-edges":
        _write(morphism_to_json(identify_edges(morphism, args.e1, args.e2)), args.output)
        return 0
    if args.command == "classify":
        tag = classify(morphism)
        _write((str(tag) if tag else "other") + "\n", args.output)
        return 0
    if args.command == "homology":
        _write(json.dumps(homology(morphism.complex).as_dict(), sort_keys=True) + "\n",
               args.output)
        return 0
    if args.command == "certify":
        _write(certify_contractible(morphism.complex, args.max_cosets).to_json(), args.output)
        return 0
    if args.command == "export-dot":
        _write(export_dot(morphism), args.output)
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a failed internal consistency check; RecursionError is one too
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # ComplexError, PresentationError and JSON decoding errors are all
        # ValueErrors; KeyError covers structurally incomplete documents
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
