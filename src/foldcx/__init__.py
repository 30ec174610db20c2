"""foldcx: folding, coupling and contractibility certificates for
combinatorial 2-complexes immersed over a presentation complex."""

from .canonical import canonical_form, isomorphic
from .complexes import (
    ComplexError,
    Edge,
    Face,
    ImmersionWitness,
    Morphism,
    TwoComplex,
    average_curvature,
    collapse_free_face,
    euler_characteristic,
    free_faces,
    immersion_witness,
    is_immersion,
    presentation_complex,
    validate,
)
from .enumeration import BudgetExceeded, EnumerationFilter, enumerate_immersions
from .families import (
    FamilyTag,
    build_C,
    build_D,
    build_family,
    classify,
    kp,
    odd_part,
    parse_family_spec,
    target_presentation,
)
from .folding import FoldTrace, couple, fold, identify_edges, identify_vertices, replay_trace
from .homology import HomologyProfile, homology, smith_normal_form
from .groups import coset_enumeration, pi1_presentation
from .jsonio import export_dot, morphism_from_json, morphism_to_json
from .presentations import Presentation, PresentationError, parse_presentation
from .topology import (
    Certificate,
    certify_contractible,
    collapsibility_search,
    replay_collapse,
)
from .verify import (
    VerificationReport,
    check_lemma_coupling,
    check_lemma_edge_identification,
    check_lemma_vertex_identification,
    closure_search,
    verify_main_theorem,
)

__version__ = "0.1.0"
