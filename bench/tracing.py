"""Layer spans for foldcx, recorded from outside the library.

The library is not instrumented.  Instead, for the duration of a traced
pass, the names that a calling module looks up (``foldcx.verify._couple_state``,
``foldcx.families.canonical_form``, the ``TwoComplex.make`` class attribute,
...) are rebound to wrappers that record a span around each call, and the
original objects are put back afterwards.  A binding that a later version of
the library no longer has is skipped, and its layer reports zero calls.

Spans are kept in memory as (layer, parent span, start, end); the self time
of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time

# layer -> caller-side bindings "module:attribute" (or "module:Class.method").
# Each binding is where the caller looks the name up, so a call is recorded
# once per caller even when the callee is re-exported elsewhere.
LAYERS: dict[str, tuple[str, ...]] = {
    "verify.closure": ("verify:closure_search",),
    "verify.lemma": (
        "verify:check_lemma_vertex_identification",
        "verify:check_lemma_edge_identification",
        "verify:check_lemma_coupling",
    ),
    "verify.theorem": ("verify:verify_main_theorem",),
    "folding.successor": ("verify:_identify_edges_state", "verify:_couple_state"),
    "folding.identify": (
        "verify:identify_vertices",
        "verify:identify_edges",
        "verify:couple",
    ),
    "folding.canonical_key": ("folding:_FoldState.canonical_key",),
    "folding.quotient": ("folding:_FoldState.quotient",),
    "canonical.form": (
        "canonical:canonical_form",
        "verify:canonical_form",
        "families:canonical_form",
        "enumeration:canonical_form",
    ),
    "canonical.isomorphic": ("canonical:isomorphic", "verify:isomorphic"),
    "families.classify": ("families:classify", "verify:classify"),
    "families.build": (
        "families:build_family",
        "verify:build_C",
        "verify:build_D",
    ),
    "enumeration.enumerate": (
        "enumeration:enumerate_immersions",
        "verify:enumerate_immersions",
    ),
    "topology.certify": ("topology:certify_contractible", "verify:certify_contractible"),
    "topology.collapse": ("topology:collapsibility_search",),
    "topology.replay": ("topology:replay_collapse",),
    "homology.homology": ("topology:homology",),
    "homology.snf": ("homology:smith_normal_form",),
    "groups.pi1": ("topology:pi1_presentation",),
    "groups.coset": ("topology:coset_enumeration",),
    "complexes.make": ("complexes:TwoComplex.make",),
    "complexes.immersion_witness": (
        "verify:immersion_witness",
        "folding:immersion_witness",
        "canonical:immersion_witness",
        "families:immersion_witness",
    ),
    "complexes.free_faces": (
        "verify:free_faces",
        "topology:free_faces",
        "families:free_faces",
    ),
}

# Layers whose return value carries a count, and how to read it off.  A field
# that a later version of the library drops reads 0 rather than failing the call.
READERS = {
    "verify.closure": lambda r: (
        getattr(r, "explored", 0),
        getattr(r, "pruned", 0),
        len(getattr(r, "results", ())),
    ),
    "enumeration.enumerate": len,
    "topology.collapse": lambda r: r is not None,
}

NO_PARENT = -1


class Tracer:
    """Rebinds the LAYERS bindings of one set of foldcx modules while active.

    ``readings`` collects, per layer in READERS, what was read off each
    value the layer returned.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans: list = []
        self.readings: dict[str, list] = {layer: [] for layer in READERS}
        self._stack = [NO_PARENT]
        self._saved: list = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        read = READERS.get(layer)
        keep = self.readings.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, parent, start, end)
            if read is not None:
                keep.append(read(out))
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for layer, bindings in LAYERS.items():
            for binding in bindings:
                module_name, _, path = binding.partition(":")
                owner = getattr(self.modules, module_name)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name, None)
                if owner is None or attr not in vars(owner):
                    continue  # binding gone in this version of the library
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrap(layer, original.__func__))
                else:
                    replacement = self._wrap(layer, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer over the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent != NO_PARENT:
                child_time[parent] += end - start
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _, start, end), children in zip(self.spans, child_time):
            entry = totals[layer]
            entry[0] += 1
            entry[1] += end - start - children
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}
