"""Knot-theoretic ternary quasigroups, their homology, and link-diagram
invariants.

The names below are bound on first access (PEP 562), so importing the
package, or one submodule, loads no other submodule.  ``ktq.homology`` is
always the submodule; the homology function is ``ktq.homology.homology``.
"""

_EXPORTS = {
    "algebra": "OpTable TernaryQuasigroup affine_table check_a3 classify derive_divisions "
    "enumerate_ktqs hat parse_algebra serialize_algebra validate_quasigroup",
    "chains": "Chain all_tuples boundary face_l face_r i_relator is_d_degenerate "
    "relator_generators reverse_chain",
    "diagram": "Crossing Diagram associated_chain colorings is_valid_coloring "
    "parse_correspondence parse_diagram serialize_diagram",
    "errors": "FormatError KtqError MathError",
    "homology": "Cochain parse_cocycle serialize_cocycle two_cocycles",
    "intlinalg": "AbelianGroup kernel_mod",
    "invariants": "GroupRingElement invariant_report state_sum",
    "variants": "HomologyVariant NAMED_VARIANTS",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _SUBMODULES else _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    __import__(__name__ + "." + module)  # binds the submodule here
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | _SOURCE.keys())
