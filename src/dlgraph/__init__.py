"""Finite Diestel-Leader graph truncations: construction, layout, export, verification.

Each public name, and each submodule such as ``dlgraph.layout``, is loaded on
first access (PEP 562), so ``import dlgraph`` itself loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "export": ("ExportOptions", "export_json", "export_obj", "export_svg", "export_tikz", "render", "write_scene"),
    "graph": ("Census", "DLGraph", "DLParams"),
    "layout": ("DEFAULT_VIEW", "KIND_DL", "KIND_TREE_P", "KIND_TREE_Q", "Scene3D", "brown_position", "build_scene",
               "dl_position", "orange_position"),
    "tree": ("ROOT", "CapExceededError", "LayeredTree"),
    "verify": ("CheckResult", "VerificationReport", "check_counts", "check_degree_law", "check_lamplighter",
               "check_level_condition", "check_local_homogeneity", "check_scene_graph_agreement", "run_checks"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)  # later reads skip this hook
    return value
