"""Finite Diestel-Leader graph truncations: construction, layout, export, verification."""

from .export import ExportOptions, export_json, export_obj, export_svg, export_tikz, format_number, render, write_scene
from .graph import Census, DLGraph, DLParams
from .layout import (
    DEFAULT_VIEW,
    KIND_DL,
    KIND_TREE_P,
    KIND_TREE_Q,
    Scene3D,
    brown_position,
    build_scene,
    dl_position,
    invert_doubled_position,
    orange_position,
)
from .tree import ROOT, CapExceededError, LayeredTree
from .verify import (
    CheckResult,
    VerificationReport,
    check_counts,
    check_degree_law,
    check_lamplighter,
    check_level_condition,
    check_local_homogeneity,
    check_scene_graph_agreement,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "Census",
    "CapExceededError",
    "CheckResult",
    "DEFAULT_VIEW",
    "DLGraph",
    "DLParams",
    "ExportOptions",
    "KIND_DL",
    "KIND_TREE_P",
    "KIND_TREE_Q",
    "LayeredTree",
    "ROOT",
    "Scene3D",
    "VerificationReport",
    "brown_position",
    "build_scene",
    "check_counts",
    "check_degree_law",
    "check_lamplighter",
    "check_level_condition",
    "check_local_homogeneity",
    "check_scene_graph_agreement",
    "dl_position",
    "export_json",
    "export_obj",
    "export_svg",
    "export_tikz",
    "format_number",
    "invert_doubled_position",
    "orange_position",
    "render",
    "run_checks",
    "write_scene",
]
