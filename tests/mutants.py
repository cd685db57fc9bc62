"""Mutation gate: every rule listed below must have a test that fails once the rule is disarmed.

Each mutant is a file of the package, an exact old text, the new text that
disarms one rule, the rule in words, and the tests to run.  The old text must
occur exactly once in its file, so a refactor that moves the code fails this
script, and the list is updated with it.  The script copies ``src/`` and
``tests/`` into a temporary directory, runs every named test there once
unmutated (all must pass), then applies each mutant alone and runs its tests;
a mutant whose tests all pass has survived, and the script exits 1.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 7        # only mutants 3 and 7 (numbered as printed)

Stdlib only; the file name keeps pytest from collecting it.  The idea is
DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/dlgraph
    old: str
    new: str
    rule: str
    tests: tuple[str, ...]  # pytest node ids under tests/


V = "tests/test_verify.py::"
G = "tests/test_graph.py::"
S = "tests/test_layout.py::"
E = "tests/test_export.py::"

MUTANTS = (
    # check_degree_law
    Mutant("verify.py", "(p if h < L else 0)\n        except TypeError:",
           "(p if h < L else 0)\n        except ZeroDivisionError:",
           "degree_law fails a vertex whose height is not an int",
           (V + "test_vertices_with_heights_that_are_not_ints_fail_every_height_check",)),
    Mutant("verify.py", "if actual != expected:", "if False:",
           "degree_law fails a vertex of the wrong degree", (V + "test_degree_law_fails_on_removed_edge",)),
    # check_level_condition
    Mutant("verify.py", "            orange.validate((h, j))\n            brown.validate((L - h, k))\n", "            pass\n",
           "level_condition fails a vertex that is not a height-matched tree pair",
           (V + "test_level_condition_fails_on_mismatched_pair",)),
    # check_counts
    Mutant("verify.py", "if enum_v != expected_v:", "if False:",
           "counts fails a wrong vertex count", (V + "test_counts_fail_on_mutations",)),
    Mutant("verify.py", "if enum_e != expected_e:", "if False:",
           "counts fails a wrong edge count", (V + "test_counts_fail_on_mutations",)),
    Mutant("verify.py", "if degree_sum != 2 * enum_e:", "if False:",
           "counts fails a broken handshake", (V + "test_counts_fail_on_mutations",)),
    # check_local_homogeneity
    Mutant("verify.py", "interior.append(v)\n        except TypeError:",
           "interior.append(v)\n        except ZeroDivisionError:",
           "local_homogeneity fails a vertex whose height is not an int",
           (V + "test_vertices_with_heights_that_are_not_ints_fail_every_height_check",)),
    Mutant("verify.py", "if not interior:", "if False:",
           "local_homogeneity fails when no interior vertex is listed",
           (V + "test_local_homogeneity_fails_when_no_interior_vertex_is_listed",)),
    Mutant("verify.py", "if not _balls_isomorphic(reference_ball, _ball(neighbors, v, radius)):", "if False:",
           "local_homogeneity fails a ball that is not isomorphic to the reference",
           (V + "test_local_homogeneity_fails_on_removed_interior_edge",)),
    Mutant("verify.py", "            near_damage.add(v)\n", "            pass\n",
           "local_homogeneity certifies only centres far from a vertex whose neighbour list differs",
           (V + "test_local_homogeneity_fails_on_removed_interior_edge",)),
    Mutant("verify.py", "certified = compared == g.params.vertex_count and reference not in near_damage", "certified = True",
           "local_homogeneity certifies no centre when some vertex was never compared",
           (V + "test_local_homogeneity_searches_every_ball_when_a_vertex_is_never_listed",)),
    # check_lamplighter
    Mutant("verify.py", "if not type(h) is type(j) is type(k) is int:", "if False:",
           "lamplighter fails a vertex that is not a triple of ints",
           (V + "test_lamplighter_fails_on_a_non_integer_vertex",)),
    Mutant("verify.py", "if not 0 <= h <= L:", "if False:",
           "lamplighter fails a cursor outside [0, L]",
           (V + "test_lamplighter_fails_on_a_cursor_outside_the_slab",)),
    Mutant("verify.py", "if state in seen:", "if False:",
           "lamplighter fails two vertices on one state", (V + "test_lamp_encoding_matches_the_digits_read_through_powers",)),
    Mutant("verify.py", "if len(encoding) != expected_states:", "if False:",
           "lamplighter fails a wrong number of vertices", (V + "test_lamplighter_fails_on_mutations",)),
    Mutant("verify.py", "if top not in encoding or bottom not in encoding:", "if False:",
           "lamplighter fails an edge whose endpoint is not a vertex",
           (V + "test_lamplighter_fails_on_an_edge_to_a_missing_vertex",)),
    Mutant("verify.py", "if cur_bot != cur_top - 1 or", "if False and",
           "lamplighter fails an edge that maps outside the slab",
           (V + "test_lamplighter_fails_on_an_edge_outside_the_slab",)),
    Mutant("verify.py", "if len(edges) != L * b ** (L + 1):", "if False:",
           "lamplighter fails a missing slab edge", (V + "test_lamplighter_names_a_missing_slab_edge",)),
    # check_scene_graph_agreement
    Mutant("verify.py", "if not isinstance(scene, Scene3D):", "if False:",
           "the scene check refuses a scene that is not a Scene3D",
           (V + "test_scene_agreement_fails_on_tree_points_that_are_not_ints",)),
    Mutant("verify.py", "if kind == KIND_TREE_P and (a[1] != 0 or b[1] != 0):", "if False:",
           "the scene check fails a tree-p segment off the plane y=0", (V + "test_scene_agreement_checks_tree_planes",)),
    Mutant("verify.py", "if kind == KIND_TREE_Q and (a[0] != 0 or b[0] != 0):", "if False:",
           "the scene check fails a tree-q segment off the plane x=0", (V + "test_scene_agreement_checks_tree_planes",)),
    Mutant("verify.py", "        except ValueError as exc:\n            raise _Fail(f\"segment {i}: {exc}\")",
           "        except ZeroDivisionError as exc:\n            raise _Fail(f\"segment {i}: {exc}\")",
           "the scene check fails an endpoint off the doubled lattice",
           (V + "test_scene_agreement_names_the_coordinate_a_dl_point_misses",)),
    Mutant("verify.py", "(left := counts.get(edge)) is None", "(left := counts.get(edge, 0)) is None",
           "the scene check fails a segment between non-adjacent nodes",
           (V + "test_scene_agreement_fails_on_tree_segments_between_non_adjacent_nodes",)),
    Mutant("verify.py", "if left:", "if False:",
           "the scene check fails an edge drawn too often or too seldom",
           (V + "test_scene_agreement_fails_on_damaged_tree_segments",)),
    # run_checks
    Mutant("verify.py", "if not selected:", "if False:",
           "run_checks refuses an empty selection", (V + "test_run_checks_selection_and_unknown_names",)),
    # render, the one way to a writer
    Mutant("export.py", "if not isinstance(scene, Scene3D):", "if False:",
           "render refuses a scene that is not a Scene3D",
           (E + "test_render_and_write_scene_refuse_what_is_not_a_scene_and_options",)),
    Mutant("export.py", "if not isinstance(opts, ExportOptions):", "if False:",
           "render refuses options that are not ExportOptions",
           (E + "test_render_and_write_scene_refuse_what_is_not_a_scene_and_options",)),
    # Scene3D
    Mutant("layout.py", "if not isinstance(params, DLParams):", "if False:",
           "Scene3D refuses params that are not a DLParams", (S + "test_scene_params_must_be_dl_params",)),
    Mutant("layout.py", "except TypeError:  # a view that is not iterable", "except ZeroDivisionError:",
           "Scene3D refuses a view that is not iterable with its documented TypeError",
           (S + "test_scene_rejects_a_bad_view",)),
    Mutant("layout.py", "if not all(abs(a) <= sys.float_info.max for a in angles):", "if False:",
           "Scene3D refuses a view angle that is nan, infinite or too large for a float, for the CLI too",
           (S + "test_scene_rejects_a_bad_view", "tests/test_cli.py::test_non_finite_view_is_usage_error")),
    Mutant("layout.py", "if kind not in KINDS:", "if False:",
           "Scene3D refuses a segment of unknown kind", (S + "test_scene_rejects_a_segment_of_unknown_kind",)),
    Mutant("layout.py", "except (TypeError, ValueError):  # not iterable", "except ZeroDivisionError:  # not iterable",
           "Scene3D names a segment that does not unpack into a kind and two points",
           (S + "test_scene_refuses_a_segment_that_is_not_a_kind_and_two_points",)),
    Mutant("layout.py", "well_formed = (type(segment) is type(a) is type(b) is tuple\n                               and ",
           "well_formed = (", "Scene3D refuses a segment or an endpoint that is not a tuple",
           (S + "test_scene_refuses_an_endpoint_that_is_not_three_ints",)),
    Mutant("layout.py", "type(x) is type(y) is type(z) is type(u) is type(v) is type(w) is int", "True",
           "Scene3D refuses an endpoint coordinate that is not an int",
           (S + "test_scene_refuses_an_endpoint_that_is_not_three_ints",)),
    # DLGraph
    Mutant("graph.py", "if not isinstance(params, DLParams):", "if False:",
           "DLGraph refuses params that are not a DLParams", (G + "test_graph_params_must_be_dl_params",)),
    # DLGraph.validate
    Mutant("graph.py", "if not 0 <= h <= self.layers:", "if False:",
           "DLGraph.validate refuses a height outside [0, layers]", (G + "test_every_query_rejects_bad_vertices",)),
    Mutant("graph.py", "if not 0 <= j < self._orange_sizes[h]:", "if False:",
           "DLGraph.validate refuses an orange index outside its height", (G + "test_every_query_rejects_bad_vertices",)),
    Mutant("graph.py", "if not 0 <= k < self._brown_sizes[h]:", "if False:",
           "DLGraph.validate refuses a brown index outside its height", (G + "test_every_query_rejects_bad_vertices",)),
    # as_integer, the one home of the range rule for an integer input
    Mutant("tree.py", "if low is not None and value < low:", "if False:",
           "as_integer refuses a value below its low bound",
           (G + "test_range_messages_name_ints_too_long_for_str_by_bit_length", E + "test_export_options_validation")),
    Mutant("tree.py", "if high is not None and value > high:", "if False:",
           "as_integer refuses a value above its high bound",
           (G + "test_range_messages_name_ints_too_long_for_str_by_bit_length", E + "test_digits_are_bounded_by_max_digits")),
    # the message printer
    Mutant("tree.py", "except ValueError:  # an int with more digits than repr() prints", "except ZeroDivisionError:",
           "a message names a value too long for repr() instead of raising repr()'s ValueError",
           (G + "test_reprs_and_skip_reasons_name_ints_too_long_for_str_by_bit_length",
            V + "test_a_vertex_too_long_for_str_is_named_by_bit_length")),
)


def pytest(workdir: Path, tests) -> subprocess.CompletedProcess:
    """Run ``tests`` in ``workdir`` in a fresh interpreter that writes no bytecode, so an edited module is recompiled."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts the copy's src/ first
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(n) - 1] for n in argv] if argv else list(MUTANTS)
    sources = {name: (ROOT / "src" / "dlgraph" / name).read_text() for name in {m.file for m in chosen}}
    for mutant in chosen:
        found = sources[mutant.file].count(mutant.old)
        if found != 1:
            print(f"error: the old text of {mutant.rule!r} occurs {found} times in {mutant.file}, not once", file=sys.stderr)
            return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dlgraph-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        baseline = pytest(work, sorted({test for mutant in chosen for test in mutant.tests}))
        if baseline.returncode != 0:
            print("error: the named tests do not pass unmutated\n" + baseline.stdout[-3000:], file=sys.stderr)
            return 2
        survivors = broken = 0
        for mutant in chosen:
            number = MUTANTS.index(mutant) + 1
            path = work / "src" / "dlgraph" / mutant.file
            path.write_text(sources[mutant.file].replace(mutant.old, mutant.new))
            run = pytest(work, mutant.tests)
            path.write_text(sources[mutant.file])
            if run.returncode == 1:  # a test failed: the mutant is killed
                verdict = "killed"
            elif run.returncode == 0:
                verdict, survivors = "SURVIVED", survivors + 1
            else:  # collection error or interrupted: the mutant says nothing about the tests
                verdict, broken = f"BROKEN (pytest exit {run.returncode})", broken + 1
            print(f"{number:2} {verdict:8} {mutant.file}: {mutant.rule}", flush=True)
    print(f"{len(chosen)} mutants, {survivors} survived, {broken} broken, {time.perf_counter() - started:.1f}s")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
