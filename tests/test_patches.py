"""Tests for the refined patch catalog, traversal, and extensions.

The extensions built from ``_LAYOUTS`` are checked against the hand-written
seam and clamped-side tables of ``extension_oracle``, and their exact norms
against its Monte-Carlo ratios, its dense 2D eigenproblem, the scipy
pencils of the 1D route and the loop over every cross mode. The witness
check is compared with the call-based one there.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from dihedral_oracle import transform_cell, transform_edge
from extension_oracle import (
    _POST_ZERO,
    _SEAMS,
    decay_by_columns,
    extension_interface_checks,
    extension_norm_2d,
    extension_norm_all_modes,
    extension_norm_scipy,
    extension_operator,
    h1_seminorm_squared,
    layout_valid_by_calls,
    measured_extension_ratio,
    random_admissible,
    side_trace,
)
from test_cli import CORRUPTED_CATALOG
from refsat import patches
from refsat.patches import (
    PRE_ZERO_SIDES,
    SITUATIONS,
    GridEdge,
    RefinedPatch,
    TraversalViolation,
    boundary_edges_of,
    canonical_numbering,
    cell_sides,
    extension_norm,
    interior_edge_traversal,
    interior_edges_of,
    local_dirichlet_edges,
    owner_square,
    patch_catalog,
    verify_traversal_lemma,
    _LAYOUTS,
    _decay_pencil,
    _members,
)
from refsat.bases import BoundaryCondition1D

EXPECTED_LENGTHS = {
    1: 22, 2: 20, 3: 17, 4: 12, 5: 4, 6: 14, 7: 13,
    8: 8, 9: 10, 10: 7, 11: 2, 12: 1, 13: 0,
}

EXPECTED_COUNTS = {
    1: {"b": 8, "c": 7, "d": 3, "e": 3},
    2: {"b": 7, "c": 6, "d": 3, "e": 3},
    3: {"b": 6, "c": 5, "d": 3, "e": 2},
    4: {"b": 4, "c": 3, "d": 2, "e": 2},
    5: {"b": 1, "d": 1, "e": 1},
    6: {"b": 5, "c": 5, "d": 2, "e": 2},
    7: {"b": 4, "c": 5, "d": 2, "e": 2},
    8: {"b": 2, "c": 3, "d": 2, "e": 1},
    9: {"b": 3, "c": 3, "d": 2, "e": 2},
    10: {"b": 2, "c": 3, "e": 2},
    11: {"d": 1, "e": 1},
    12: {"e": 1},
    13: {},
}


def canonical_counts(patch):
    """Situation histogram of the canonical-frame traversal."""
    n = patch.n_steps
    counts = {}
    for i in range(1, n + 1):
        info = local_dirichlet_edges(patch, i)
        if info.situation is not None:
            counts[info.situation] = counts.get(info.situation, 0) + 1
    return counts


def seminorm_oracle(coeffs):
    """Squared gradient seminorm by Gauss quadrature of the gradient."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    nodes, weights = np.polynomial.legendre.leggauss(max(c.shape) + 2)
    total = 0.0
    for axis in (0, 1):
        if c.shape[axis] < 2:
            continue
        d = npleg.legder(c, axis=axis)
        vals = npleg.leggrid2d(nodes, nodes, d)
        total += float(np.einsum("i,j,ij->", weights, weights, vals * vals))
    return total


def test_catalog_has_thirteen_documented_patches():
    cat = patch_catalog()
    assert sorted(cat) == list(range(1, 14))
    interior_ids = [i for i in cat if cat[i].vertex_kind == "interior"]
    assert interior_ids == [1, 2, 3, 4, 5]
    for patch in cat.values():
        assert 1 <= len(patch.cells) <= 16
        assert len(patch.interior_edges) <= 24


def test_cached_catalog_and_numbering_cannot_be_changed_by_callers():
    """Both are parsed or built once per process; a caller's edit must not
    reach the next caller."""
    patch_catalog().pop(1)
    cat = patch_catalog()
    assert sorted(cat) == list(range(1, 14))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cat[1].cells = frozenset()
    edge = interior_edge_traversal(cat[1])[0].edge
    with pytest.raises(TypeError):
        canonical_numbering()[edge] = 99
    assert canonical_numbering()[edge] == 1


def test_catalog_boundary_edges_classified_exactly_once():
    for patch in patch_catalog().values():
        boundary = patch.boundary_edges
        assert patch.ext_dirichlet <= boundary
        assert patch.ext_dirichlet | patch.ext_neumann == boundary
        assert not patch.ext_dirichlet & patch.ext_neumann
        assert not patch.ext_dirichlet & patch.interior_edges


def test_catalog_vertex_kind_matches_geometry():
    """Interior-vertex patches are exactly those with all four center cells."""
    center = {(1, 1), (1, 2), (2, 1), (2, 2)}
    for patch in patch_catalog().values():
        has_center = center <= patch.cells
        assert has_center == (patch.vertex_kind == "interior")
        if patch.vertex_kind == "interior":
            assert not patch.ext_dirichlet
        else:
            assert patch.ext_dirichlet


def test_full_grid_numbering_covers_1_to_24():
    numbering = canonical_numbering()
    assert sorted(numbering.values()) == list(range(1, 25))
    # every square's top and left sides come after its bottom and right
    for cx in range(4):
        for cy in range(4):
            sides = {
                "e1": GridEdge("V", cx + 1, cy),
                "e2": GridEdge("H", cx, cy + 1),
                "e3": GridEdge("V", cx, cy),
                "e4": GridEdge("H", cx, cy),
            }
            nums = {k: numbering.get(v) for k, v in sides.items()}
            for early in ("e1", "e4"):
                for late in ("e2", "e3"):
                    if nums[early] is not None and nums[late] is not None:
                        assert nums[early] < nums[late]


def test_traversal_lengths_and_ordering():
    cat = patch_catalog()
    numbering = canonical_numbering()
    for pid, patch in cat.items():
        traversal = interior_edge_traversal(patch)
        assert len(traversal) == EXPECTED_LENGTHS[pid]
        numbers = [s.number for s in traversal]
        assert numbers == sorted(numbers)
        assert len(set(numbers)) == len(numbers)
        for step in traversal:
            assert step.number == numbering[step.edge]
            assert step.owner == owner_square(step.edge)
            assert step.owner in patch.cells


def test_owner_holds_edge_on_bottom_or_right():
    for patch in patch_catalog().values():
        for step in interior_edge_traversal(patch):
            sides = {
                "e1": GridEdge("V", step.owner[0] + 1, step.owner[1]),
                "e4": GridEdge("H", step.owner[0], step.owner[1]),
            }
            assert step.edge in sides.values()


def test_situation_histograms_are_frozen():
    cat = patch_catalog()
    for pid, patch in cat.items():
        assert canonical_counts(patch) == EXPECTED_COUNTS[pid], pid


def test_interior_patch_final_step_signals_empty_set():
    cat = patch_catalog()
    for pid in (1, 2, 3, 4, 5):
        patch = cat[pid]
        info = local_dirichlet_edges(patch, patch.n_steps)
        assert info.situation is None
        assert info.dirichlet_sides == frozenset()


def test_boundary_patch_classifies_every_step():
    cat = patch_catalog()
    for pid in range(6, 13):
        patch = cat[pid]
        for i in range(1, patch.n_steps + 1):
            info = local_dirichlet_edges(patch, i)
            assert info.situation in ("a", "b", "c", "d", "e")
            assert info.dirichlet_sides


def test_step_index_out_of_range_raises():
    cat = patch_catalog()
    with pytest.raises(ValueError):
        local_dirichlet_edges(cat[1], 0)
    with pytest.raises(ValueError):
        local_dirichlet_edges(cat[1], 23)
    with pytest.raises(ValueError):
        local_dirichlet_edges(cat[13], 1)


def test_verify_passes_for_all_patches_and_orientations():
    for patch in patch_catalog().values():
        report = verify_traversal_lemma(patch)
        assert report.passed, report.violations[:3]
        assert not report.violations


def test_verify_counts_aggregate_eight_orientations():
    """The report counts each labelled step once, in the catalog frame."""
    cat = patch_catalog()
    for pid, patch in cat.items():
        report = verify_traversal_lemma(patch)
        assert dict(report.situation_counts) == EXPECTED_COUNTS[pid], pid


def classify_oracle(dirichlet, ext_neumann, self_side):
    """The situation rules with every side set written out."""
    if dirichlet == frozenset({"e1", "e2", "e3"}):
        return "a"
    if dirichlet == frozenset({"e2", "e3", "e4"}):
        return "b"
    if dirichlet == frozenset({"e2", "e3"}):
        return "c"
    if dirichlet == frozenset({"e2"}) and "e3" in ext_neumann:
        return "d"
    if dirichlet == frozenset({"e3"}) and "e2" in ext_neumann:
        return "e"
    covered = dirichlet | ext_neumann
    if dirichlet and self_side == "e4" and {"e1", "e2", "e3"} <= covered:
        return "a"
    if dirichlet and self_side == "e1" and {"e2", "e3", "e4"} <= covered:
        return "b"
    return None


def test_classify_matches_the_written_out_rules():
    """The classification read from ``PRE_ZERO_SIDES`` agrees with the
    written-out rules on every pair of side sets and every traversed side."""
    sides = ("e1", "e2", "e3", "e4")
    subsets = [frozenset(chosen) for k in range(len(sides) + 1)
               for chosen in itertools.combinations(sides, k)]
    labels = set()
    for dirichlet, neumann, self_side in itertools.product(subsets, subsets, sides):
        expected = classify_oracle(dirichlet, neumann, self_side)
        assert patches._classify(dirichlet, neumann, self_side) == expected, (
            dirichlet, neumann, self_side)
        if expected is not None:
            # a labelled step has top and left covered, so neither can be an
            # interior edge traversed earlier: the above/left separation
            # needs no check of its own
            assert {"e2", "e3"} <= dirichlet | neumann
        labels.add(expected)
    assert labels == {*SITUATIONS, None}


def step_sides_oracle(patch, step):
    """(dirichlet_sides, ext_neumann_sides, situation) of a step, marking an
    interior side Dirichlet when its inherited number exceeds the step's."""
    numbering = patches.canonical_numbering()
    dirichlet, neumann, self_side = set(), set(), None
    for name, edge in cell_sides(step.owner).items():
        if edge == step.edge:
            self_side = name
        elif edge in patch.ext_dirichlet:
            dirichlet.add(name)
        elif edge in patch.interior_edges and numbering[edge] > step.number:
            dirichlet.add(name)
        elif edge in patch.ext_neumann:
            neumann.add(name)
    dirichlet, neumann = frozenset(dirichlet), frozenset(neumann)
    return dirichlet, neumann, classify_oracle(dirichlet, neumann, self_side)


def test_steps_match_the_numbering_oracle(monkeypatch):
    """Classifying from the traversal order equals comparing inherited
    numbers, under the canonical numbering and 50 random ones."""
    cat = patch_catalog()
    edges = sorted(canonical_numbering())
    rng = np.random.default_rng(61)
    numberings = [dict(canonical_numbering())] + [
        dict(zip(edges, (int(k) for k in rng.permutation(len(edges)) + 1)))
        for _ in range(50)
    ]
    for numbering in numberings:
        monkeypatch.setattr(patches, "canonical_numbering", lambda: numbering)
        for patch in cat.values():
            for step in interior_edge_traversal(patch):
                assert (step.dirichlet_sides, step.ext_neumann_sides,
                        step.situation) == step_sides_oracle(patch, step)


def test_corrupted_numbering_is_caught_and_located(monkeypatch):
    """Renumbering one interior edge must be flagged with its location."""
    cat = patch_catalog()
    numbering = dict(canonical_numbering())
    edges = sorted(cat[4].interior_edges, key=lambda e: numbering[e])
    first, last = edges[0], edges[-1]
    numbering[first], numbering[last] = numbering[last], numbering[first]
    monkeypatch.setattr(patches, "canonical_numbering", lambda: numbering)
    report = verify_traversal_lemma(cat[4])
    assert not report.passed
    assert report.patch_id == 4
    assert report.violations == (
        TraversalViolation(6, GridEdge("H", 1, 1),
                           "no admissible zero-extension layout"),
        TraversalViolation(8, GridEdge("V", 1, 1),
                           "no situation matches sides ['e4']"),
        TraversalViolation(10, GridEdge("H", 0, 1), "empty local Dirichlet set"),
        TraversalViolation(11, GridEdge("V", 1, 2), "empty local Dirichlet set"),
    )
    assert dict(report.situation_counts) == {
        "a": 1, "b": 2, "c": 2, "d": 1, "e": 2}


#: violations of each dihedral image of a catalog patch, under the one
#: fixed numbering, for the transforms t = 0..7 of ``dihedral_oracle``;
#: the patches left out have none in any image
IMAGE_VIOLATIONS = {
    1: [0, 0, 0, 2, 0, 0, 2, 0],
    2: [0, 2, 0, 2, 2, 0, 2, 0],
    6: [0, 1, 4, 1, 1, 0, 1, 4],
    7: [0, 1, 2, 1, 1, 0, 1, 2],
    8: [0, 0, 2, 1, 0, 0, 1, 2],
    9: [0, 1, 2, 1, 1, 0, 1, 2],
    10: [0, 1, 1, 0, 1, 0, 0, 1],
    11: [0, 0, 1, 0, 0, 0, 0, 1],
}


def test_enumeration_belongs_to_the_catalog_frame():
    """Re-traversing a rotated or mirrored copy under the same numbering is
    not the lemma: 34 of the 104 images fail, and only the identity and the
    anti-diagonal mirror (t = 5) pass for every patch. A patch in another
    orientation carries the enumeration along, so the catalog frame is
    checked alone."""
    counts = {}
    for pid, patch in patch_catalog().items():
        counts[pid] = []
        for t in range(8):
            image = RefinedPatch(
                id=pid, vertex_kind=patch.vertex_kind,
                cells=frozenset(transform_cell(t, c) for c in patch.cells),
                ext_dirichlet=frozenset(
                    transform_edge(t, e) for e in patch.ext_dirichlet))
            assert image.n_steps == patch.n_steps
            counts[pid].append(len(verify_traversal_lemma(image).violations))
    assert counts == {pid: IMAGE_VIOLATIONS.get(pid, [0] * 8) for pid in counts}
    assert sum(n > 0 for row in counts.values() for n in row) == 34
    assert [t for t in range(8)
            if all(row[t] == 0 for row in counts.values())] == [0, 5]


def test_extension_layouts_only_reach_right_and_down():
    allowed = {(0, 0), (1, 0), (0, -1), (1, -1)}
    for name, layout in _LAYOUTS.items():
        assert set(layout) <= allowed, name
    assert tuple(_LAYOUTS)[:5] == SITUATIONS


def test_layout_seams_and_clamped_sides_match_oracle_tables():
    """Seams and zero-trace outer sides read off _LAYOUTS equal the oracle."""
    steps = {"e1": (1, 0), "e2": (0, 1), "e3": (-1, 0), "e4": (0, -1)}
    opposite = {"e1": "e3", "e2": "e4", "e3": "e1", "e4": "e2"}
    for situ in SITUATIONS:
        layout = _LAYOUTS[situ]
        seams, clamped = set(), set()
        for offset, decayed in layout.items():
            for side, (dx, dy) in steps.items():
                neighbor = (offset[0] + dx, offset[1] + dy)
                if neighbor not in layout:
                    source = patches._source(offset, side)
                    if side in decayed or source in PRE_ZERO_SIDES[situ]:
                        clamped.add((offset, side))
                elif side in ("e1", "e4"):
                    seams.add((offset, side, neighbor, opposite[side]))
        assert seams == set(_SEAMS[situ]), situ
        assert clamped == set(_POST_ZERO[situ]), situ


#: the number of labelled steps of the packaged catalog with each pair of
#: situation and set of admissible witness layouts
ADMISSIBLE_LAYOUTS = {
    ("b", ("a", "b", "c", "d", "down_decay", "e", "right_decay")): 1,
    ("b", ("b", "c", "d", "e", "right_decay")): 19,
    ("b", ("b", "e", "right_decay")): 9,
    ("b", ("d", "right_decay")): 9,
    ("b", ("right_decay",)): 4,
    ("c", ("a", "b", "c", "d", "down_decay", "e", "right_decay")): 21,
    ("c", ("b", "c", "d", "e", "right_decay")): 1,
    ("c", ("c", "d", "e")): 18,
    ("d", ("a", "b", "c", "d", "down_decay", "e", "right_decay")): 2,
    ("d", ("a", "d", "down_decay")): 2,
    ("d", ("a", "d", "down_decay", "right_decay")): 8,
    ("d", ("d",)): 9,
    ("e", ("a", "b", "c", "d", "down_decay", "e", "right_decay")): 3,
    ("e", ("b", "down_decay", "e", "right_decay")): 9,
    ("e", ("b", "e", "right_decay")): 1,
    ("e", ("e",)): 9,
}


def test_admissible_layouts_of_every_catalog_step_are_pinned():
    """A layout read with a wrong mirror can leave every norm as it is and
    still change which layouts witness a step."""
    seen = {}
    for patch in patch_catalog().values():
        steps = interior_edge_traversal(patch)
        for step in steps:
            if step.situation is None:
                continue
            later = frozenset(s.edge for s in steps[step.index:])
            names = tuple(sorted(
                name for name in _LAYOUTS if patches._layout_valid(
                    name, step.owner, step.dirichlet_sides, patch, later,
                    step.edge)))
            key = step.situation, names
            seen[key] = seen.get(key, 0) + 1
    assert seen == ADMISSIBLE_LAYOUTS
    assert sum(seen.values()) == 125
    # widened (b) steps with a free e3 are witnessed only by a decay layout
    assert sum(count for (situation, names), count in seen.items()
               if situation == "b" and "b" not in names) == 13


def test_verify_tries_each_steps_own_layout_first(monkeypatch):
    calls = []
    layout_valid = patches._layout_valid

    def recording(name, owner, dirichlet_sides, patch, later, current):
        calls.append((patch.id, current, name))
        return layout_valid(name, owner, dirichlet_sides, patch, later, current)

    monkeypatch.setattr(patches, "_layout_valid", recording)
    firsts = {}
    for patch in patch_catalog().values():
        assert verify_traversal_lemma(patch).passed
        for step in interior_edge_traversal(patch):
            if step.situation is not None:
                firsts[patch.id, step.edge] = step.situation
    tried = {}
    for pid, edge, name in calls:
        tried.setdefault((pid, edge), name)
    assert tried == firsts
    assert len(calls) == 172


def test_witness_verdicts_match_the_call_based_oracle(tmp_path):
    """The witness check read from tables gives the call-based verdict on
    every (patch, step, layout) of the catalog, of its dihedral images and
    of the corrupted catalog of the CLI tests."""
    catalog = patch_catalog()
    images = [
        RefinedPatch(
            id=pid, vertex_kind=patch.vertex_kind,
            cells=frozenset(transform_cell(t, c) for c in patch.cells),
            ext_dirichlet=frozenset(
                transform_edge(t, e) for e in patch.ext_dirichlet))
        for pid, patch in catalog.items() for t in range(1, 8)]
    bad = tmp_path / "corrupted.txt"
    bad.write_text(CORRUPTED_CATALOG)
    verdicts = {}
    for patch in [*catalog.values(), *images, *patch_catalog(str(bad)).values()]:
        steps = interior_edge_traversal(patch)
        for step in steps:
            later = frozenset(s.edge for s in steps[step.index:])
            for name in _LAYOUTS:
                args = (name, step.owner, step.dirichlet_sides, patch, later,
                        step.edge)
                verdict = patches._layout_valid(*args)
                assert verdict == layout_valid_by_calls(*args), (patch, step, name)
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert verdicts == {True: 3580, False: 3714}


def test_catalog_roundtrip_through_custom_path(tmp_path):
    source = patch_catalog()
    lines = []
    for pid in sorted(source):
        patch = source[pid]
        lines.append(f"patch {pid} {patch.vertex_kind}")
        cells = " ".join(f"{c[0]},{c[1]}" for c in sorted(patch.cells))
        lines.append(f"cells {cells}")
        clamped = " ".join(
            f"{e.orientation} {e.x} {e.y}" for e in sorted(patch.ext_dirichlet)
        )
        lines.append(f"dirichlet {clamped}".rstrip())
    path = tmp_path / "catalog.txt"
    path.write_text("\n".join(lines) + "\n")
    reload = patch_catalog(str(path))
    assert reload == source


def test_catalog_rejects_inconsistent_records(tmp_path):
    bad = tmp_path / "bad.txt"
    # clamped edge not on the patch boundary
    bad.write_text("patch 1 boundary\ncells 2,1\ndirichlet H 0 0\n")
    with pytest.raises(ValueError):
        patch_catalog(str(bad))
    # interior kind without the four center cells
    bad.write_text("patch 1 interior\ncells 2,1\ndirichlet\n")
    with pytest.raises(ValueError):
        patch_catalog(str(bad))


def test_side_traces_match_point_evaluation():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((5, 7))
    t = np.linspace(-1.0, 1.0, 9)
    for side, expect in (
        ("e1", npleg.leggrid2d(np.array([1.0]), t, c)[0]),
        ("e3", npleg.leggrid2d(np.array([-1.0]), t, c)[0]),
        ("e2", npleg.leggrid2d(t, np.array([1.0]), c)[:, 0]),
        ("e4", npleg.leggrid2d(t, np.array([-1.0]), c)[:, 0]),
    ):
        got = npleg.legval(t, side_trace(c, side))
        assert np.max(np.abs(got - expect)) < 1e-12
    with pytest.raises(ValueError):
        side_trace(c, "e5")


def test_seminorm_matches_quadrature_oracle():
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (4, 4), (3, 8), (9, 2)):
        c = rng.standard_normal(shape)
        assert h1_seminorm_squared(c) == pytest.approx(
            seminorm_oracle(c), abs=1e-11, rel=1e-12
        )


def test_random_admissible_satisfies_preconditions():
    rng = np.random.default_rng(23)
    required = {
        "a": ("e1", "e2", "e3"),
        "b": ("e2", "e3", "e4"),
        "c": ("e2", "e3"),
        "d": ("e2",),
        "e": ("e3",),
    }
    for situ, sides in required.items():
        c = random_admissible(situ, 6, rng)
        for side in sides:
            assert np.max(np.abs(side_trace(c, side))) < 1e-12
        assert h1_seminorm_squared(c) > 1e-12


def test_extension_restricts_exactly_and_preserves_zero():
    rng = np.random.default_rng(3)
    for situ in "abcde":
        c = random_admissible(situ, 5, rng)
        ext = extension_operator(situ, c)
        assert np.array_equal(ext.pieces[(0, 0)], np.atleast_2d(c))
        zero = extension_operator(situ, np.zeros((6, 6)))
        assert all(np.all(p == 0.0) for p in zero.pieces.values())


def test_extension_is_continuous_and_clamped():
    rng = np.random.default_rng(17)
    for situ in "abcde":
        for _ in range(5):
            c = random_admissible(situ, 7, rng)
            ext = extension_operator(situ, c)
            seam, clamp = extension_interface_checks(ext)
            assert seam < 1e-11
            assert clamp < 1e-11


def test_extension_degree_grows_by_at_most_one():
    rng = np.random.default_rng(29)
    for situ in "abcde":
        c = random_admissible(situ, 6, rng)
        ext = extension_operator(situ, c)
        worst = max(max(p.shape) for p in ext.pieces.values()) - 1
        assert worst <= 7
        if situ in ("a", "b", "c"):
            assert worst == 6


def test_decay_matches_the_column_loop(monkeypatch):
    rng = np.random.default_rng(53)
    for degree in range(2, 13):
        for situ in SITUATIONS:
            c = random_admissible(situ, degree, rng)
            pieces = extension_operator(situ, c).pieces
            with monkeypatch.context() as m:
                m.setattr(patches, "_decay", decay_by_columns)
                expected = extension_operator(situ, c).pieces
            for offset, piece in expected.items():
                assert pieces[offset].shape == piece.shape
                diff = np.max(np.abs(pieces[offset] - piece))
                assert diff <= 1e-14 * np.max(np.abs(piece)), (situ, degree)


def test_reflection_extensions_have_exact_energy_ratios():
    """Mirroring doubles the squared seminorm per reflected copy."""
    rng = np.random.default_rng(41)
    for situ, factor in (("a", 2.0), ("b", 2.0), ("c", 4.0)):
        for _ in range(10):
            c = random_admissible(situ, 8, rng)
            ext = extension_operator(situ, c)
            ratio = ext.seminorm_squared() / h1_seminorm_squared(c)
            assert abs(ratio - factor) < 1e-12


def test_decay_extensions_are_uniformly_bounded():
    for situ in ("d", "e"):
        worst = [
            measured_extension_ratio(situ, degree, 40, seed=degree)
            for degree in range(2, 13)
        ]
        assert all(np.isfinite(worst))
        running = worst[0]
        for value in worst[1:]:
            assert value <= 1.05 * running
            running = max(running, value)


def test_decay_constant_measured_over_many_draws():
    worst_d = measured_extension_ratio("d", 8, 500, seed=1)
    worst_e = measured_extension_ratio("e", 8, 500, seed=1)
    assert 1.0 <= worst_d < 4.0
    assert 1.0 <= worst_e < 4.0


def test_extension_norm_bounds_every_sampled_ratio():
    for situ in SITUATIONS:
        for degree in (3, 5, 8):
            sampled = measured_extension_ratio(situ, degree, 40, seed=degree)
            assert sampled <= extension_norm(situ, degree) + 1e-12, (situ, degree)


def test_reflection_extension_norms_are_exact():
    for degree in (2, 5, 8):
        assert abs(extension_norm("a", degree) - np.sqrt(2.0)) < 1e-12
        assert abs(extension_norm("b", degree) - np.sqrt(2.0)) < 1e-12
        assert abs(extension_norm("c", degree) - 2.0) < 1e-12


def test_decay_extension_norms_are_pinned_and_bounded():
    """The admissible spaces are nested in the degree, so the norm never
    falls as the degree rises."""
    pinned = {2: 2.134767, 4: 2.153802, 8: 2.154601, 12: 2.154603}
    for situ in ("d", "e"):
        norms = {degree: extension_norm(situ, degree) for degree in range(2, 65)}
        for degree, value in pinned.items():
            assert abs(norms[degree] - value) < 1e-6, (situ, degree)
        assert max(norms.values()) < 4.0
        for degree in range(3, 65):
            assert norms[degree] >= norms[degree - 1] * (1.0 - 1e-14), (
                situ, degree)


def test_extension_norm_matches_the_2d_oracle():
    """The 1D-separated norms, closed forms included, equal the dense route."""
    for degree in range(2, 17):
        for situ in SITUATIONS:
            expected = extension_norm_2d(situ, degree)
            got = extension_norm(situ, degree)
            assert abs(got - expected) <= 1e-12 * expected, (situ, degree)


def test_extension_norm_matches_the_scipy_pencils():
    """The chain route equals scipy's generalized eigh on the null spaces.

    They agree to 1e-12 up to degree 51. Past it the oracle's plain-Legendre
    null-space Grams leave it up to 2e-12 off the converged norm (at degree
    63 about -1.6e-12), while the chains hold it to rounding, so the two are
    held to 4e-12.
    """
    for degree in range(2, 65):
        tol = 1e-12 if degree <= 51 else 4e-12
        for situ in ("d", "e"):
            expected = extension_norm_scipy(situ, degree)
            got = extension_norm(situ, degree)
            assert abs(got - expected) <= tol * expected, (situ, degree)


def test_extension_norm_equals_the_all_modes_loop_bitwise():
    """Two cross modes, the smallest and the largest, give the norm that
    the loop over every mode gives, to the last bit."""
    for degree in range(2, 65):
        for situ in ("d", "e"):
            assert extension_norm(situ, degree) == extension_norm_all_modes(
                situ, degree), (situ, degree)


def test_the_e_pencil_is_the_d_pencil_mirrored_across_the_anti_diagonal():
    """(x, y) -> (-y, -x) takes the d layout to the e one. Along the decay
    axis, whose factor is free-free in both, it is t -> -t, which multiplies
    each member by (-1) to its degree: the Grams of e are those of d with
    those signs on both sides, to the last bit, and the cross modes and the
    plain pieces are the same. So ``patches verify`` takes the norm of e
    from that of d."""
    for degree in range(2, 65):
        n_d, *d = _decay_pencil("d", degree)
        n_e, *e = _decay_pencil("e", degree)
        cols, _ = _members(BoundaryCondition1D(), degree)
        sign = (-1.0) ** np.abs(cols).argmax(axis=0)
        assert n_d == n_e, degree
        for gram_d, gram_e in zip(d[:4], e[:4]):
            assert np.array_equal(gram_e, sign[:, None] * gram_d * sign), degree
        assert np.array_equal(d[4], e[4]), degree
        assert extension_norm("d", degree) == extension_norm("e", degree)


def test_the_end_modes_hold_the_largest_pencil_eigenvalue():
    """For symmetric B and C, semidefinite S, definite M and sorted positive
    thetas, in either direction, the largest lambda_max(B + theta C,
    S + theta M) over the thetas is that at the smallest or the largest
    theta, to a few ulps; either end can hold it."""
    rng = np.random.default_rng(71)
    ends = set()
    for _ in range(300):
        n = int(rng.integers(1, 13))
        b, c = (a + a.T for a in rng.standard_normal((2, n, n)))
        g = rng.standard_normal((n, int(rng.integers(0, n + 1))))
        h = rng.standard_normal((n, n))
        stiff, mass = g @ g.T, h @ h.T + np.eye(n)
        thetas = np.sort(np.exp(rng.uniform(-4.0, 4.0, int(rng.integers(2, 12)))))
        every = [patches._pencil_eigenvalues(b + t * c, stiff + t * mass)[-1]
                 for t in thetas]
        top = patches._top_at_end_modes(b, c, stiff, mass, thetas[::-1])
        assert top == patches._top_at_end_modes(b, c, stiff, mass, thetas)
        assert max(every) <= top + 4 * np.spacing(abs(top))
        ends.add(top == every[0])
    assert ends == {True, False}


def test_decay_extension_norms_settle_at_high_degree():
    """The norm is flat to rounding from degree 32 on."""
    for situ in ("d", "e"):
        for degree in (32, 64, 128, 256):
            got = extension_norm(situ, degree)
            assert abs(got - 2.154603231938705) <= 1e-12 * got, (situ, degree)


def test_extension_rejects_bad_inputs():
    with pytest.raises(ValueError):
        extension_operator("f", np.zeros((3, 3)))
    with pytest.raises(ValueError):
        extension_norm("f", 8)
    with pytest.raises(ValueError):
        extension_norm("a", 1)
    for degree in (8.0, 8.5, True):
        for situ in ("a", "d"):
            with pytest.raises(ValueError):
                extension_norm(situ, degree)
    assert extension_norm("d", np.int64(8)) == extension_norm("d", 8)
    with pytest.raises(ValueError):
        extension_operator("a", np.ones((3, 3)))
    with pytest.raises(ValueError):
        extension_operator("c", np.zeros((5, 5)), degree=3)


def test_patch_validation_rejects_malformed_inputs():
    with pytest.raises(ValueError):
        RefinedPatch(id=1, vertex_kind="edge", cells=frozenset({(0, 0)}),
                     ext_dirichlet=frozenset())
    with pytest.raises(ValueError):
        RefinedPatch(id=1, vertex_kind="boundary", cells=frozenset(),
                     ext_dirichlet=frozenset())
    cells = frozenset((x, y) for x in range(4) for y in range(4))
    with pytest.raises(ValueError):
        RefinedPatch(id=1, vertex_kind="interior", cells=cells,
                     ext_dirichlet=frozenset({GridEdge("V", 0, 0)}))


def test_single_cell_patch_has_no_traversal():
    patch = patch_catalog()[13]
    assert patch.n_steps == 0
    assert interior_edges_of(patch.cells) == frozenset()
    assert len(boundary_edges_of(patch.cells)) == 4
    report = verify_traversal_lemma(patch)
    assert report.passed
    assert dict(report.situation_counts) == {}


def test_verification_is_deterministic():
    cat = patch_catalog()
    first = [verify_traversal_lemma(cat[i]) for i in sorted(cat)]
    second = [verify_traversal_lemma(cat[i]) for i in sorted(cat)]
    assert first == second
    r1 = measured_extension_ratio("d", 6, 25, seed=9)
    r2 = measured_extension_ratio("d", 6, 25, seed=9)
    assert r1 == r2
