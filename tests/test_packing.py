"""Packing validation, contact graphs, overlays, and theorem certificates."""
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fpindex.errors import (
    BadInterstice,
    CornerContact,
    HypothesesNotMet,
    InputRejection,
    NotTransverseOverlay,
    PieceOutsideRect,
    PiecesOverlap,
)
from fpindex.exact_geom import PLLoop, PointLocation, RatPoint
from fpindex import jordan, packing
from fpindex.jordan import PolyJordanCurve
from fpindex.packing import (
    PackingSpec,
    TopoRectangle,
    assemble_theorem_certificate,
    check_overlay_transverse,
    find_cutting_pair,
    isomorphic_contact,
    translate_packing,
    validate_packing,
)
from fpindex.plmap import PLCorrespondence
from fpindex.serialize import (
    load_json_file,
    load_packing,
    load_piece_correspondence,
)

from geomgen import AffineMap, angular_trace_faces, interior_point, point_at
from packfix import (
    bent_one_piece_pair,
    curve,
    one_piece_pair,
    pt,
    sorted_edges,
    sorted_triangles,
    two_piece_pair,
)

F = Fraction


def mapped_packing(spec: PackingSpec, m: AffineMap) -> PackingSpec:
    def image(c: PolyJordanCurve) -> PolyJordanCurve:
        return PolyJordanCurve(PLLoop(tuple(m.apply(p) for p in c.vertices)))

    return PackingSpec(TopoRectangle(image(spec.rect.curve),
                                     spec.rect.corners),
                       tuple(image(p) for p in spec.pieces))


class TestTopoRectangle:
    def test_corner_accessors(self):
        rect = one_piece_pair()[0].rect
        assert rect.corner_points == (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
        assert rect.corner_params == (F(0), F(1, 4), F(1, 2), F(3, 4))
        assert [rect.side_of_vertex(i) for i in range(8)] == \
            [0, 0, 1, 1, 2, 2, 3, 3]

    def test_rejects_wrong_corner_count(self):
        c = curve((0, 0), (4, 0), (4, 4), (0, 4))
        with pytest.raises(InputRejection):
            TopoRectangle(c, (0, 1, 2))

    def test_rejects_duplicate_corner(self):
        c = curve((0, 0), (4, 0), (4, 4), (0, 4))
        with pytest.raises(InputRejection):
            TopoRectangle(c, (0, 1, 1, 3))

    def test_rejects_out_of_range_corner(self):
        c = curve((0, 0), (4, 0), (4, 4), (0, 4))
        with pytest.raises(InputRejection):
            TopoRectangle(c, (0, 1, 2, 4))

    def test_rejects_out_of_order_corners(self):
        c = curve((0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4),
                  (0, 2))
        with pytest.raises(InputRejection):
            TopoRectangle(c, (0, 4, 2, 6))


class TestValidatePacking:
    def test_one_piece_contact_graph(self):
        spec, _, _ = one_piece_pair()
        _, graph = validate_packing(spec)
        assert graph.piece_count == 1
        assert sorted_edges(graph) == (
            ("a", "b"), ("a", "d"), ("a", 0), ("b", "c"), ("b", 0),
            ("c", "d"), ("c", 0), ("d", 0))
        assert sorted_triangles(graph) == (
            ("a", "b", 0), ("a", "d", 0), ("b", "c", 0), ("c", "d", 0))

    def test_two_piece_contact_graph(self):
        spec, other, _ = two_piece_pair()
        _, graph = validate_packing(spec)
        assert graph.piece_count == 2
        assert sorted_edges(graph) == (
            ("a", "b"), ("a", "d"), ("a", 0), ("b", "c"), ("b", 0),
            ("b", 1), ("c", "d"), ("c", 1), ("d", 0), ("d", 1), (0, 1))
        assert sorted_triangles(graph) == (
            ("a", "b", 0), ("a", "d", 0), ("b", "c", 1), ("b", 0, 1),
            ("c", "d", 1), ("d", 0, 1))
        _, graph_b = validate_packing(other)
        assert sorted_edges(graph_b) == sorted_edges(graph)
        assert sorted_triangles(graph_b) == sorted_triangles(graph)

    def test_contact_where_segment_boxes_share_one_x(self):
        # At (4, 4) piece 0's vertical edge ends and piece 1's edges leave to
        # the right: every segment pair there meets only on the line x = 4.
        rect = TopoRectangle(
            curve((0, 0), (2, 0), (6, 0), (8, 0), (8, 4), (8, 8), (6, 8),
                  (2, 8), (0, 8), (0, 4)),
            (0, 3, 5, 8))
        left = curve((2, 0), (4, 2), (4, 4), (2, 8), (0, 4))
        right = curve((6, 0), (8, 4), (6, 8), (4, 4))
        _, graph = validate_packing(PackingSpec(rect, (left, right)))
        assert frozenset({0, 1}) in graph.edges
        assert sorted_triangles(graph) == (
            ("a", "b", 1), ("a", "d", 0), ("a", 0, 1), ("b", "c", 1),
            ("c", "d", 0), ("c", 0, 1))

    def test_empty_packing_is_not_triangulated(self):
        rect = one_piece_pair()[0].rect
        with pytest.raises(BadInterstice):
            validate_packing(PackingSpec(rect, ()))

    def test_rejects_piece_poking_outside(self):
        rect = one_piece_pair()[0].rect
        piece = curve((2, -1), (3, 2), (1, 2))
        with pytest.raises(PieceOutsideRect):
            validate_packing(PackingSpec(rect, (piece,)))

    def test_rejects_touch_at_non_vertex_of_frame(self):
        rect = one_piece_pair()[0].rect
        piece = curve((1, 0), (2, 1), (1, 2), (0, 1))
        with pytest.raises(PieceOutsideRect):
            validate_packing(PackingSpec(rect, (piece,)))

    def test_rejects_touch_at_marked_corner(self):
        rect = one_piece_pair()[0].rect
        piece = curve((0, 0), (2, 1), (1, 2))
        with pytest.raises(CornerContact):
            validate_packing(PackingSpec(rect, (piece,)))

    def test_rejects_two_contacts_on_one_side(self):
        rect = two_piece_pair()[1].rect
        piece = curve((8, F(15, 8)), (7, F(5, 2)), (8, F(29, 8)), (5, F(5, 2)))
        with pytest.raises(PieceOutsideRect):
            validate_packing(PackingSpec(rect, (piece,)))

    def test_rejects_overlapping_pieces(self):
        spec, _, _ = one_piece_pair()
        shifted = curve((3, 0), (5, 2), (3, 4), (1, 2))
        with pytest.raises((PiecesOverlap, PieceOutsideRect)):
            validate_packing(PackingSpec(spec.rect, spec.pieces + (shifted,)))

    def test_rejects_nested_pieces(self):
        spec, _, _ = one_piece_pair()
        inner = curve((2, 1), (3, 2), (2, 3), (1, 2))
        with pytest.raises(PiecesOverlap,
                           match="piece 1 reaches inside piece 0"):
            validate_packing(PackingSpec(spec.rect, spec.pieces + (inner,)))

    def test_rejects_piece_touch_at_non_vertex_of_other_piece(self):
        spec, _, _ = one_piece_pair()
        tick = curve((3, 1), (F(7, 2), 1), (F(13, 4), F(9, 8)))
        with pytest.raises(PiecesOverlap):
            validate_packing(PackingSpec(spec.rect, spec.pieces + (tick,)))

    def test_rejects_quadrilateral_interstice(self):
        rect = one_piece_pair()[0].rect
        slab = curve((2, 0), (3, 2), (2, 4), (1, 2))
        with pytest.raises(BadInterstice):
            validate_packing(PackingSpec(rect, (slab,)))

    def test_rejects_three_pieces_at_one_point(self):
        rect = TopoRectangle(
            curve((0, 0), (4, 0), (8, 0), (8, 4), (8, 8), (4, 8), (0, 8),
                  (0, 4)),
            (0, 2, 4, 6))
        pieces = (curve((4, 0), (5, 3), (4, 4), (3, 3)),
                  curve((4, 4), (8, 4), (4, 8)),
                  curve((4, 4), (3, 6), (0, 4)))
        with pytest.raises(BadInterstice):
            validate_packing(PackingSpec(rect, pieces))

    def test_rejects_two_pieces_at_one_frame_vertex(self):
        rect = one_piece_pair()[0].rect
        pieces = (curve((2, 0), (3, 2), (2, 2)),
                  curve((2, 0), (1, 3), (1, 1)))
        with pytest.raises(BadInterstice):
            validate_packing(PackingSpec(rect, pieces))

    @pytest.mark.parametrize("added, error, reason", [
        ("edge on side a", PieceOutsideRect,
         "piece 1 runs along the frame boundary"),
        ("diamond again", PiecesOverlap,
         "pieces 0 and 1 have boundaries that cross or run together"),
        ("crescent at (4, 2) and (2, 4)", PiecesOverlap,
         "pieces 0 and 1 meet at more than one point"),
        ("far away", PieceOutsideRect, "piece 1 leaves the frame"),
        ("floating", BadInterstice, "piece 1 touches nothing"),
        ("floating pair", BadInterstice,
         "tangency structure is disconnected or has holes"),
    ])
    def test_rejection_reasons(self, added, error, reason):
        spec, _, _ = one_piece_pair()
        pieces = {
            "edge on side a": (curve((1, 0), (3, 0), (2, 1)),),
            "diamond again": spec.pieces,
            # outside the diamond, touching it at two of its vertices
            "crescent at (4, 2) and (2, 4)": (curve(
                (4, 2), (F(15, 4), F(15, 4)), (2, 4), (F(13, 4), F(13, 4))),),
            "far away": (curve((10, 10), (11, 10), (10, 11)),),
            # inside the interstice at the marked corner (4, 0)
            "floating": (curve((3, F(1, 4)), (F(15, 4), F(1, 4)),
                               (F(15, 4), 1)),),
            "floating pair": (
                curve((3, F(1, 4)), (F(7, 2), F(1, 4)), (F(7, 2), F(3, 4))),
                curve((F(7, 2), F(1, 4)), (F(15, 4), F(1, 4)),
                      (F(15, 4), F(3, 4)))),
        }[added]
        with pytest.raises(error) as caught:
            validate_packing(PackingSpec(spec.rect, spec.pieces + pieces))
        assert str(caught.value) == reason

    def test_graph_is_affine_invariant(self):
        spec, _, _ = two_piece_pair()
        _, graph = validate_packing(spec)
        m = AffineMap(F(2), F(1), F(0), F(3), F(5), F(-7))
        assert m.determinant() > 0
        _, mapped = validate_packing(mapped_packing(spec, m))
        assert sorted_edges(mapped) == sorted_edges(graph)
        assert sorted_triangles(mapped) == sorted_triangles(graph)

    def test_graph_survives_translation(self):
        spec, _, _ = one_piece_pair()
        _, graph = validate_packing(spec)
        moved = translate_packing(spec, pt(7, -3))
        _, graph_m = validate_packing(moved)
        assert sorted_edges(graph_m) == sorted_edges(graph)


def angular_faces(spec: PackingSpec) -> list[tuple]:
    """(cycle, node ids, kind, polygon) per face of the packing's arcs as the
    angular sort traces them; a bounded face is a piece's interior exactly
    when an interior point of it lies inside some piece."""
    arcs = spec.analysis.arcs
    faces = []
    for cycle, polygon, area in angular_trace_faces(
            [(arc.tail, arc.head, arc.polyline) for arc in arcs]):
        kind = "outer"
        if area > 0:
            p = interior_point(polygon)
            kind = "interior" if any(
                piece.contains(p) is PointLocation.INSIDE
                for piece in spec.pieces) else "interstice"
        faces.append((cycle, tuple([arcs[aid].tail if forward
                                    else arcs[aid].head
                                    for aid, forward in cycle]),
                      kind, polygon))
    return faces


class TestContactRotation:
    """The packing's faces, traced on the rotation its contacts force, are
    the faces the angular sort traces."""

    MAPS = (AffineMap(F(0), F(-1), F(1), F(0)),  # a quarter turn
            AffineMap(F(2), F(1), F(0), F(3), F(5), F(-7)),
            AffineMap(F(3), F(0), F(1), F(2)),
            AffineMap(F(1, 3), F(-2, 5), F(1, 7), F(1), F(-1, 2), F(4)))

    def test_faces_match_angular_sort(self):
        specs = [spec for pair in (one_piece_pair(), two_piece_pair())
                 for spec in pair[:2]]
        images = [mapped_packing(spec, m) for spec in specs for m in self.MAPS]
        moved = [translate_packing(spec, pt(F(7, 2), -3)) for spec in specs]
        assert all(m.determinant() > 0 for m in self.MAPS)
        for spec in specs + images + moved:
            faces = spec.analysis.faces
            assert [(f.cycle, f.node_ids, f.kind, f.polygon)
                    for f in faces] == angular_faces(spec)
            assert sum(f.kind == "interstice" for f in faces) == \
                2 * len(spec.pieces) + 2


class TestOverlay:
    def test_one_piece_overlay_counts(self):
        first, second, _ = one_piece_pair()
        report = check_overlay_transverse(first, second)
        assert report.entries == (
            ("rect", "rect", 4), ("rect", "piece0", 4),
            ("piece0", "rect", 4), ("piece0", "piece0", 4))
        assert report.total_crossings == 16

    def test_two_piece_overlay_counts(self):
        first, second, _ = two_piece_pair()
        report = check_overlay_transverse(first, second)
        assert dict(((a, b), k) for a, b, k in report.entries) == {
            ("rect", "rect"): 4, ("rect", "piece0"): 4,
            ("rect", "piece1"): 4, ("piece0", "rect"): 2,
            ("piece0", "piece0"): 4, ("piece0", "piece1"): 2,
            ("piece1", "rect"): 2, ("piece1", "piece0"): 0,
            ("piece1", "piece1"): 2}
        assert report.total_crossings == 24

    def test_identical_packings_are_not_transverse(self):
        first, _, _ = one_piece_pair()
        with pytest.raises(NotTransverseOverlay):
            check_overlay_transverse(first, first)

    @pytest.mark.parametrize("pair", [one_piece_pair, two_piece_pair,
                                      bent_one_piece_pair])
    def test_node_on_other_boundary_is_a_pairwise_contact(self, pair):
        # A contact point or marked corner (a node) of one packing is a
        # vertex of its boundaries, so a boundary of the other packing
        # through it meets them at a non-crossing contact: the pairwise
        # check rejects every such overlay by itself.
        first, second, _ = pair()
        rng = random.Random(2804)
        nodes = [nd.point for nd in first.analysis.nodes]
        points = []
        for c in (second.rect.curve, *second.pieces):
            for a, b in c.loop.edges():
                points += [a, a + (b - a).scale(F(rng.randrange(1, 8), 8))]
        message = re.compile(r"(rect|piece\d+) against (rect|piece\d+): "
                             r"non-crossing contact between segment \d+ "
                             r"and segment \d+")
        for node, p in rng.sample([(nd, p) for nd in nodes for p in points],
                                  60):
            with pytest.raises(NotTransverseOverlay) as err:
                check_overlay_transverse(
                    first, translate_packing(second, node - p))
            assert message.fullmatch(str(err.value))


class TestIsomorphicContact:
    def test_matching_pair(self):
        first, second, corr = two_piece_pair()
        _, ga = validate_packing(first)
        _, gb = validate_packing(second)
        assert isomorphic_contact(ga, gb, corr)

    def test_swapped_correspondence_fails(self):
        first, second, _ = two_piece_pair()
        _, ga = validate_packing(first)
        _, gb = validate_packing(second)
        assert not isomorphic_contact(ga, gb, [1, 0])

    def test_piece_count_mismatch(self):
        _, ga = validate_packing(one_piece_pair()[0])
        _, gb = validate_packing(two_piece_pair()[0])
        assert not isomorphic_contact(ga, gb, [0])

    def test_rejects_non_bijection(self):
        _, ga = validate_packing(two_piece_pair()[0])
        with pytest.raises(InputRejection):
            isomorphic_contact(ga, ga, [0, 0])


class TestFindCuttingPair:
    def test_one_piece(self):
        first, second, corr = one_piece_pair()
        assert find_cutting_pair(first, second, corr) == 0

    def test_two_piece(self):
        first, second, corr = two_piece_pair()
        assert find_cutting_pair(first, second, corr) == 0

    def test_disjoint_frames_are_rejected(self):
        first, _, corr = one_piece_pair()
        far = translate_packing(first, pt(20, 0))
        with pytest.raises(HypothesesNotMet):
            find_cutting_pair(first, far, corr)

    def test_mismatched_contact_structure_rejected(self):
        # swapping the pieces sends piece 0's contact with side a to a
        # piece that touches side c instead
        first, second, _ = two_piece_pair()
        with pytest.raises(HypothesesNotMet) as caught:
            find_cutting_pair(first, second, [1, 0])
        assert str(caught.value) == (
            "contact structures do not match under the correspondence")


def shipped_packings(name: str):
    """The fixture packings pack_NAME_a and pack_NAME_b with corr_NAME."""
    fixtures = Path(__file__).parent / "fixtures"
    first, second = (load_packing(load_json_file(str(
        fixtures / f"pack_{name}_{side}.json"))) for side in "ab")
    corr = load_piece_correspondence(load_json_file(str(
        fixtures / f"corr_{name}.json")))
    return first, second, corr


class TestOneCrossingScanPerPair:
    """The cut tests read the overlay's crossing sets."""

    @pytest.mark.parametrize("name", ["one", "two"])
    @pytest.mark.parametrize("run", [
        packing.certify_incompatibility, packing.find_cutting_pair,
        packing.assemble_theorem_certificate])
    def test_shipped_packings(self, name, run, monkeypatch):
        first, second, corr = shipped_packings(name)
        calls = Counter()
        scan = jordan.check_transverse

        def counted(a, b):
            calls[a, b] += 1
            return scan(a, b)

        monkeypatch.setattr(jordan, "check_transverse", counted)
        monkeypatch.setattr(packing, "check_transverse", counted)
        run(first, second, corr)
        overlay_pairs = (len(first.pieces) + 1) * (len(second.pieces) + 1)
        assert len(calls) >= overlay_pairs
        assert max(calls.values()) == 1


class TestCertificate:
    def test_one_piece_certificate(self):
        first, second, corr = one_piece_pair()
        cert = assemble_theorem_certificate(first, second, corr)
        assert not cert.degenerate
        assert cert.rect_index == -1
        assert cert.piece_indices == (-1,)
        assert cert.interstice_indices == (0, 0, 0, 0)
        assert cert.cutting_index == 0
        assert cert.rect_index == cert.piece_sum + cert.interstice_sum
        assert sorted(cert.interstice_triples) == [
            ("a", "b", 0), ("a", "d", 0), ("b", "c", 0), ("c", "d", 0)]

    def test_two_piece_certificate(self):
        first, second, corr = two_piece_pair()
        cert = assemble_theorem_certificate(first, second, corr)
        assert cert.rect_index == -1
        assert cert.piece_indices[0] < 0
        assert cert.piece_indices[1] >= 0
        assert len(cert.interstice_indices) == 6
        assert all(v >= 0 for v in cert.interstice_indices)
        assert cert.cutting_index == 0
        assert cert.rect_index == cert.piece_sum + cert.interstice_sum

    def test_empty_packings_degenerate_report(self):
        first, second, _ = one_piece_pair()
        bare_a = PackingSpec(first.rect, ())
        bare_b = PackingSpec(second.rect, ())
        cert = assemble_theorem_certificate(bare_a, bare_b, [])
        assert cert.degenerate
        assert cert.rect_index == -1
        assert cert.cutting_index is None
        assert cert.piece_indices == ()

    def test_bare_frames_with_a_fixed_point_are_rejected(self):
        bare = PackingSpec(one_piece_pair()[0].rect, ())
        with pytest.raises(HypothesesNotMet) as caught:
            assemble_theorem_certificate(bare, bare, [])
        assert str(caught.value) == ("frame corner map rejected: "
                                     "correspondence is the identity on the "
                                     "boundary")

    def test_certificate_survives_affine_image(self):
        first, second, corr = one_piece_pair()
        m = AffineMap(F(3), F(0), F(1), F(2))
        cert = assemble_theorem_certificate(
            mapped_packing(first, m), mapped_packing(second, m), corr)
        assert cert.rect_index == -1
        assert cert.piece_indices == (-1,)
        assert cert.rect_index == cert.piece_sum + cert.interstice_sum


def bends(source, target, phi) -> set:
    """Where the map can bend: its breakpoints, the source's vertices and
    the preimages of the target's vertices."""
    n, m, inverse = len(source), len(target), phi.invert()
    return ({s for s, _ in phi.breakpoints} | {F(i, n) for i in range(n)}
            | {inverse.evaluate(F(j, m)) for j in range(m)})


def arc_pairs(source, target, phi, refined, host, mate, tail_pt, head_pt,
              piece_side):
    """An interstice map restricted to one host arc, in host and mate
    parameters and ordered along the host. Interstice boundaries run along
    piece arcs backward, so those restrictions are flipped at the end."""
    start_pt, end_pt = (head_pt, tail_pt) if piece_side else (tail_pt, head_pt)
    s_start, s_end = source.locate_param(start_pt), source.locate_param(end_pt)
    span = (s_end - s_start) % 1
    inside = sorted((q for q in refined if 0 < (q - s_start) % 1 < span),
                    key=lambda q: (q - s_start) % 1)
    pairs = [(host.locate_param(point_at(source, q)),
              mate.locate_param(point_at(target, phi.evaluate(q))))
             for q in (s_start, *inside, s_end)]
    return pairs[::-1] if piece_side else pairs


def host_map(runs) -> PLCorrespondence:
    """Per-arc restrictions joined at their shared ends into one map."""
    chain = []
    for run in sorted(runs, key=lambda r: r[0][0]):
        assert not chain or chain[-1] == run[0]
        chain.extend(run if not chain else run[1:])
    assert chain[0] == chain.pop()
    base = min(range(len(chain)), key=lambda k: chain[k][0])
    return PLCorrespondence(tuple(chain[base:] + chain[:base]))


def reference_host_maps(first, second, corr, inter_calls):
    """Piece maps, then the frame map, restricted arc by arc from the
    interstice maps (source, target, phi), one per interstice in order."""
    analysis = first.analysis
    face_of = {step: fid for fid in analysis.interstices
               for step in analysis.faces[fid].cycle}
    inter = {}
    for fid, (source, target, phi) in zip(analysis.interstices, inter_calls):
        assert source.loop == analysis.faces[fid].polygon
        inter[fid] = (source, target, phi, bends(source, target, phi))

    def restricted(host, mate, labels):
        runs = []
        for arc in analysis.arcs:
            if arc.host in labels:
                piece_side = isinstance(arc.host, int)
                runs.append(arc_pairs(
                    *inter[face_of[arc.aid, not piece_side]], host, mate,
                    analysis.nodes[arc.tail].point,
                    analysis.nodes[arc.head].point, piece_side))
        return host_map(runs)

    maps = [(piece, restricted(piece, second.pieces[corr[i]], {i}))
            for i, piece in enumerate(first.pieces)]
    maps.append((first.rect.curve, restricted(
        first.rect.curve, second.rect.curve, set(packing.SIDES))))
    return maps


class TestCarriedHostMaps:
    """Every piece and frame map the certificate builds has the breakpoints
    of the interstice maps restricted arc by arc and joined at the contact
    points."""

    def cases(self):
        rng = random.Random(1515)
        for first, second, corr in (one_piece_pair(), two_piece_pair(),
                                    bent_one_piece_pair()):
            yield first, second, corr
            for _ in range(2):
                shift = pt(F(rng.randrange(-60, 61), rng.randrange(1, 9)),
                           F(rng.randrange(-60, 61), rng.randrange(1, 9)))
                yield (translate_packing(first, shift),
                       translate_packing(second, shift), corr)
        m = AffineMap(F(2), F(1), F(0), F(3), F(5), F(-7))
        first, second, corr = two_piece_pair()
        yield mapped_packing(first, m), mapped_packing(second, m), corr

    def test_host_maps_match_arc_by_arc_restriction(self, monkeypatch):
        calls = []
        index = packing.fixed_point_index

        def recorded(source, target, phi):
            calls.append((source, target, phi))
            return index(source, target, phi)

        monkeypatch.setattr(packing, "fixed_point_index", recorded)
        for first, second, corr in self.cases():
            calls.clear()
            cert = assemble_theorem_certificate(first, second, corr)
            # the frame corner map, one map per interstice, then the hosts
            count = len(cert.interstice_indices)
            hosts = calls[1 + count:]
            want = reference_host_maps(first, second, corr,
                                       calls[1:1 + count])
            assert len(hosts) == len(first.pieces) + 1 == len(want)
            for (source, _, phi), (host, ref) in zip(hosts, want):
                assert source is host
                assert phi.breakpoints == ref.breakpoints
