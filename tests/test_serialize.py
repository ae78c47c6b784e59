"""JSON loaders and dumpers: round trips and rejection of malformed input."""
from fractions import Fraction

import pytest

from fpindex.errors import InputRejection
from fpindex.serialize import (
    dump_map,
    fraction_to_json,
    load_curve,
    load_map,
    load_packing,
    load_piece_correspondence,
)

from packfix import curve, dump_curve, dump_packing, one_piece_pair

F = Fraction


class TestFractions:
    def test_to_json_is_an_integer_pair(self):
        assert fraction_to_json(F(3, 4)) == [3, 4]
        assert fraction_to_json(F(-5)) == [-5, 1]


class TestCurves:
    def test_round_trip(self):
        original = curve((0, 0), (4, 0), (4, 4), (0, 4))
        again = load_curve(dump_curve(original))
        assert again.vertices == original.vertices

    def test_rejects_missing_vertices(self):
        with pytest.raises(InputRejection):
            load_curve({"points": []})

    def test_rejects_short_rows(self):
        with pytest.raises(InputRejection):
            load_curve({"vertices": [[0, 1, 0], [1, 1, 0, 1]]})

    def test_rejects_zero_denominator_row(self):
        with pytest.raises(InputRejection):
            load_curve({"vertices": [[0, 0, 0, 1], [1, 1, 0, 1],
                                     [1, 1, 1, 1]]})

    def test_rejects_self_intersecting(self):
        bowtie = {"vertices": [[0, 1, 0, 1], [2, 1, 2, 1], [2, 1, 0, 1],
                               [0, 1, 2, 1]]}
        with pytest.raises(InputRejection):
            load_curve(bowtie)


class TestMaps:
    def test_round_trip(self):
        obj = {"breakpoints": [[0, 1, 1, 8], [1, 4, 3, 8], [1, 2, 5, 8],
                               [3, 4, 7, 8]]}
        assert dump_map(load_map(obj)) == obj

    def test_rejects_non_monotone(self):
        with pytest.raises(InputRejection):
            load_map({"breakpoints": [[1, 2, 0, 1], [1, 4, 1, 2]]})


class TestPackings:
    def test_round_trip(self):
        spec, _, _ = one_piece_pair()
        again = load_packing(dump_packing(spec))
        assert again.rect.corners == spec.rect.corners
        assert again.rect.curve.vertices == spec.rect.curve.vertices
        assert len(again.pieces) == 1
        assert again.pieces[0].vertices == spec.pieces[0].vertices

    def test_rejects_missing_rect(self):
        with pytest.raises(InputRejection):
            load_packing({"pieces": []})

    def test_rejects_bad_corners(self):
        spec, _, _ = one_piece_pair()
        obj = dump_packing(spec)
        obj["rect"]["corners"] = [0, 2, 4]
        with pytest.raises(InputRejection):
            load_packing(obj)


class TestCorrespondence:
    def test_bare_list_and_wrapped(self):
        assert load_piece_correspondence([1, 0]) == [1, 0]
        assert load_piece_correspondence({"correspondence": [0]}) == [0]

    def test_rejects_non_integers(self):
        with pytest.raises(InputRejection):
            load_piece_correspondence([0, "1"])
        with pytest.raises(InputRejection):
            load_piece_correspondence({"correspondence": None})
