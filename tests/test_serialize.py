"""JSON loaders and dumpers: round trips and rejection of malformed input."""
import copy
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fpindex.errors import InputRejection
from fpindex.serialize import (
    dump_map,
    fraction_to_json,
    load_constraints,
    load_curve,
    load_map,
    load_packing,
    load_piece_correspondence,
)

from packfix import (
    bent_one_piece_pair,
    curve,
    dump_curve,
    dump_packing,
    one_piece_pair,
    two_piece_pair,
)

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

    def test_rejects_pieces_that_are_not_a_list(self):
        obj = dump_packing(one_piece_pair()[0])
        obj["pieces"] = {"0": obj["pieces"][0]}
        with pytest.raises(InputRejection,
                           match=r"^packing\.pieces must be a list$"):
            load_packing(obj)

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


# -- fuzzing -------------------------------------------------------------------

# Valid objects for each loader, which the near-valid strategy mutates.
VALID = {
    load_curve: [dump_curve(curve((0, 0), (4, 0), (4, 4), (0, 4))),
                 dump_curve(bent_one_piece_pair()[0].pieces[0])],
    load_map: [{"breakpoints": [[0, 1, 1, 8], [1, 4, 3, 8], [1, 2, 5, 8],
                                [3, 4, 7, 8]]}],
    load_constraints: [{"constraints": [[0, 1, 1, 4], [1, 3, 1, 2],
                                        [2, 3, 3, 4]]}],
    load_packing: [dump_packing(one_piece_pair()[0]),
                   dump_packing(two_piece_pair()[1])],
    load_piece_correspondence: [[0], {"correspondence": [1, 0]}],
}

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=12), inner,
                                     max_size=4)),
    max_leaves=12)


def paths(value, here=()):
    """Every position in a JSON value, as the keys leading to it."""
    yield here
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield from paths(value[k], (*here, k))


@st.composite
def near_valid(draw, loader):
    """A valid object for the loader with one to three positions replaced
    by a small integer (most often, so that a coordinate, denominator or
    index stays plausible) or by any value, deleted, or doubled in a list."""
    value = copy.deepcopy(draw(st.sampled_from(VALID[loader])))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(paths(value))))
        if not where:
            value = draw(json_values)
            continue
        *up, last = where
        parent = value
        for k in up:
            parent = parent[k]
        action = draw(st.sampled_from(("int", "int", "int", "int", "value",
                                       "delete", "double")))
        if action == "int":
            parent[last] = draw(st.integers(-2, 8))
        elif action == "value":
            parent[last] = draw(json_values)
        elif action == "delete":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
    return value


@FUZZ
@given(data=st.data())
def test_fuzzed_loaders_load_or_reject(data):
    """Every loader returns a value or raises InputRejection, never another
    exception, on any JSON value and on near-valid objects."""
    loader = data.draw(st.sampled_from(list(VALID)))
    obj = data.draw(st.one_of(json_values, *[near_valid(loader)] * 3))
    try:
        loader(obj)
    except InputRejection:
        pass
