"""The package's value types against the frozen dataclasses they replaced.

Each class made by `exact_geom.value_type` must compare, hash and repr as
its frozen-dataclass twin in `twins.py` does: sets of points are iterated in
`packing`, and `scripts/kernel_dump.py` writes reprs. The instances are what
the package builds on seeded draws.
"""
import dataclasses
import importlib
import random
from functools import lru_cache

import pytest

from fpindex import exact_geom
from fpindex.exact_geom import MeetKind, Segment, SegmentMeeting
from fpindex.jordan import build_arrangement, check_transverse
from fpindex.packing import (
    assemble_theorem_certificate,
    check_overlay_transverse,
    validate_packing,
)
from fpindex.plmap import glue, random_correspondence
from fpindex.prescribe import prescribe
from fpindex.torus import build_diagram, realize_path

from geomgen import (
    abstract_diagram,
    find_doubly_adjacent,
    glued_square_fixture,
    random_transverse_pair,
    straight_path,
    synthesize_constraints,
)
from packfix import one_piece_pair, two_piece_pair
from twins import TWINS

SEEDS = (11, 12, 13)
MODULES = ("exact_geom", "jordan", "packing", "plmap", "prescribe", "torus")
# `__init__` arguments that are not fields
INIT_ONLY = {"OverlayReport": ("crossing_sets",)}


@lru_cache(maxsize=None)
def samples(seed: int) -> dict[str, list]:
    """Two or more instances of every value type, drawn from the seed."""
    rng = random.Random(seed)
    first, second, crossings = random_transverse_pair(
        rng, min_crossings=4, max_crossings=8)
    phi = random_correspondence(rng, rng.randrange(3, 8))
    diagram = build_diagram(first, second, crossings,
                            synthesize_constraints(crossings, phi, rng))
    path, trace = prescribe(diagram)
    p, q = first.vertices[:2]
    pack_a, pack_b, corr = (one_piece_pair, two_piece_pair)[seed % 2]()
    return {
        "RatPoint": [p, q, crossings.crossings[0].point],
        "Segment": [Segment(p, q), Segment(q, p)],
        "SegmentMeeting": [SegmentMeeting(MeetKind.EMPTY),
                           SegmentMeeting(MeetKind.PROPER, p),
                           SegmentMeeting(MeetKind.PROPER, q),
                           SegmentMeeting(MeetKind.DEGENERATE)],
        "PLLoop": [first.loop, second.loop],
        "PolyJordanCurve": [first, second],
        "Crossing": list(crossings.crossings[:3]),
        "CrossingSet": [crossings, check_transverse(second, first)],
        "ArrangementFace": build_arrangement(first, second, crossings)[:3],
        "PLCorrespondence": [phi, phi.invert()],
        "GluedMap": [glue(*glued_square_fixture(rng)),
                     glue(*glued_square_fixture(rng))],
        "TorusDiagram": [diagram, abstract_diagram(
            diagram.col_order, diagram.row_order, dict(diagram.kinds))],
        "StaircasePath": [path, straight_path(diagram)],
        "AdjacencyBox": find_doubly_adjacent(diagram)[:2],
        "TraceLevel": list(trace.levels[:3]),
        "PrescriptionTrace": [trace],
        "TopoRectangle": [pack_a.rect, pack_b.rect],
        "PackingSpec": [pack_a, pack_b],
        "ContactGraph": [validate_packing(pack_a)[1],
                         validate_packing(pack_b)[1]],
        "OverlayReport": [check_overlay_transverse(pack_a, pack_b)],
        "TheoremCertificate": [assemble_theorem_certificate(pack_a, pack_b,
                                                            corr)],
        "_Node": list(pack_a.analysis.nodes[:3]),
        "_Arc": list(pack_a.analysis.arcs[:3]),
        "_Face": list(pack_a.analysis.faces[:3]),
        "_Analysis": [pack_a.analysis, pack_b.analysis],
    }


def values(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj)._fields}


def twin(obj):
    return TWINS[type(obj).__name__](**values(obj))


def instances(name: str) -> list:
    """Every seed's samples of one class."""
    return [obj for seed in SEEDS for obj in samples(seed)[name]]


VALUE_TYPES = {
    obj.__name__: obj for module in MODULES
    for obj in vars(importlib.import_module(f"fpindex.{module}")).values()
    if (isinstance(obj, type) and obj.__module__ == f"fpindex.{module}"
        and obj.__setattr__ is exact_geom._no_setattr)}
# the classes that take `value_type`'s shared `__init__`
SHARED = sorted(name for name, cls in VALUE_TYPES.items()
                if cls.__init__.__qualname__ == "value_type.<locals>.__init__")


def test_every_value_type_has_a_twin_and_samples():
    assert set(VALUE_TYPES) == set(TWINS)
    assert len(VALUE_TYPES) == 24
    for seed in SEEDS:
        for name, objs in samples(seed).items():
            assert objs and all(type(obj).__name__ == name for obj in objs)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_eq_hash_and_repr_match_the_dataclass(name):
    objs = instances(name)
    objs += [type(obj)(**values(obj)) for obj in objs]  # equal, not identical
    twins = [twin(obj) for obj in objs]
    for obj, tw in zip(objs, twins):
        assert hash(obj) == hash(tw)
        assert repr(obj) == repr(tw)
    for a, ta in zip(objs, twins):
        for b, tb in zip(objs, twins):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_positional_and_keyword_construction_agree(name):
    for obj in instances(name):
        fields = values(obj)
        by_position = type(obj)(*fields.values())
        by_keyword = type(obj)(**fields)
        assert by_position == obj and by_keyword == obj
        assert repr(by_position) == repr(by_keyword) == repr(obj)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_argument_errors_match_the_dataclass(name):
    fields = values(instances(name)[0])
    first = next(iter(fields))
    extra = [None] * (1 + len(INIT_ONLY.get(name, ())))
    rest = {key: value for key, value in fields.items() if key != first}
    for cls in (VALUE_TYPES[name], TWINS[name]):
        with pytest.raises(TypeError):
            cls(*fields.values(), *extra)  # too many positionals
        with pytest.raises(TypeError):
            cls(**rest)  # a required field missing
        with pytest.raises(TypeError):
            cls(**fields, not_a_field=None)
        with pytest.raises(TypeError):
            cls(fields[first], **fields)  # by position and by keyword


@pytest.mark.parametrize("name", SHARED)
def test_shared_defaults_are_the_dataclass_defaults(name):
    assert getattr(VALUE_TYPES[name], "_defaults", {}) == {
        f.name: f.default for f in dataclasses.fields(TWINS[name])
        if f.default is not dataclasses.MISSING}


@pytest.mark.parametrize("name", ["ArrangementFace", "TheoremCertificate",
                                  "TraceLevel"])
def test_required_fields_alone_fill_the_defaults(name):
    cls = VALUE_TYPES[name]
    assert name in SHARED
    for obj in instances(name):
        required = {f.name: getattr(obj, f.name)
                    for f in dataclasses.fields(TWINS[name])
                    if f.default is dataclasses.MISSING}
        built, tw = cls(**required), TWINS[name](**required)
        assert values(built) == vars(tw)
        assert repr(built) == repr(tw) and hash(built) == hash(tw)
        assert cls(*required.values()) == built


@pytest.mark.parametrize("name", sorted(TWINS))
def test_never_equal_to_another_class(name):
    for obj in instances(name):
        tw = twin(obj)
        assert obj.__eq__(tw) is NotImplemented
        assert obj != tw and tw != obj
        assert obj != tuple(values(obj).values())


@pytest.mark.parametrize("name", sorted(TWINS))
def test_setting_or_deleting_raises(name):
    for obj in instances(name):
        before = repr(obj)
        for field, value in values(obj).items():
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert repr(obj) == before


def test_cached_values_are_computed_once():
    made = samples(SEEDS[0])
    loop = made["PLLoop"][0]
    diagram = made["TorusDiagram"][0]
    path = made["StaircasePath"][0]
    spec = made["PackingSpec"][0]
    for obj, attr in ((loop, "rows"), (loop, "edge_keys"), (diagram, "_ranks"),
                      (path, "points"), (spec, "analysis")):
        assert getattr(obj, attr) is getattr(obj, attr)
    # maps built trusted read their source parameters off the breakpoints
    # when first asked, and keep them
    for phi in (realize_path(diagram, path),
                made["PLCorrespondence"][0].invert()):
        assert "s_vals" not in vars(phi)
        assert phi.s_vals == tuple([s for s, _ in phi.breakpoints])
        assert vars(phi)["s_vals"] is phi.s_vals
