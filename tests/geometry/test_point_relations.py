"""Every simple-features relation ends with a bool, points included.

Point/point containment used to recurse through ``ops.equals`` until
``RecursionError``; the leaf now asks ``intersects``, so for points
``equals``, ``within``, ``contains`` and ``intersects`` agree.
"""

import itertools

import pytest

from repro.geometry import Point, ops, wkt_loads
from repro.madis import MadisConnection
from repro.rdf import GEO, GEO_WKT_LITERAL, IRI, Literal
from repro.strabon import StrabonStore

SHAPES = {
    "Point": "POINT (1 1)",
    "LineString": "LINESTRING (0 0, 2 2)",
    "Polygon": "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))",
    "MultiPoint": "MULTIPOINT ((1 1), (3 3))",
    "MultiPolygon": "MULTIPOLYGON (((0 0, 2 0, 2 2, 0 2, 0 0)), "
                    "((3 3, 4 3, 4 4, 3 4, 3 3)))",
}
RELATIONS = ("equals", "disjoint", "intersects", "touches", "within",
             "contains", "overlaps", "crosses")


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("a, b", list(itertools.product(SHAPES, repeat=2)))
def test_relation_returns_a_bool(relation, a, b):
    result = getattr(ops, relation)(wkt_loads(SHAPES[a]), wkt_loads(SHAPES[b]))
    assert isinstance(result, bool)


@pytest.mark.parametrize("a, b, equal", [
    ("POINT (1 1)", "POINT (1 1)", True),
    ("POINT (1 1)", "POINT (1 2)", False),
    ("POINT (1 1)", "MULTIPOINT ((1 1))", True),
    ("MULTIPOINT ((1 1), (2 2))", "MULTIPOINT ((2 2), (1 1))", True),
    ("MULTIPOINT ((1 1), (2 2))", "POINT (1 1)", False),
])
def test_point_equality(a, b, equal):
    ga, gb = wkt_loads(a), wkt_loads(b)
    assert ops.equals(ga, gb) is equal
    assert ops.equals(gb, ga) is equal


@pytest.mark.parametrize("dx, same", [
    (0.0, True), (5e-13, True), (5e-10, False), (1.0, False),
])
def test_point_relations_agree_near_equality(dx, same):
    a, b = Point(1.0, 1.0), Point(1.0 + dx, 1.0)
    for relation in ("equals", "within", "contains", "intersects"):
        assert getattr(ops, relation)(a, b) is same, relation


def test_sf_equals_on_point_literals_through_strabon():
    store = StrabonStore("points")
    store.add(IRI("http://example.org/g"), GEO.asWKT,
              Literal("POINT (2.35 48.85)", datatype=GEO_WKT_LITERAL))
    res = store.query("""
        PREFIX geo: <http://www.opengis.net/ont/geosparql#>
        PREFIX geof: <http://www.opengis.net/def/function/geosparql/>
        SELECT ?g ?same ?other WHERE {
          ?g geo:asWKT ?w .
          BIND(geof:sfEquals(?w,
               "POINT (2.35 48.85)"^^geo:wktLiteral) AS ?same)
          BIND(geof:sfEquals(?w,
               "POINT (2.35 48.86)"^^geo:wktLiteral) AS ?other)
        }""")
    (row,) = res.rows
    assert row["same"].lexical == "true"
    assert row["other"].lexical == "false"


def test_st_equals_on_points_through_madis():
    with MadisConnection() as conn:
        row = conn.execute(
            "SELECT ST_EQUALS('POINT (1 1)', 'POINT (1 1)') AS same, "
            "ST_EQUALS('POINT (1 1)', 'POINT (1 2)') AS other")[0]
    assert (row["same"], row["other"]) == (1, 0)
