"""Filter-verify pushdown: the bbox prefilter ahead of the exact predicate.

For a virtual-table source Ontop emits
``WHERE ST_MBR_INTERSECTS("loc", ...) AND ST_<rel>("loc", '<wkt>')``.
These tests pin that the prefilter never changes an answer, that the
exact predicate only sees rows the prefilter kept, and the SQL shape of
every pushdown branch.
"""

import random
from collections import Counter
from datetime import date

import pytest

from repro.geometry import ops as geo_ops
from repro.geometry import wkt_dumps, wkt_loads
from repro.madis import MadisConnection
from repro.madis.udfs import _binary_predicate
from repro.ontop import OntopSpatial, make_opendap_endpoint
from repro.ontop.obda import _SQL_RELATIONS
from repro.opendap import ServerRegistry
from repro.vito import (
    GlobalLandArchive,
    LAI_SPEC,
    MepDeployment,
    dekad_dates,
    generate_product,
)

URL = "dap://vito.test/Copernicus/LAI"

PREFIX = """
PREFIX lai: <http://www.app-lab.eu/lai/>
PREFIX geo: <http://www.opengis.net/ont/geosparql#>
PREFIX geof: <http://www.opengis.net/def/function/geosparql/>
"""


@pytest.fixture(scope="module")
def endpoint():
    archive = GlobalLandArchive()
    for day in dekad_dates(date(2018, 6, 1), 1):
        archive.publish("LAI", day, 0,
                        generate_product(LAI_SPEC, day, cloud_fraction=0.05))
    mep = MepDeployment(archive, host="vito.test")
    mep.mount_product("LAI")
    registry = ServerRegistry()
    registry.register(mep.server)
    engine, __, conn = make_opendap_endpoint(registry, URL)
    return engine, conn


def _box(minx, miny, maxx, maxy):
    return (f"POLYGON (({minx} {miny}, {maxx} {miny}, {maxx} {maxy}, "
            f"{minx} {maxy}, {minx} {miny}))")


def _windows(cells, seed=7, n=6):
    """Seeded windows over the grid: edges on cell coordinates (as the
    VT writes them), edges just off a cell (inside the exact predicates'
    tolerance, and below the pushed WKT's 10 decimals), a zero-width
    box, a point, off-grid boxes."""
    rng = random.Random(seed)
    xs = sorted({x for x, __ in cells})
    ys = sorted({y for __, y in cells})
    windows = []
    for __ in range(n):
        x0, x1 = sorted(rng.sample(xs, 2))
        y0, y1 = sorted(rng.sample(ys, 2))
        windows.append(_box(x0, y0, x1, y1))
    for offset in (5e-10, 4e-11, 5e-13):
        windows.append(_box(x0 + offset, y0 + offset,
                            x1 - offset, y1 - offset))
    for __ in range(2):
        x0, x1 = sorted(rng.uniform(xs[0], xs[-1]) for __ in range(2))
        y0, y1 = sorted(rng.uniform(ys[0], ys[-1]) for __ in range(2))
        windows.append(_box(x0, y0, x1, y1))
    x = rng.choice(xs)
    y0, y1 = sorted(rng.sample(ys, 2))
    # zero width (a ring needs three distinct vertices, so a segment)
    windows.append(f"LINESTRING ({x} {y0}, {x} {y1})")
    cx, cy = rng.choice(cells)
    windows.append("POINT (%r %r)" % (cx, cy))
    for offset in (5e-10, 5e-13):
        windows.append("POINT (%r %r)" % (cx + offset, cy - offset))
    return windows


def _cells(conn, source):
    rows = conn.execute(f'SELECT DISTINCT loc FROM ({source})')
    return [wkt_loads(r["loc"]).bounds[:2] for r in rows]


def _bag(rows):
    return sorted(tuple(row) for row in rows)


def test_prefilter_never_changes_the_answer(endpoint):
    engine, conn = endpoint
    source = engine.mappings[0].source_sql
    windows = _windows(_cells(conn, source))
    kept = 0
    for window in windows:
        geometry = wkt_loads(window)
        const = wkt_dumps(geometry)
        for sql_fn in _SQL_RELATIONS.values():
            prefiltered = engine._wrap_sql(source, "loc", sql_fn, const,
                                           geometry)
            assert "ST_MBR_INTERSECTS" in prefiltered
            exact_only = (f"SELECT * FROM ({source}) "
                          f"WHERE {sql_fn}(\"loc\", '{const}')")
            expected = _bag(conn.execute(exact_only))
            assert _bag(conn.execute(prefiltered)) == expected, \
                (sql_fn, window)
            kept += len(expected)
    assert kept > 0  # the windows do select cells


def test_exact_predicate_sees_only_prefiltered_rows(endpoint):
    engine, __ = endpoint
    conn = engine.conn
    source = engine.mappings[0].source_sql
    within = _binary_predicate(geo_ops.within)
    seen = []

    def counting_within(a, b):
        seen.append(a)
        return within(a, b)

    conn.register_function("ST_WITHIN", 2, counting_within)
    try:
        res = engine.query(PREFIX + """
            SELECT ?s WHERE {
              ?s lai:lai ?l ; geo:hasGeometry ?g .
              ?g geo:asWKT ?w .
              FILTER(geof:sfWithin(?w,
                "POLYGON ((2.2 48.8, 2.3 48.8, 2.3 48.9, 2.2 48.9, 2.2 48.8))"^^geo:wktLiteral))
            }""")
        sql = engine.last_sql[0]
        prefilter = sql[sql.index("ST_MBR_INTERSECTS"):sql.index(" AND ST_")]
        passing = Counter(
            r["loc"] for r in conn.execute(
                f"SELECT loc FROM ({source}) WHERE {prefilter}"))
        total = len(conn.execute(f"SELECT loc FROM ({source})"))
    finally:
        conn.register_function("ST_WITHIN", 2, within)
    assert len(res) > 0
    assert 0 < len(seen) < total
    assert not Counter(seen) - passing, "exact ran on a rejected row"


def test_vt_branch_puts_the_prefilter_first(endpoint):
    engine, __ = endpoint
    engine.query(PREFIX + """
        SELECT ?s WHERE {
          ?s lai:lai ?l ; geo:hasGeometry ?g .
          ?g geo:asWKT ?w .
          FILTER(geof:sfIntersects(?w,
            "POLYGON ((2.2 48.8, 2.3 48.8, 2.3 48.9, 2.2 48.9, 2.2 48.8))"^^geo:wktLiteral))
        }""")
    (sql,) = engine.last_sql
    where = sql.rsplit(") WHERE ", 1)[1]
    assert where.startswith('ST_MBR_INTERSECTS("loc", ')
    assert where.index("ST_MBR_INTERSECTS") < where.index("ST_INTERSECTS(")
    bounds = where[len('ST_MBR_INTERSECTS("loc", '):where.index(")")]
    minx, miny, maxx, maxy = (float(v) for v in bounds.split(", "))
    # widened by at least twice the exact predicates' tolerance
    margin = 2 * geo_ops._EPS
    assert 2.2 - 1e-6 < minx <= 2.2 - margin
    assert 48.9 + margin <= maxy < 48.9 + 1e-6


def test_disjoint_is_never_pushed(endpoint):
    engine, __ = endpoint
    res = engine.query(PREFIX + """
        SELECT ?s WHERE {
          ?s lai:lai ?l ; geo:hasGeometry ?g .
          ?g geo:asWKT ?w .
          FILTER(geof:sfDisjoint(?w,
            "POLYGON ((2.2 48.8, 2.3 48.8, 2.3 48.9, 2.2 48.9, 2.2 48.8))"^^geo:wktLiteral))
        }""")
    assert len(res) > 0
    assert engine.last_sql
    for sql in engine.last_sql:
        assert "ST_DISJOINT" not in sql
        assert "ST_MBR_INTERSECTS" not in sql


def test_rtree_branch_sql_is_unchanged():
    conn = MadisConnection()
    conn.executescript("CREATE TABLE parks (id INTEGER, wkt TEXT);")
    conn.execute("INSERT INTO parks VALUES (1, 'POINT (1 1)')")
    engine = OntopSpatial(conn, [])
    index = engine.register_spatial_index("parks", "wkt")
    window = wkt_loads(_box(0.5, 0.25, 2, 3))
    sql = engine._wrap_sql("SELECT id, wkt FROM parks WHERE id > 0",
                           "wkt", "ST_WITHIN", wkt_dumps(window), window)
    assert sql == (
        f'SELECT id, wkt FROM "parks" WHERE "parks".rowid IN '
        f"(SELECT id FROM {index} WHERE minx <= 2.0 AND maxx >= 0.5 "
        f"AND miny <= 3.0 AND maxy >= 0.25) AND "
        f"ST_WITHIN(\"wkt\", '{wkt_dumps(window)}') AND id > 0"
    )
