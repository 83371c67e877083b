"""ST_MBR_INTERSECTS (the pushdown's bbox prefilter) and the predicate memo."""

import pytest

from repro.geometry import ops as geo_ops
from repro.madis import MadisConnection
from repro.madis import udfs
from repro.madis.udfs import _binary_predicate, st_mbr_intersects

BOX = (0.0, 0.0, 2.0, 1.0)
WINDOW = "POLYGON ((0 0, 2 0, 2 1, 0 1, 0 0))"


@pytest.fixture
def conn():
    with MadisConnection() as c:
        yield c


@pytest.fixture
def parses(monkeypatch):
    """Count the WKT parses the UDFs make."""
    calls = []

    def counting_loads(text):
        calls.append(text)
        return real_loads(text)

    real_loads = udfs.wkt_loads
    monkeypatch.setattr(udfs, "wkt_loads", counting_loads)
    return calls


def _mbr(conn, value, box=BOX):
    return conn.execute("SELECT ST_MBR_INTERSECTS(?, ?, ?, ?, ?) AS hit",
                        (value, *box))[0]["hit"]


def test_null_gives_null(conn):
    assert _mbr(conn, None) is None


@pytest.mark.parametrize("wkt, hit", [
    ("POINT (1 0.5)", 1),
    ("POINT (2 1)", 1),            # corner: edges count as meeting
    ("POINT (-0.5 0.5)", 0),
    ("POINT (1 1.000001)", 0),
    ("POINT (-.5 .5)", 0),
])
def test_plain_points_take_the_fast_path(conn, parses, wkt, hit):
    assert _mbr(conn, wkt) == hit
    assert parses == []


@pytest.mark.parametrize("wkt, hit", [
    ("POLYGON ((3 3, 4 3, 4 4, 3 3))", 0),
    ("POLYGON ((2 1, 4 1, 4 4, 2 1))", 1),        # shares a corner
    ("POLYGON ((-1 -1, 5 -1, 5 5, -1 -1))", 1),   # covers the box
    ("LINESTRING (-1 2, 3 2)", 0),
    ("LINESTRING (-1 0.5, -0.5 3)", 0),
    ("LINESTRING (-1 0.5, 3 0.5)", 1),
])
def test_shapes_use_their_mbr(conn, parses, wkt, hit):
    assert _mbr(conn, wkt) == hit
    assert parses == [wkt]


def test_exponent_takes_the_fallback(parses):
    assert st_mbr_intersects("POINT (1e-05 2)", 0.0, 2.0, 1.0, 3.0) == 1
    assert st_mbr_intersects("POINT (1e-05 2)", 0.1, 2.0, 1.0, 3.0) == 0
    assert parses == ["POINT (1e-05 2)"] * 2


@pytest.mark.parametrize("wkt", ["POINT (nan 1)", "POINT (1_0 2)",
                                 "POINT (%s 1)" % ("9" * 309),
                                 "POINT EMPTY"])
def test_malformed_points_raise_like_the_exact_predicate(conn, parses, wkt):
    within = _binary_predicate(geo_ops.within)
    with pytest.raises(Exception) as exact:
        within(wkt, WINDOW)
    with pytest.raises(type(exact.value)) as prefilter:
        st_mbr_intersects(wkt, *BOX)
    assert str(prefilter.value) == str(exact.value)
    assert wkt in parses
    # and through SQL, where both surface as the same sqlite error
    with pytest.raises(Exception) as exact_sql:
        conn.execute("SELECT ST_WITHIN(?, ?)", (wkt, WINDOW))
    with pytest.raises(type(exact_sql.value)) as prefilter_sql:
        _mbr(conn, wkt)
    assert str(prefilter_sql.value) == str(exact_sql.value)


def test_predicate_parses_a_repeated_constant_once(conn, parses):
    conn.executescript("CREATE TABLE pts (wkt TEXT);")
    for i in range(10):
        conn.execute("INSERT INTO pts VALUES (?)", (f"POINT ({i} 0.5)",))
    rows = conn.execute(f"SELECT wkt FROM pts WHERE ST_WITHIN(wkt, '{WINDOW}')")
    assert [r["wkt"] for r in rows] == ["POINT (0 0.5)", "POINT (1 0.5)",
                                        "POINT (2 0.5)"]
    assert parses.count(WINDOW) == 1
    assert len(parses) == 11


def test_predicate_memo_follows_the_constant():
    within = _binary_predicate(geo_ops.within)
    other = "POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))"
    assert within("POINT (1 0.5)", WINDOW) == 1
    assert within("POINT (1 0.5)", other) == 0
    assert within("POINT (5.5 5.5)", other) == 1
    assert within("POINT (5.5 5.5)", WINDOW) == 0
    assert within("POINT (1 0.5)", None) is None
    assert within(None, WINDOW) is None
