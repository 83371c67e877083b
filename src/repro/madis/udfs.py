"""Default MadIS user-defined functions.

Spatial UDFs operate on WKT text (matching how geometry columns travel
through the SQL layer) and are the target of Ontop-spatial's filter
pushdown: a GeoSPARQL ``geof:sfIntersects`` becomes ``ST_INTERSECTS``
in the generated SQL, behind an ``ST_MBR_INTERSECTS`` bounding-box
prefilter that rejects most rows without parsing their WKT.
"""

from __future__ import annotations

import math
import re
from datetime import timedelta
from typing import TYPE_CHECKING

from ..geometry import ops as geo_ops
from ..geometry import wkt_dumps, wkt_loads
from ..opendap.model import parse_time_units

if TYPE_CHECKING:  # pragma: no cover
    from .engine import MadisConnection


def _geom(wkt_text):
    if wkt_text is None:
        return None
    return wkt_loads(wkt_text)


def _binary_predicate(fn):
    # Pushed-down SQL passes the same constant as *b* on every row;
    # sqlite hands each call a fresh str, so the memo compares by value.
    # One (text, geometry) tuple, read and replaced whole, so a call on
    # another thread never pairs one text with another's geometry.
    memo = (None, None)

    def impl(a, b):
        nonlocal memo
        ga = _geom(a)
        text, gb = memo
        if b != text:
            gb = _geom(b)
            memo = (b, gb)
        if ga is None or gb is None:
            return None
        return int(fn(ga, gb))

    return impl


#: ``POINT (x y)`` with plain decimal ordinates: the text the OPeNDAP
#: virtual table writes. Anything else takes the WKT parser. At most
#: 308 integer digits keep the float finite, as the parser requires.
_PLAIN_POINT = re.compile(
    r"POINT \((-?(?:[0-9]{1,308}(?:\.[0-9]*)?|\.[0-9]+)) "
    r"(-?(?:[0-9]{1,308}(?:\.[0-9]*)?|\.[0-9]+))\)"
)


def st_mbr_intersects(a, minx, miny, maxx, maxy):
    """1 unless *a*'s bounding box is provably disjoint from the given box.

    The filter half of filter-verify: an exact predicate that implies
    intersection runs only on rows this keeps. Edges count as meeting.
    Malformed text raises as the exact predicate would.
    """
    if a is None:
        return None
    m = _PLAIN_POINT.fullmatch(a)
    if m is not None:
        x, y = m.groups()
        x, y = float(x), float(y)
        return int(minx <= x <= maxx and miny <= y <= maxy)
    gminx, gminy, gmaxx, gmaxy = wkt_loads(a).bounds
    return int(gminx <= maxx and gmaxx >= minx
               and gminy <= maxy and gmaxy >= miny)


def st_point(lon, lat) -> str:
    return f"POINT ({float(lon):g} {float(lat):g})"


def st_distance(a, b):
    ga, gb = _geom(a), _geom(b)
    if ga is None or gb is None:
        return None
    return geo_ops.distance(ga, gb)


def st_area(a):
    g = _geom(a)
    return None if g is None else geo_ops.area(g)


def st_buffer(a, radius):
    g = _geom(a)
    return None if g is None else wkt_dumps(geo_ops.buffer(g, float(radius)))


def st_envelope(a):
    g = _geom(a)
    return None if g is None else wkt_dumps(geo_ops.envelope(g))


def st_centroid(a):
    g = _geom(a)
    return None if g is None else wkt_dumps(geo_ops.centroid(g))


def cf_datetime(value, units) -> str:
    """Convert a CF numeric time to an ISO 8601 UTC string.

    This is the conversion the paper describes for the ``ts`` column:
    "in the original dataset times are given as numeric values and their
    meaning is explained in the metadata ... the Opendap virtual table
    operator converts these values to a standard format".
    """
    step, epoch = parse_time_units(units)
    moment = epoch + timedelta(seconds=float(value) * step)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


class Median:
    """Aggregate: exact median."""

    def __init__(self):
        self.values = []

    def step(self, value):
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        if not self.values:
            return None
        values = sorted(self.values)
        n = len(values)
        mid = n // 2
        if n % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2.0


class StdDev:
    """Aggregate: population standard deviation."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def step(self, value):
        if value is None:
            return
        self.n += 1
        delta = float(value) - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (float(value) - self.mean)

    def finalize(self):
        if self.n == 0:
            return None
        return math.sqrt(self.m2 / self.n)


def register_default_udfs(conn: "MadisConnection") -> None:
    conn.register_function("ST_POINT", 2, st_point)
    conn.register_function(
        "ST_INTERSECTS", 2, _binary_predicate(geo_ops.intersects)
    )
    conn.register_function(
        "ST_CONTAINS", 2, _binary_predicate(geo_ops.contains)
    )
    conn.register_function("ST_WITHIN", 2, _binary_predicate(geo_ops.within))
    conn.register_function(
        "ST_TOUCHES", 2, _binary_predicate(geo_ops.touches)
    )
    conn.register_function(
        "ST_DISJOINT", 2, _binary_predicate(geo_ops.disjoint)
    )
    conn.register_function(
        "ST_OVERLAPS", 2, _binary_predicate(geo_ops.overlaps)
    )
    conn.register_function(
        "ST_CROSSES", 2, _binary_predicate(geo_ops.crosses)
    )
    conn.register_function("ST_EQUALS", 2, _binary_predicate(geo_ops.equals))
    conn.register_function("ST_MBR_INTERSECTS", 5, st_mbr_intersects)
    conn.register_function("ST_DISTANCE", 2, st_distance)
    conn.register_function("ST_AREA", 1, st_area)
    conn.register_function("ST_BUFFER", 2, st_buffer)
    conn.register_function("ST_ENVELOPE", 1, st_envelope)
    conn.register_function("ST_CENTROID", 1, st_centroid)
    conn.register_function("CF_DATETIME", 2, cf_datetime)
    conn.register_aggregate("MEDIAN", 1, Median)
    conn.register_aggregate("STDDEV", 1, StdDev)
