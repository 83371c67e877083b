"""Direct probes of layers too hot to wrap in spans.

A scan yields tens of thousands of id-triples per query and a spatial
join calls a predicate per candidate pair; a Python wrapper around each
would measure the wrapper. Those layers are timed here by calling
their public functions in a loop, on inputs lifted from the workload's
own data (its graph, its WKT literals, its mappings). Each probe
reports a rate or a per-call time; a workload without the input (a
plain graph has no geometries) reports 0.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter
from typing import Dict, List

from repro.geometry import STRtree, wkt_loads
from repro.geometry import ops as geo_ops
from repro.geotriples import row_triples
from repro.rdf import Graph
from repro.rdf.namespace import GEO

MAX_TRIPLES = 50_000
MAX_TRACED_TRIPLES = 10_000
MAX_GEOMETRIES = 4_000
MAX_PAIRS = 20_000
LOOKUPS = 2_000


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def rdf_probes(graph: Graph) -> Dict[str, float]:
    dictionary = graph.dictionary
    predicate_ids = [dictionary.lookup(p) for p in graph.predicates()]

    start = perf_counter()
    rows = 0
    for p in predicate_ids:
        for __ in graph.triples_ids((None, p, None)):
            rows += 1
    scan_s = perf_counter() - start

    start = perf_counter()
    batch_rows = 0
    for p in predicate_ids:
        for batch in graph.scan_batches((None, p, None)):
            batch_rows += len(batch) // 3
    batch_s = perf_counter() - start

    term_ids = list(range(1, min(len(dictionary), MAX_TRIPLES) + 1))
    start = perf_counter()
    decoded = dictionary.decode_batch(term_ids)
    decode_s = perf_counter() - start

    subject_ids = [s for s, __, __ in graph.triples_ids((None, None, None))]
    step = max(1, len(subject_ids) // LOOKUPS)
    subjects = subject_ids[::step][:LOOKUPS]
    start = perf_counter()
    for s in subjects:
        list(graph.triples_ids((s, None, None)))
    lookup_s = perf_counter() - start

    triples = []
    for triple in graph:
        triples.append(triple)
        if len(triples) >= MAX_TRIPLES:
            break
    copy = Graph()
    start = perf_counter()
    for triple in triples:
        copy.add(triple)
    add_s = perf_counter() - start
    stored = len(copy)

    # Bytes the indexes and dictionary of a graph allocate per triple
    # (terms themselves are shared with the source graph). Counted by
    # tracemalloc on a second, smaller copy: an allocation count repeats
    # exactly, a resident-set delta depends on what the heap freed before.
    sample = triples[:MAX_TRACED_TRIPLES]
    tracemalloc.start()
    traced_copy = Graph()
    for triple in sample:
        traced_copy.add(triple)
    allocated = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()

    return {
        "rdf.scan_rows_per_s": rate(rows, scan_s),
        "rdf.scan_batch_rows_per_s": rate(batch_rows, batch_s),
        "rdf.decode_terms_per_s": rate(len(decoded), decode_s),
        "rdf.add_triples_per_s": rate(stored, add_s),
        "rdf.lookup_us":
            lookup_s / len(subjects) * 1e6 if subjects else 0.0,
        "rdf.bytes_per_triple":
            allocated / len(traced_copy) if sample else 0.0,
    }


def geometry_probes(graph: Graph) -> Dict[str, float]:
    out = {"geometry.wkt_loads_per_s": 0.0, "geometry.rtree_build_ms": 0.0,
           "geometry.rtree_query_us": 0.0,
           "geometry.predicate_pairs_per_s": 0.0}
    texts: List[str] = []
    for literal in graph.objects(predicate=GEO.asWKT):
        texts.append(literal.lexical)
        if len(texts) >= MAX_GEOMETRIES:
            break
    if not texts:
        return out

    start = perf_counter()
    geometries = [wkt_loads(text) for text in texts]
    out["geometry.wkt_loads_per_s"] = rate(len(texts),
                                           perf_counter() - start)

    start = perf_counter()
    tree = STRtree(geometries, bbox_of=lambda g: g.bounds)
    out["geometry.rtree_build_ms"] = (perf_counter() - start) * 1e3

    step = max(1, len(geometries) // 500)
    probes = geometries[::step]
    start = perf_counter()
    hits = [tree.query(probe.bounds) for probe in probes]
    out["geometry.rtree_query_us"] = \
        (perf_counter() - start) / len(probes) * 1e6

    pairs = [(probe, candidate) for probe, found in zip(probes, hits)
             for candidate in found][:MAX_PAIRS]
    start = perf_counter()
    for a, b in pairs:
        geo_ops.intersects(a, b)
    out["geometry.predicate_pairs_per_s"] = rate(len(pairs),
                                                 perf_counter() - start)
    return out


def geotriples_probes(case_study) -> Dict[str, float]:
    """Mapping alone: rows -> triples, nothing inserted."""
    if case_study is None:
        return {"geotriples.row_triples_per_s": 0.0}
    work = [(tmap, list(tmap.logical_source.rows()))
            for tmap in case_study.vector_triples_maps()]
    start = perf_counter()
    triples = 0
    for tmap, rows in work:
        for row in rows:
            triples += len(row_triples(tmap, row))
    return {"geotriples.row_triples_per_s":
            rate(triples, perf_counter() - start)}


def run_all(workload) -> Dict[str, float]:
    out = rdf_probes(workload.probe_graph)
    out.update(geometry_probes(workload.probe_graph))
    out.update(geotriples_probes(workload.case_study))
    return out
