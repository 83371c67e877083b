"""Which public callables of ``repro`` get a boundary span, and the
counts taken at the same boundaries.

Span names are ``<layer>.<what>``; the layer is the ``src/repro``
package the callable lives in.
Graph scans and inserts are too hot to wrap (see ``probes.py``), so
time spent there shows up as self time of the ``sparql`` and
``geotriples`` spans that call them; of ``repro.rdf`` only the
serialisers and parsers get spans.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.geotriples import MappingProcessor
from repro.governance import AdmissionController
from repro.madis import MadisConnection, OpendapVTOperator
from repro.ontop import OntopSpatial
from repro.opendap.client import RemoteDataset
from repro.opendap.server import DapServer
from repro.rdf import Graph
from repro.rdf.namespace import GEOF
from repro.service import PlanCache, QueryService, ServiceAPI
from repro.sparql import PreparedQuery
from repro.sparql import functions as sparql_functions
from repro.sparql.federation import FederationEngine
from repro.strabon import StrabonStore

from spans import Recorder

#: layers that own at least one span, in request-path order
SPAN_LAYERS = ("service", "governance", "observability", "sparql", "rdf",
               "geometry", "strabon", "ontop", "madis", "opendap",
               "geotriples", "harness")


def install(recorder: Recorder, counts: Counter) -> None:
    """Wrap the boundaries; ``recorder.restore()`` undoes all of it."""

    def slot_release(slot, args) -> None:
        slot.release = recorder.wrap("governance.release", slot.release)

    def query_counts(result, args) -> None:
        plan = getattr(result, "plan", None)
        if plan is None:
            return
        counts["rows_out"] += len(result.rows)
        for node in plan.walk():
            counts["replans"] += node.replans
            if not node.children and node.actual_rows is not None:
                counts["rows_examined"] += node.actual_rows

    def candidate_counts(result, args) -> None:
        counts["candidates"] += len(result)

    def saved(result, args) -> None:
        store, path = args[0], args[1]
        counts["saved_bytes"] += os.path.getsize(path)
        counts["saved_triples"] += len(store)

    def loaded(result, args) -> None:
        counts["loaded_triples"] += len(result)

    def mapped(result, args) -> None:
        counts["mapped_triples"] += len(result)

    # service tier
    recorder.patch(ServiceAPI, "handle", "service.handle")
    recorder.patch(QueryService, "execute", "service.execute")
    recorder.patch(QueryService, "fetch_page", "service.execute")
    recorder.patch(PlanCache, "get_or_prepare", "service.plancache")
    recorder.patch(AdmissionController, "admit", "governance.admit",
                   after=slot_release)
    recorder.patch(QueryService, "observe_request",
                   "observability.observe_request")
    # query engine
    recorder.patch_function("repro.sparql.parser", "parse_query",
                            "sparql.parse")
    recorder.patch_function("repro.sparql.plan", "plan_query", "sparql.plan")
    recorder.patch_function("repro.sparql.plan", "plan_select",
                            "sparql.plan")
    recorder.patch(PreparedQuery, "run", "sparql.exec")
    recorder.patch_function("repro.sparql.evaluator", "eval_query",
                            "sparql.exec", after=query_counts)
    recorder.patch(FederationEngine, "query", "sparql.federation")
    # The function table captured geo_ops.* at import, so patching
    # repro.geometry.ops would miss; its geof: entries are swapped.
    for iri in list(sparql_functions.EXTENSION_FUNCTIONS):
        if iri.startswith(str(GEOF)):
            recorder.patch_item(sparql_functions.EXTENSION_FUNCTIONS, iri,
                                "geometry.extension", leaf=True)
    # spatial store; spatial_join_candidates delegates to
    # spatial_candidates at this commit, so candidates are counted once
    recorder.patch(StrabonStore, "spatial_candidates", "strabon.candidates",
                   after=candidate_counts)
    recorder.patch(StrabonStore, "spatial_join_candidates",
                   "strabon.candidates")
    recorder.patch(StrabonStore, "save", "strabon.save", after=saved)
    recorder.patch(StrabonStore, "load", "strabon.load", after=loaded)
    # virtual route
    recorder.patch(OntopSpatial, "query", "ontop.query")
    recorder.patch(MadisConnection, "execute", "madis.execute")
    recorder.patch(OpendapVTOperator, "__call__", "madis.vt_call")
    recorder.patch(RemoteDataset, "fetch", "opendap.fetch")
    recorder.patch(DapServer, "request", "opendap.server_request")
    # materialisation
    recorder.patch(MappingProcessor, "run", "geotriples.run", after=mapped)
    recorder.patch(Graph, "serialize", "rdf.serialize")
    recorder.patch(Graph, "parse", "rdf.parse")
