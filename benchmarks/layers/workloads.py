"""The five workloads: fixtures, seeded op streams, answers.

Every workload builds its dataset with the library's public entry
points at **default configuration** (no ``shards=``, ``batch_size=``,
feedback store or worker pool; no injected sleeps, no virtual clock)
and produces an endless op stream in *rounds*. A round is a fixed deck
of operations (the mix), shuffled and parameterised by a
``random.Random`` seeded from ``(workload, seed, round)``; parameters
come from fixed pools so every distinct operation has a committed
expected answer. The program under test only ever sees the generated
requests.

Round 0 is the warm-up; timed passes start at round 1.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import shutil
import tempfile
import time
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core import GreennessCaseStudy
from repro.core.casestudy import LISTING1, LISTING3, PREFIXES
from repro.geographica import generate_workload, load_strabon
from repro.geographica.queries import queries_by_key
from repro.observability import (FlightRecorder, MetricsRegistry, QueryLog,
                                 SLOEngine, SLOSpec, register_slo)
from repro.opendap import LatencyModel
from repro.rdf import Graph
from repro.service import (QueryService, ServiceAPI, build_default_graph,
                           default_tenants, encode_term)
from repro.service.workload import (DEFAULT_TEMPLATES, EX,
                                    FEDERATED_TEMPLATE,
                                    build_federated_sources)
from repro.sparql.federation import FederationEngine, SparqlEndpoint
from repro.strabon import StrabonStore

import oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRATCH = ROOT / "out" / "layers" / "tmp"

ZIPF_S = 1.2  # the service workload generator's default hot-key skew


class Op(NamedTuple):
    key: str    # names the distinct answer (oracle key)
    kind: str   # template or query family
    arg: object = None
    cold: bool = False


def zipf_cdf(n: int, s: float = ZIPF_S) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    return list(accumulate(w / total for w in weights))


def zipf_pick(cdf: List[float], rng: random.Random) -> int:
    """Rank drawn Zipf-skewed: the first whose cdf edge reaches u."""
    return min(bisect_left(cdf, rng.random()), len(cdf) - 1)


def window_wkt(x: float, y: float, w: float, h: float) -> str:
    return (f"POLYGON (({x:.4f} {y:.4f}, {x + w:.4f} {y:.4f}, "
            f"{x + w:.4f} {y + h:.4f}, {x:.4f} {y + h:.4f}, "
            f"{x:.4f} {y:.4f}))")


def window_query(wkt: str) -> str:
    """The greenness-of-Paris window selection (LAI inside a box)."""
    return PREFIXES + f"""
SELECT DISTINCT ?s ?lai WHERE {{
  ?s lai:lai ?lai ; geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfWithin(?w, "{wkt}"^^geo:wktLiteral))
}}
"""


#: 32 hot windows (fit the 64-entry plan cache together with the
#: templates) and 256 cold ones (cycled, so each comes back long after
#: the LRU dropped it: always a parse + plan). Offsets keep window
#: edges off the LAI grid lines.
HOT_WINDOWS = [window_wkt(2.1583 + (i % 8) * 0.0391,
                          48.7583 + (i // 8) * 0.0347, 0.07, 0.05)
               for i in range(32)]
COLD_WINDOWS = [window_wkt(2.1571 + (j % 16) * 0.0197,
                           48.7529 + (j // 16) * 0.0089, 0.07, 0.05)
                for j in range(256)]


def encode_rows(rows) -> List[Dict[str, Dict[str, str]]]:
    """Solutions (var -> Term) in the service's SPARQL-JSON encoding."""
    return [{var: encode_term(term) for var, term in row.items()
             if term is not None} for row in rows]


class Workload:
    """Base: a fixture plus a seeded, endless, round-structured stream."""

    name = ""
    #: What ``work_per_s`` counts.
    work_unit = "rows"
    #: Whether a pass without the observability stack makes sense.
    has_observability = False

    def round(self, seed: int, r: int) -> List[Op]:
        raise NotImplementedError

    def all_ops(self) -> List[Op]:
        """Every distinct op any seed can produce (the oracle's keys)."""
        raise NotImplementedError

    def execute(self, op: Op):
        """Run one op through the public entry point; returns a payload."""
        raise NotImplementedError

    def work(self, op: Op, payload) -> Tuple[bool, int]:
        """(succeeded, units of work) — cheap, runs on every op."""
        raise NotImplementedError

    def answer(self, op: Op, payload) -> Dict[str, object]:
        """The canonical answer digest (first occurrence of each key)."""
        raise NotImplementedError

    def cross_check(self, op: Op, payload) -> bool:
        return True

    def begin_pass(self) -> None:
        """Bring caches to the same state before every pass."""

    def prepare(self, op: Op) -> None:
        """Untimed state change an op asks for (a cache expiring)."""

    def detach_observability(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def rng(self, seed: int, label) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{label}")

    def stream(self, seed: int, first_round: int = 1) -> Iterator[List[Op]]:
        r = first_round
        while True:
            yield self.round(seed, r)
            r += 1

    # probe inputs: the workload's own data
    probe_graph: Optional[Graph] = None
    case_study: Optional[GreennessCaseStudy] = None
    #: the DAP server's request/byte counters, where a workload has one
    latency: Optional[LatencyModel] = None


# --------------------------------------------------------------------------
# service tier
# --------------------------------------------------------------------------

def build_service(graph: Graph, federation=None,
                  observability: bool = True) -> QueryService:
    """A default-configured QueryService with the full observability
    stack (SLO engine, query log, flight recorder) on the real clock."""
    tenants = default_tenants()
    metrics = MetricsRegistry()
    slo = query_log = recorder = None
    if observability:
        recorder = FlightRecorder(clock=time.monotonic)
        slo = SLOEngine(clock=time.monotonic)

        def on_alert(alert) -> None:
            recorder.record("slo_alert", at_s=alert.at_s, spec=alert.spec,
                            severity=alert.severity, edge=alert.edge)
            if alert.severity == "page" and alert.edge == "fire":
                recorder.snapshot(f"slo_page:{alert.spec}", at_s=alert.at_s)

        slo.on_alert.append(on_alert)
        for tenant in tenants:
            scope = f"tenant:{tenant.name}"
            slo.register(SLOSpec(name=f"{tenant.name}-availability",
                                 scope=scope, objective="availability",
                                 target=0.99))
            slo.register(SLOSpec(name=f"{tenant.name}-latency-p95",
                                 scope=scope, objective="latency",
                                 target=0.95,
                                 threshold_s=tenant.deadline_s or 2.5))
        slo.register(SLOSpec(name="service-shed-rate", scope="service",
                             objective="shed_rate", target=0.10))
        register_slo(metrics, slo)
        query_log = QueryLog(metrics=metrics)
    return QueryService(graph, tenants=tenants, metrics=metrics,
                        federation=federation, slo=slo,
                        query_log=query_log, recorder=recorder)


class ServiceWorkload(Workload):
    """Shared by the two workloads that go through ``ServiceAPI.handle``."""

    has_observability = True
    #: kinds whose row order is part of the answer (ORDER BY)
    ordered_kinds: frozenset = frozenset()

    def __init__(self):
        tenants = default_tenants()
        self._tenant_names = [t.name for t in tenants]
        self._tenant_weights = [t.weight for t in tenants]
        self.service = self.make_service(observability=True)
        self.api = ServiceAPI(self.service)

    def make_service(self, observability: bool) -> QueryService:
        raise NotImplementedError

    def detach_observability(self) -> None:
        """Swap in a service without SLO engine, query log or recorder
        (same graph, fresh plan cache) for the overhead pass."""
        self.service = self.make_service(observability=False)
        self.api = ServiceAPI(self.service)

    def begin_pass(self) -> None:
        self.api.handle({"v": 2, "op": "invalidate", "tenant": "api"})

    def pick_tenant(self, rng: random.Random) -> str:
        return rng.choices(self._tenant_names,
                           weights=self._tenant_weights)[0]

    def execute(self, op: Op):
        return [self.api.handle(op.arg)]

    def work(self, op: Op, payload) -> Tuple[bool, int]:
        ok = all(r.get("ok") for r in payload)
        return ok, sum(len(r["data"]["rows"]) for r in payload) if ok else 0

    def answer(self, op: Op, payload) -> Dict[str, object]:
        rows = [row for r in payload for row in r["data"]["rows"]]
        return oracle.answer(rows, ordered=op.kind in self.ordered_kinds)


class ServiceBGP(ServiceWorkload):
    name = "service_bgp"
    stations = 12_500
    regions = 200
    sources = 3
    #: the service workload generator's default template weights
    deck = {name: int(weight) for name, weight, __, __ in DEFAULT_TEMPLATES}
    deck[FEDERATED_TEMPLATE[0]] = 2
    ordered_kinds = frozenset(deck)  # every template has an ORDER BY
    #: the service workload generator's page size; a listing op reads
    #: this many pages (the query plus two continuations)
    listing_page = 25
    listing_pages = 3

    def __init__(self):
        self.graph = build_default_graph(stations=self.stations,
                                         regions=self.regions)
        self.federation = FederationEngine()
        for iri, shard in build_federated_sources(
                stations=self.stations, regions=self.regions,
                sources=self.sources):
            self.federation.register(iri, SparqlEndpoint(
                shard, name=iri.split("//")[1].split(".")[0]))
        self._region_cdf = zipf_cdf(self.regions)
        self.probe_graph = self.graph
        super().__init__()

    def make_service(self, observability: bool) -> QueryService:
        service = build_service(self.graph, federation=self.federation,
                                observability=observability)
        for name, __, __, text in DEFAULT_TEMPLATES:
            service.register_template(name, text)
        service.register_template(*FEDERATED_TEMPLATE, federated=True)
        return service

    def _op(self, kind: str, tenant: str, region: int = 0) -> Op:
        request = {"v": 2, "op": "query", "tenant": tenant,
                   "template": kind}
        key = kind
        if kind == "stations_in_region":
            request["params"] = {"region": {
                "type": "uri", "value": f"{EX}region{region:02d}"}}
            key = f"{kind}:{region}"
        elif kind == "station_listing":
            request["page_size"] = self.listing_page
        return Op(key, kind, request)

    def round(self, seed: int, r: int) -> List[Op]:
        rng = self.rng(seed, r)
        kinds = [kind for kind, n in self.deck.items() for __ in range(n)]
        rng.shuffle(kinds)
        return [self._op(kind, self.pick_tenant(rng),
                         zipf_pick(self._region_cdf, rng)
                         if kind == "stations_in_region" else 0)
                for kind in kinds]

    def all_ops(self) -> List[Op]:
        ops = [self._op(kind, "api") for kind in self.deck
               if kind != "stations_in_region"]
        ops += [self._op("stations_in_region", "api", region)
                for region in range(self.regions)]
        return ops

    def execute(self, op: Op):
        """One request — or, for the listing, the query plus the page
        requests that follow its cursor."""
        responses = [self.api.handle(op.arg)]
        while responses[-1].get("ok") \
                and len(responses) < self.listing_pages:
            token = responses[-1]["data"].get("next_page_token")
            if token is None:
                break
            responses.append(self.api.handle({
                "v": 2, "op": "page", "tenant": op.arg["tenant"],
                "page_token": token}))
        return responses


def geo_store(n_dekads: int, scale: int) -> Tuple[GreennessCaseStudy,
                                                   StrabonStore]:
    """The case study's materialised store plus a Geographica load."""
    study = GreennessCaseStudy(n_dekads=n_dekads,
                               latency=LatencyModel(sleep=False))
    store = study.materialized_store()
    store.update(load_strabon(generate_workload(scale=scale)))
    return study, store


class ServiceGeoSelect(ServiceWorkload):
    name = "service_geo_select"
    templates = ("SS1", "SS2", "SS3", "AG1", "RG1", "MSB1",
                 "NT1", "NT2", "NT3", "NT4")
    ordered_kinds = frozenset({"RG1"})
    hot_per_round = 24
    cold_per_round = 4
    #: Listing 1 (~50 ms, the slowest query here) holds 4 of 42 slots,
    #: so the 95th percentile lies inside its band, not on the edge
    listing1_per_round = 4

    def __init__(self):
        self.case_study, self.store = geo_store(n_dekads=12, scale=4)
        self.probe_graph = self.store
        self._texts = {key: q.sparql
                       for key, q in queries_by_key().items()}
        self._hot_cdf = zipf_cdf(len(HOT_WINDOWS))
        self._cold_orders: Dict[int, List[int]] = {}
        super().__init__()

    def make_service(self, observability: bool) -> QueryService:
        service = build_service(self.store, observability=observability)
        for key in self.templates:
            service.register_template(key, self._texts[key])
        return service

    def _op(self, kind: str, tenant: str, index: int = 0) -> Op:
        request = {"v": 2, "op": "query", "tenant": tenant}
        key = kind
        if kind in self.templates:
            request["template"] = kind
        elif kind == "listing1":
            request["query"] = LISTING1
        else:
            pool = HOT_WINDOWS if kind == "window_hot" else COLD_WINDOWS
            request["query"] = window_query(pool[index])
            key = f"{kind}:{index}"
        return Op(key, kind, request)

    def _cold_order(self, seed: int) -> List[int]:
        if seed not in self._cold_orders:
            order = list(range(len(COLD_WINDOWS)))
            self.rng(seed, "cold").shuffle(order)
            self._cold_orders[seed] = order
        return self._cold_orders[seed]

    def round(self, seed: int, r: int) -> List[Op]:
        rng = self.rng(seed, r)
        cold_order = self._cold_order(seed)
        kinds = list(self.templates) \
            + ["listing1"] * self.listing1_per_round
        ops = [self._op(kind, self.pick_tenant(rng)) for kind in kinds]
        for __ in range(self.hot_per_round):
            ops.append(self._op("window_hot", self.pick_tenant(rng),
                                zipf_pick(self._hot_cdf, rng)))
        for j in range(self.cold_per_round):
            index = cold_order[(r * self.cold_per_round + j)
                               % len(cold_order)]
            ops.append(self._op("window_cold", self.pick_tenant(rng), index))
        rng.shuffle(ops)
        return ops

    def all_ops(self) -> List[Op]:
        ops = [self._op(kind, "api")
               for kind in self.templates + ("listing1",)]
        ops += [self._op("window_hot", "api", i)
                for i in range(len(HOT_WINDOWS))]
        ops += [self._op("window_cold", "api", j)
                for j in range(len(COLD_WINDOWS))]
        return ops


# --------------------------------------------------------------------------
# direct store / endpoint access
# --------------------------------------------------------------------------

class GeoJoin(Workload):
    name = "geo_join"
    #: SJ1 and RM1 (~180 ms each) hold 2 of 12 slots, so the 95th
    #: percentile lies inside their band; SJ2 holds the median.
    deck = {"SJ1": 1, "RM1": 1, "SJ2": 2, "listing1": 5,
            "lai_by_landcover": 3}

    def __init__(self):
        self.case_study, self.store = geo_store(n_dekads=3, scale=1)
        self.probe_graph = self.store
        self._texts = {key: q.sparql
                       for key, q in queries_by_key().items()}
        self._texts["listing1"] = LISTING1

    def round(self, seed: int, r: int) -> List[Op]:
        ops = [Op(kind, kind) for kind, n in self.deck.items()
               for __ in range(n)]
        self.rng(seed, r).shuffle(ops)
        return ops

    def all_ops(self) -> List[Op]:
        return [Op(kind, kind) for kind in self.deck]

    def execute(self, op: Op):
        if op.kind == "lai_by_landcover":
            return self.case_study.park_vs_industrial_lai(self.store)
        return self.store.query(self._texts[op.kind])

    def work(self, op: Op, payload) -> Tuple[bool, int]:
        if op.kind == "lai_by_landcover":
            return not any(math.isnan(v) for v in payload), len(payload)
        return True, len(payload.rows)

    def answer(self, op: Op, payload) -> Dict[str, object]:
        if op.kind == "lai_by_landcover":
            lines = [oracle.canonical_number(repr(v)) for v in payload]
            return {"rows": len(lines), "sha256": oracle.digest(lines)}
        return oracle.answer(encode_rows(payload.rows), ordered=False)


class VirtualOpendap(Workload):
    name = "virtual_opendap"
    windows_per_round = 12
    listing3_per_round = 4
    cold_every = 4

    def __init__(self):
        self.latency = LatencyModel(sleep=False)
        self.case_study = GreennessCaseStudy(latency=self.latency)
        self.engine, self.operator = self.case_study.virtual_endpoint()
        # the materialised route over the same source: the cross-route
        # oracle, and the data the rdf/geometry probes run on
        self.store = self.case_study.materialized_store()
        self.probe_graph = self.store
        self._cdf = zipf_cdf(len(HOT_WINDOWS))
        self._reference: Dict[str, List[str]] = {}

    def begin_pass(self) -> None:
        self.operator.clear_cache()

    def prepare(self, op: Op) -> None:
        if op.cold:
            self.operator.clear_cache()

    def round(self, seed: int, r: int) -> List[Op]:
        rng = self.rng(seed, r)
        kinds = ["window"] * self.windows_per_round \
            + ["listing3"] * self.listing3_per_round
        rng.shuffle(kinds)
        ops = []
        for i, kind in enumerate(kinds):
            cold = i % self.cold_every == 0  # the w-window expired
            if kind == "listing3":
                ops.append(Op("listing3", kind, LISTING3, cold))
            else:
                index = zipf_pick(self._cdf, rng)
                ops.append(Op(f"window:{index}", kind,
                              window_query(HOT_WINDOWS[index]), cold))
        return ops

    def all_ops(self) -> List[Op]:
        return [Op("listing3", "listing3", LISTING3)] + [
            Op(f"window:{i}", "window", window_query(wkt))
            for i, wkt in enumerate(HOT_WINDOWS)]

    def execute(self, op: Op):
        return self.engine.query(op.arg)

    def work(self, op: Op, payload) -> Tuple[bool, int]:
        return True, len(payload.rows)

    def answer(self, op: Op, payload) -> Dict[str, object]:
        return oracle.answer(encode_rows(payload.rows), ordered=False)

    @staticmethod
    def _suffix_bag(rows) -> List[str]:
        """(observation id suffix, lai): the two routes mint different
        subject IRIs (lai:<id> vs lai:obs/<id>) for the same cell."""
        return sorted(
            str(row["s"]).rsplit("/", 1)[-1] + " "
            + oracle.canonical_number(row["lai"].lexical)
            for row in rows)

    def cross_check(self, op: Op, payload) -> bool:
        if op.kind != "window":
            return True
        reference = self._reference.get(op.key)
        if reference is None:
            reference = self._suffix_bag(self.store.query(op.arg).rows)
            self._reference[op.key] = reference
        return self._suffix_bag(payload.rows) == reference


class Materialize(Workload):
    name = "materialize"
    work_unit = "triples"
    #: (op, copies per round); a geographica op carries its scale
    deck = ((Op("case_study", "case_study"), 3),
            (Op("geographica:2", "geographica", 2), 1),
            (Op("geographica:3", "geographica", 3), 1),
            (Op("geographica:4", "geographica", 4), 1),
            (Op("sqlite_roundtrip", "sqlite_roundtrip"), 2),
            (Op("ntriples", "ntriples"), 2))

    def __init__(self):
        self.latency = LatencyModel(sleep=False)
        self.case_study = GreennessCaseStudy(latency=self.latency)
        self.store = self.case_study.materialized_store()
        self.probe_graph = self.store
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.tmp = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH))
        self.db_path = str(self.tmp / "store.sqlite")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def round(self, seed: int, r: int) -> List[Op]:
        ops = [op for op, n in self.deck for __ in range(n)]
        self.rng(seed, r).shuffle(ops)
        return ops

    def all_ops(self) -> List[Op]:
        return [op for op, __ in self.deck]

    def execute(self, op: Op):
        if op.kind == "case_study":
            return self.case_study.materialized_store()
        if op.kind == "geographica":
            return load_strabon(generate_workload(scale=op.arg))
        if op.kind == "sqlite_roundtrip":
            self.store.save(self.db_path)
            return StrabonStore.load(self.db_path)
        text = self.store.serialize(format="nt")
        return Graph().parse(text, format="nt")

    def work(self, op: Op, payload) -> Tuple[bool, int]:
        n = len(payload)
        if op.kind in ("sqlite_roundtrip", "ntriples"):
            # written once (disk / text) and stored once (memory)
            return n == len(self.store), 2 * n
        return n > 0, n

    def answer(self, op: Op, payload) -> Dict[str, object]:
        if op.kind == "geographica":
            text = queries_by_key()["SS2"].sparql
        else:
            text = LISTING1
        out = oracle.answer(encode_rows(payload.query(text).rows),
                            ordered=False)
        out["triples"] = len(payload)
        return out


def stream_digest(workload: Workload, seed: int, rounds: int = 4) -> str:
    """SHA-256 over the first rounds of the op stream a seed yields."""
    ops = [list(op) for r in range(rounds) for op in workload.round(seed, r)]
    return hashlib.sha256(
        json.dumps(ops, sort_keys=True).encode("utf-8")).hexdigest()


WORKLOADS = {cls.name: cls for cls in (
    ServiceBGP, ServiceGeoSelect, GeoJoin, VirtualOpendap, Materialize)}
