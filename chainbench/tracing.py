"""Per-layer tracing for the chain benchmark, installed from outside cargokg.

A ``Tracer`` replaces module-level functions (and a few ``KnowledgeGraph``
methods) with wrappers that record one span per call: name, parent span,
start, end, wall and CPU seconds, plus counts read off the arguments and the
result. Every module that imported a wrapped function by name gets the
wrapper too, because the swap is done by identity over all loaded
``cargokg`` modules. Nothing is installed unless ``install`` is called, so an
untraced run executes the program's own code only.

The transitive-closure lookups run once per joined row (about 165,000 times
per round at 5K), so they are folded: each call adds to a (calls, wall
seconds) pair on the enclosing span instead of opening a span of its own.

A wrapped target that no longer exists is skipped; its metrics then read 0.
"""

import contextlib
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional

PATTERN_LABELS = {
    "Loop": "loop",
    "LoopIntermediate": "loop_intermediate",
    "UnnecessaryTransshipment": "ut",
}

# the benchmark's span around its output checks; layer metrics leave out the
# program calls made there, except the scanners
CHECKS_STEP = "step.checks"


SPAN_COLUMNS = [
    "id", "name", "parent", "start", "end", "wall_s", "cpu_s", "self_s", "counts", "folded"
]


class Span:
    __slots__ = ("index", "name", "parent", "root", "start", "end", "cpu", "counts", "folded")

    def __init__(self, index: int, name: str, parent: Optional["Span"]):
        self.index = index
        self.name = name
        self.parent = None if parent is None else parent.index
        self.root = name if parent is None else parent.root
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0
        self.counts: Dict[str, object] = {}
        self.folded: Dict[str, List[float]] = {}

    @property
    def wall(self) -> float:
        return self.end - self.start

    def row(self, self_s: float) -> list:
        return [
            self.index,
            self.name,
            self.parent,
            self.start,
            self.end,
            self.wall,
            self.cpu,
            self_s,
            self.counts,
            self.folded,
        ]


# -- what each wrapped call reports besides its time -------------------------


def _len_result(key: str) -> Callable:
    def observe(span, args, kwargs, result):
        span.counts[key] = len(result)

    return observe


def _observe_reconstruct(span, args, kwargs, result):
    calls, vessel_events, trips = result
    span.counts.update(
        port_calls=len(calls), vessel_events=len(vessel_events), trips=len(trips)
    )


def _observe_bind(span, args, kwargs, result):
    itineraries = args[0] if args else kwargs["itineraries"]
    offered = sum(
        1
        for it in itineraries
        for e in it.events
        if (e.is_load and e.loading_vessel) or (e.is_discharge and e.discharging_vessel)
    )
    span.counts.update(bindings=len(result), offered=offered)


def _observe_graph(span, args, kwargs, graph):
    span.counts.update(individuals=len(graph.individuals), edges=graph.edge_count())


def _observe_save(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    span.counts["kb_bytes"] = os.path.getsize(path)


def _pattern_of(args, kwargs) -> str:
    kind = args[0] if args else kwargs["kind"]
    return PATTERN_LABELS.get(kind.value, kind.value)


def _variant_of(args, kwargs) -> str:
    # detect and scan both take the variant fourth, "filtered" by default
    return args[3] if len(args) > 3 else kwargs.get("variant", "filtered")


def _observe_detect(span, args, kwargs, result):
    span.counts.update(
        pattern=_pattern_of(args, kwargs),
        variant=_variant_of(args, kwargs),
        detections=len(result),
        suspicious=sum(1 for d in result if d.verdict.value == "Suspicious"),
    )


def _observe_scan(span, args, kwargs, result):
    span.counts.update(pattern=_pattern_of(args, kwargs), variant=_variant_of(args, kwargs))


# (span name, module, attribute, observer); "Class.method" attributes patch
# the class. Each is a call the CLI, patterns or the benchmark makes.
TARGETS = [
    ("events.read_csm_csv", "cargokg.events", "read_csm_csv", _len_result("rows")),
    ("segmentation.events_from_records", "cargokg.segmentation", "events_from_records", None),
    ("segmentation.segment_all", "cargokg.segmentation", "segment_all", _len_result("itineraries")),
    ("segmentation.write_itineraries", "cargokg.segmentation", "write_itineraries", None),
    ("segmentation.read_itineraries", "cargokg.segmentation", "read_itineraries", None),
    ("vessels.reconstruct_all", "cargokg.vessels", "reconstruct_all", _observe_reconstruct),
    ("linking.bind_transshipments", "cargokg.linking", "bind_transshipments", _observe_bind),
    ("graph.populate", "cargokg.graph", "populate", _observe_graph),
    ("graph.save", "cargokg.graph", "KnowledgeGraph.save", _observe_save),
    ("graph.load", "cargokg.graph", "KnowledgeGraph.load", _observe_graph),
    ("queries.substitute_nominals", "cargokg.queries", "substitute_nominals", None),
    ("engine.resolve_names", "cargokg.engine", "resolve_names", None),
    ("engine.plan", "cargokg.engine", "plan_indices", None),
    ("engine.evaluate_rows", "cargokg.engine", "evaluate_rows", _len_result("rows")),
    ("engine.evaluate", "cargokg.engine", "evaluate", None),
    ("patterns.detect", "cargokg.patterns", "detect", _observe_detect),
    ("scanners.scan", "cargokg.scanners", "scan", _observe_scan),
]

# folded into the enclosing span: (name, module, attribute)
FOLDED = [
    ("graph.closure", "cargokg.graph", "KnowledgeGraph.transitive_successors"),
    ("graph.closure", "cargokg.graph", "KnowledgeGraph.transitive_predecessors"),
]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._undo: List[tuple] = []

    # -- span recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.cpu = time.process_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around a step of the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _fold(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def folded(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                if stack:
                    entry = stack[-1].folded.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        folded.__wrapped__ = fn
        return folded

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, observe in TARGETS:
            self._patch(module, attr, lambda fn, n=name, o=observe: self._wrap(n, fn, o))
        for name, module, attr in FOLDED:
            self._patch(module, attr, lambda fn, n=name: self._fold(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = sys.modules.get(module_name)
        if module is None:
            return
        if "." in attr:
            class_name, method = attr.split(".", 1)
            owner = getattr(module, class_name, None)
            raw = None if owner is None else owner.__dict__.get(method)
            if raw is None:
                return
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            self._undo.append((owner, method, raw))
            setattr(owner, method, replacement)
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        replacement = make(original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "cargokg" or loaded_name.startswith("cargokg.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, replacement)

    # -- results -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's wall time minus what its children and folded calls
        cover (calls are serial, so children never overlap)."""
        covered = [sum(w for _, w in s.folded.values()) for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.wall
        return [s.wall - c for s, c in zip(self.spans, covered)]

    def dump(self) -> dict:
        """All spans, one row each under ``columns``."""
        return {
            "columns": SPAN_COLUMNS,
            "rows": [s.row(t) for s, t in zip(self.spans, self.self_times())],
        }


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced rounds.

    Only calls made inside the timed steps count, except the scanners, which
    run in the checks. Times and call counts are per execution of the step
    they ran in (each call weighs 1 / the number of times its step ran), so
    they compare with the end-to-end metrics; item counts are those of the
    last call, which are the same in every round.
    """
    self_s = tracer.self_times()
    runs = Counter(s.name for s in tracer.spans if s.parent is None)

    def weight(span):
        return 1.0 / runs[span.root]

    spans = [s for s in tracer.spans if s.root != CHECKS_STEP]

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.wall * weight(s) for s in named(name))

    def calls(name):
        return sum(weight(s) for s in named(name))

    def last_count(name, key):
        values = [s.counts[key] for s in named(name) if key in s.counts]
        return values[-1] if values else 0

    m: Dict[str, float] = {}
    m["events.read_csm_csv_s"] = seconds("events.read_csm_csv")
    m["events.rows"] = last_count("events.read_csm_csv", "rows")
    for fn in ("events_from_records", "segment_all", "write_itineraries", "read_itineraries"):
        m["segmentation.%s_s" % fn] = seconds("segmentation." + fn)
    m["segmentation.itineraries"] = last_count("segmentation.segment_all", "itineraries")
    m["vessels.reconstruct_all_s"] = seconds("vessels.reconstruct_all")
    for key in ("port_calls", "vessel_events", "trips"):
        m["vessels." + key] = last_count("vessels.reconstruct_all", key)
    m["linking.bind_transshipments_s"] = seconds("linking.bind_transshipments")
    bindings = last_count("linking.bind_transshipments", "bindings")
    offered = last_count("linking.bind_transshipments", "offered")
    m["linking.bindings"] = bindings
    m["linking.bound_ratio"] = bindings / offered if offered else 0.0
    for fn in ("populate", "save", "load"):
        m["graph.%s_s" % fn] = seconds("graph." + fn)
    m["graph.individuals"] = last_count("graph.populate", "individuals")
    m["graph.edges"] = last_count("graph.populate", "edges")
    m["graph.kb_bytes"] = last_count("graph.save", "kb_bytes")
    closure = [(s.folded["graph.closure"], weight(s)) for s in spans if "graph.closure" in s.folded]
    m["graph.closure_calls"] = sum(c * w for (c, _), w in closure)
    m["graph.closure_s"] = sum(t * w for (_, t), w in closure)
    m["queries.substitute_nominals_calls"] = calls("queries.substitute_nominals")
    m["queries.substitute_nominals_s"] = seconds("queries.substitute_nominals")
    m["engine.resolve_names_calls"] = calls("engine.resolve_names")
    m["engine.resolve_names_s"] = seconds("engine.resolve_names")
    m["engine.plan_s"] = seconds("engine.plan")
    m["engine.evaluate_rows_calls"] = calls("engine.evaluate_rows")
    m["engine.evaluate_rows_s"] = seconds("engine.evaluate_rows")
    m["engine.rows_out"] = sum(
        s.counts.get("rows", 0) * weight(s) for s in named("engine.evaluate_rows")
    )
    m["engine.evaluate_s"] = seconds("engine.evaluate")

    rows_under: Dict[int, List[int]] = {}
    for span in named("engine.evaluate_rows"):
        rows_under.setdefault(span.parent, []).append(span.counts.get("rows", 0))
    for label in PATTERN_LABELS.values():
        detects = [s for s in named("patterns.detect") if s.counts.get("pattern") == label]
        anchors = sum(len(rows_under.get(s.index, ())) * weight(s) for s in detects)
        rows = sum(sum(rows_under.get(s.index, ())) * weight(s) for s in detects)
        detections = sum(s.counts["detections"] * weight(s) for s in detects)
        m["patterns.%s.anchors" % label] = anchors
        m["patterns.%s.self_s" % label] = sum(self_s[s.index] * weight(s) for s in detects)
        m["patterns.%s.detections" % label] = detections
        m["patterns.%s.suspicious" % label] = sum(
            s.counts["suspicious"] * weight(s) for s in detects
        )
        m["patterns.%s.rows_per_detection" % label] = rows / detections if detections else 0.0
        # the scans in the variant the detector ran (the checks also scan
        # the filtered form, for the date-filtered queries)
        variants = {s.counts["variant"] for s in detects}
        scans = [
            s
            for s in tracer.spans
            if s.name == "scanners.scan"
            and s.counts.get("pattern") == label
            and s.counts.get("variant") in variants
        ]
        m["scanners.%s.scan_s" % label] = sum(s.wall * weight(s) for s in scans)
    return m
