"""The stage chain, in the two halves the CLI persists between.

``ingest`` classifies and segments the CSM stream; ``build`` reconstructs
vessel movements, binds transshipments and populates the graph.
``run_pipeline`` is their composition, for tests and the benchmark harness.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .diagnostics import Diagnostics
from .events import CsmRecord, VocabularyMap
from .graph import KnowledgeGraph, populate
from .linking import (
    DEFAULT_MATCH_WINDOW_DAYS,
    TransshipmentBinding,
    VesselEventIndex,
    bind_transshipments,
)
from .segmentation import ContainerEvent, ContainerItinerary, events_from_records, segment_all
from .vessels import (
    DEFAULT_CLUSTER_WINDOW_DAYS,
    VesselEvent,
    VesselPortCall,
    VesselTrip,
    reconstruct_all,
)


@dataclass
class PipelineResult:
    itineraries: List[ContainerItinerary]
    port_calls: List[VesselPortCall]
    vessel_events: List[VesselEvent]
    trips: List[VesselTrip]
    bindings: List[TransshipmentBinding]
    graph: KnowledgeGraph


def ingest(
    records: Iterable[CsmRecord], vocab: VocabularyMap
) -> Tuple[Dict[str, List[ContainerEvent]], List[ContainerItinerary]]:
    """Classify the records into per-container event sequences and segment
    them into itineraries."""
    per_container = events_from_records(records, vocab)
    return per_container, segment_all(per_container)


def build(
    itineraries: List[ContainerItinerary],
    cluster_window_days: int,
    match_window_days: int,
    diagnostics: Optional[Diagnostics],
) -> PipelineResult:
    """Reconstruct vessel movements from the itineraries' events, bind the
    transshipments to them and populate the sealed graph."""
    flat = [e for it in itineraries for e in it.events]
    calls, vessel_events, trips = reconstruct_all(flat, cluster_window_days, diagnostics)
    bindings = bind_transshipments(
        itineraries, VesselEventIndex(vessel_events), match_window_days, diagnostics
    )
    graph = populate(itineraries, vessel_events, trips, bindings)
    return PipelineResult(itineraries, calls, vessel_events, trips, bindings, graph)


def run_pipeline(
    records: Iterable[CsmRecord],
    vocab: Optional[VocabularyMap] = None,
    cluster_window_days: int = DEFAULT_CLUSTER_WINDOW_DAYS,
    match_window_days: int = DEFAULT_MATCH_WINDOW_DAYS,
    diagnostics: Optional[Diagnostics] = None,
) -> PipelineResult:
    _, itineraries = ingest(records, vocab or VocabularyMap())
    return build(itineraries, cluster_window_days, match_window_days, diagnostics)
