"""Reference container events, carrier vocabulary mapping and CSM parsing.

A Container Status Message (CSM) is one carrier-issued record of a deed on a
container: an identifier, the container's ISO 6346 code, a date, a free-text
event phrase, a location, the loading status and (for some events) a vessel
name. Carriers do not share an event vocabulary, so raw phrases are mapped
onto a fixed taxonomy of reference events grouped under four top classes:
TripStart, MaritimeTransshipment, TripEnd and Other.

CSMs are read from CSV with a header row and columns
``csm_id,container_id,date,event,location,country,loading_status,vessel``;
an empty vessel (or ``--``, ``-``, ``n/a``) means no vessel is involved.
:func:`read_csm_csv` checks every row and skips or rejects a bad one, and a
row that repeats the ``csm_id`` of an earlier accepted row is bad too.

Dates are accepted as ``DD Mon YYYY`` or ISO ``YYYY-MM-DD`` and normalised to
:class:`datetime.date`.

Everything in this module is a pure function over immutable inputs except the
unmapped-phrase counter kept by :class:`VocabularyMap`, whose updates are
atomic enough to share between reader threads.
"""

import csv
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .atomicfile import atomic_write
from .diagnostics import Diagnostics, record

# ---------------------------------------------------------------------------
# Locations


@dataclass(frozen=True, order=True)
class Location:
    """A place where an event occurred, identified by (name, country code)."""

    name: str
    country: str = ""

    @cached_property
    def key(self) -> str:
        """The slug a port's node id is built from, computed once: generation
        and vessel reconstruction look it up many times per location."""
        return "%s_%s" % (slug(self.name), slug(self.country) if self.country else "zz")

    def __str__(self) -> str:
        if self.country:
            return "%s (%s)" % (self.name, self.country)
        return self.name


_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slug(text: str) -> str:
    """Lowercase identifier-safe form of a name ("Port Kelang" -> "port_kelang")."""
    return _SLUG_RE.sub("_", text.strip().lower()).strip("_") or "x"


# ---------------------------------------------------------------------------
# Reference event taxonomy


class TopClass(Enum):
    TRIP_START = "TripStart"
    MARITIME_TRANSSHIPMENT = "MaritimeTransshipment"
    TRIP_END = "TripEnd"
    OTHER = "Other"


@dataclass(frozen=True)
class ReferenceEvent:
    """A leaf of the reference event taxonomy plus its top class."""

    leaf: str
    top_class: TopClass


# Built-in leaves. The taxonomy is extensible through vocabulary files; new
# leaves must declare one of the four top classes.
RECEIVED_AT_ORIGIN = ReferenceEvent("ReceivedAtOrigin", TopClass.TRIP_START)
GATE_IN = ReferenceEvent("GateIn", TopClass.TRIP_START)
RELEASED_TO_SHIPPER = ReferenceEvent(
    "ReleasedToShipperForCargoStuffing", TopClass.TRIP_START
)
LOADED_TO_VESSEL = ReferenceEvent("LoadedToVessel", TopClass.MARITIME_TRANSSHIPMENT)
DISCHARGED_AT_PORT = ReferenceEvent("DischargedAtPort", TopClass.MARITIME_TRANSSHIPMENT)
TRANSSHIPMENT_LOAD = ReferenceEvent("TransshipmentLoad", TopClass.MARITIME_TRANSSHIPMENT)
TRANSSHIPMENT_DISCHARGE = ReferenceEvent(
    "TransshipmentDischarge", TopClass.MARITIME_TRANSSHIPMENT
)
GATE_OUT = ReferenceEvent("GateOut", TopClass.TRIP_END)
FINAL_DESTINATION = ReferenceEvent("FinalDestination", TopClass.TRIP_END)
EMPTY_RETURNED = ReferenceEvent("EmptyReturned", TopClass.TRIP_END)
UNKNOWN_EVENT = ReferenceEvent("Unknown", TopClass.OTHER)

BUILTIN_LEAVES: Dict[str, ReferenceEvent] = {
    ev.leaf: ev
    for ev in (
        RECEIVED_AT_ORIGIN,
        GATE_IN,
        RELEASED_TO_SHIPPER,
        LOADED_TO_VESSEL,
        DISCHARGED_AT_PORT,
        TRANSSHIPMENT_LOAD,
        TRANSSHIPMENT_DISCHARGE,
        GATE_OUT,
        FINAL_DESTINATION,
        EMPTY_RETURNED,
        UNKNOWN_EVENT,
    )
}

# Leaves that may carry a loading / discharging vessel reference.
LOAD_LEAVES = {LOADED_TO_VESSEL.leaf, TRANSSHIPMENT_LOAD.leaf}
DISCHARGE_LEAVES = {DISCHARGED_AT_PORT.leaf, TRANSSHIPMENT_DISCHARGE.leaf}

# Carrier phrases seen in the wild, normalised form -> leaf name.
_DEFAULT_PHRASES: Dict[str, str] = {
    "received at origin": "ReceivedAtOrigin",
    "gate in": "GateIn",
    "gate-in": "GateIn",
    "released to shipper for cargo stuffing": "ReleasedToShipperForCargoStuffing",
    "loaded/ramped": "LoadedToVessel",
    "loaded": "LoadedToVessel",
    "loaded to vessel": "LoadedToVessel",
    "load full": "LoadedToVessel",
    "discharged/deramped": "DischargedAtPort",
    "discharged": "DischargedAtPort",
    "discharged at port": "DischargedAtPort",
    "discharge full": "DischargedAtPort",
    "gate out": "GateOut",
    "gate-out": "GateOut",
    "final destination": "FinalDestination",
    "empty returned": "EmptyReturned",
    "empty return": "EmptyReturned",
}

_WS_RE = re.compile(r"\s+")


def normalize_phrase(text: str) -> str:
    return _WS_RE.sub(" ", text.strip().lower())


class VocabularyError(ValueError):
    """A vocabulary file row is malformed or declares an unknown top class."""


class VocabularyMap:
    """Case- and whitespace-insensitive map from carrier phrase to leaf.

    Lookups never fail: an unmapped phrase resolves to the Unknown/Other leaf
    and is tallied in :attr:`unmapped` for later inspection.
    """

    def __init__(self, extra_entries: Optional[Dict[str, ReferenceEvent]] = None):
        self.leaves: Dict[str, ReferenceEvent] = dict(BUILTIN_LEAVES)
        self.entries: Dict[str, ReferenceEvent] = {
            phrase: BUILTIN_LEAVES[leaf] for phrase, leaf in _DEFAULT_PHRASES.items()
        }
        self.unmapped: Counter = Counter()
        if extra_entries:
            for phrase, ev in extra_entries.items():
                self.add_entry(phrase, ev)

    def add_entry(self, phrase: str, ev: ReferenceEvent) -> None:
        known = self.leaves.get(ev.leaf)
        if known is not None and known.top_class is not ev.top_class:
            raise VocabularyError(
                "leaf %s already declared under %s, not %s"
                % (ev.leaf, known.top_class.value, ev.top_class.value)
            )
        self.leaves[ev.leaf] = ev
        self.entries[normalize_phrase(phrase)] = ev

    def classify(self, raw_event_text: str) -> ReferenceEvent:
        """Map a carrier phrase to its reference event; total, never raises."""
        key = normalize_phrase(raw_event_text)
        ev = self.entries.get(key)
        if ev is None:
            self.unmapped[key] += 1
            return UNKNOWN_EVENT
        return ev


def load_vocabulary(path: str) -> VocabularyMap:
    """Load a vocabulary CSV (carrier_phrase, reference_leaf, top_class).

    Rows extend or override the built-in phrase table. A new leaf must name
    one of the four top classes; redefining a built-in leaf under a different
    top class is an error.
    """
    vocab = VocabularyMap()
    top_by_value = {tc.value: tc for tc in TopClass}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            required = {"carrier_phrase", "reference_leaf", "top_class"}
            if header is None or not required.issubset(header):
                raise VocabularyError(
                    "vocabulary file must have columns carrier_phrase, reference_leaf, top_class"
                )
            # a row is numbered by the physical line it starts on: a quoted
            # field may span lines
            start = reader.line_num + 1
            for values in reader:
                i, start = start, reader.line_num + 1
                if not values:
                    continue
                row = dict(zip(header, values))  # a short row lacks its last columns
                top = top_by_value.get((row.get("top_class") or "").strip())
                if top is None:
                    raise VocabularyError(
                        "line %d: unknown top class %r" % (i, row.get("top_class"))
                    )
                leaf = (row.get("reference_leaf") or "").strip()
                if not leaf:
                    raise VocabularyError("line %d: empty reference_leaf" % i)
                if leaf.split() != [leaf]:
                    # the leaf becomes a concept name in graph.kb, whose
                    # fields are separated by spaces
                    raise VocabularyError(
                        "line %d: reference_leaf %r holds whitespace" % (i, leaf)
                    )
                phrase = row.get("carrier_phrase")
                if phrase is None:
                    raise VocabularyError("line %d: no carrier_phrase" % i)
                vocab.add_entry(phrase, ReferenceEvent(leaf, top))
        except csv.Error as exc:
            raise VocabularyError("line %d: %s" % (reader.line_num, exc)) from None
    return vocab


# ---------------------------------------------------------------------------
# ISO 6346 container identifiers

_ISO6346_RE = re.compile(r"^([A-Z]{3})([A-Z])(\d{6})(\d)$")

# Letter values skip multiples of 11 (A=10, K=21, L=23, U=32, V=34 ...).
_ISO6346_LETTER_VALUES = {}
_v = 10
for _ch in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
    if _v % 11 == 0:
        _v += 1
    _ISO6346_LETTER_VALUES[_ch] = _v
    _v += 1


def iso6346_check_digit(code10: str) -> int:
    """Check digit for the first 10 characters of an ISO 6346 code."""
    total = 0
    for i, ch in enumerate(code10):
        value = _ISO6346_LETTER_VALUES[ch] if ch.isalpha() else int(ch)
        total += value * (2 ** i)
    return (total % 11) % 10


def validate_container_id(container_id: str) -> Tuple[bool, bool]:
    """Return (shape_ok, check_digit_ok) for an ISO 6346 identifier."""
    m = _ISO6346_RE.match(container_id.strip().upper())
    if not m:
        return False, False
    code = container_id.strip().upper()
    return True, iso6346_check_digit(code[:10]) == int(code[10])


def make_container_id(owner: str, serial: int, category: str = "U") -> str:
    """Build a valid ISO 6346 identifier from owner prefix and serial number."""
    body = "%s%s%06d" % (owner.upper()[:3], category.upper(), serial % 1000000)
    return body + str(iso6346_check_digit(body))


# ---------------------------------------------------------------------------
# Dates

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_DMY_RE = re.compile(r"^(\d{1,2})\s+([A-Za-z]{3,})\s+(\d{4})$")


def parse_event_date(text: str) -> date:
    """Parse "30 May 2010" or "2010-05-30"; raises ValueError otherwise."""
    text = text.strip()
    m = _DMY_RE.match(text)
    if m:
        month = _MONTHS.get(m.group(2)[:3].lower())
        if month is None:
            raise ValueError("unknown month name in date %r" % text)
        return date(int(m.group(3)), month, int(m.group(1)))
    return date.fromisoformat(text)


_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def timestamp_literal(d: date) -> str:
    """Canonical timestamp literal: weekday prefix + ISO date.

    The layout puts the ISO date at 1-indexed character 5 with length 10, so
    a substring(5, 10) over the literal recovers the plain date.
    """
    return "%s %s" % (_WEEKDAYS[d.weekday()], d.isoformat())


# ---------------------------------------------------------------------------
# CSM records


class LoadingStatus(Enum):
    EMPTY = "Empty"
    FULL = "Full"


class CsmParseError(ValueError):
    """A CSM row could not be parsed; carries the row identity."""

    def __init__(self, row_id: str, message: str):
        super().__init__("row %s: %s" % (row_id, message))
        self.row_id = row_id
        self.reason = message


@dataclass(frozen=True)
class CsmRecord:
    """One validated Container Status Message."""

    csm_id: str
    container_id: str
    time: date
    raw_event_text: str
    location: Location
    loading_status: LoadingStatus
    vessel_name: Optional[str] = None

    def to_csv_row(self) -> List[str]:
        return [
            self.csm_id,
            self.container_id,
            self.time.isoformat(),
            self.raw_event_text,
            self.location.name,
            self.location.country,
            self.loading_status.value,
            self.vessel_name or "",
        ]


_ABSENT_VESSEL = {"", "--", "-", "n/a"}

CSM_CSV_COLUMNS = [
    "csm_id",
    "container_id",
    "date",
    "event",
    "location",
    "country",
    "loading_status",
    "vessel",
]


def _parse_row(
    row_id: str,
    row: List[str],
    strict_check_digit: bool,
    diagnostics: Optional[Diagnostics],
) -> CsmRecord:
    """The record of one CSV row; raises CsmParseError on a bad field.

    Check-digit mismatches are recorded as diagnostics unless
    ``strict_check_digit`` is set, in which case they raise; carrier feeds do
    not always carry valid digits, so the identifier is treated as data.
    """
    if len(row) != len(CSM_CSV_COLUMNS):
        raise CsmParseError(
            row_id, "expected %d fields, found %d" % (len(CSM_CSV_COLUMNS), len(row))
        )
    _, container_id, date_text, event_text, name, country, status_text, vessel_text = row
    shape_ok, digit_ok = validate_container_id(container_id)
    if not shape_ok:
        raise CsmParseError(row_id, "container id %r is not ISO 6346 shaped" % container_id)
    if not digit_ok:
        if strict_check_digit:
            raise CsmParseError(row_id, "container id %r fails check digit" % container_id)
        record(
            diagnostics,
            "bad_check_digit",
            "row %s: container id %s fails check digit" % (row_id, container_id),
        )
    try:
        when = parse_event_date(date_text)
    except ValueError:
        raise CsmParseError(row_id, "malformed date %r" % date_text)
    status_key = status_text.strip().capitalize()
    try:
        status = LoadingStatus(status_key)
    except ValueError:
        raise CsmParseError(row_id, "unknown loading status %r" % status_text)
    vessel = vessel_text.strip()
    vessel_name = None if vessel.lower() in _ABSENT_VESSEL else vessel
    return CsmRecord(
        csm_id=row_id,
        container_id=container_id.strip().upper(),
        time=when,
        raw_event_text=event_text.strip(),
        location=Location(name.strip(), country.strip().upper()),
        loading_status=status,
        vessel_name=vessel_name,
    )


def read_csm_csv(
    path: str,
    strict_check_digit: bool = False,
    diagnostics: Optional[Diagnostics] = None,
    on_error: str = "skip",
) -> List[CsmRecord]:
    """Read a CSM CSV, skipping or aborting on bad rows per ``on_error``.

    A bad row fails a field check, or repeats the ``csm_id`` of an earlier
    accepted row (the first one wins). Under ``"skip"`` it is counted as a
    ``skipped_row`` diagnostic; under ``"abort"`` it raises CsmParseError.
    A file that is not CSV (say, a field over the csv module's size limit)
    raises CsmParseError naming the line.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError("on_error must be 'skip' or 'abort'")
    records: List[CsmRecord] = []
    accepted: Set[str] = set()  # the csm_ids of the records
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != CSM_CSV_COLUMNS:
                raise CsmParseError(
                    "<header>", "expected columns %s" % ",".join(CSM_CSV_COLUMNS)
                )
            # a row is numbered by the physical line it starts on: a quoted
            # field may span lines
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row or all(not cell.strip() for cell in row):
                    continue
                row_id = row[0].strip() or "line %d" % lineno
                try:
                    if row_id in accepted:
                        raise CsmParseError(row_id, "csm_id repeats an earlier row")
                    records.append(_parse_row(row_id, row, strict_check_digit, diagnostics))
                    accepted.add(row_id)
                except CsmParseError as exc:
                    if on_error == "abort":
                        raise
                    record(diagnostics, "skipped_row", str(exc))
        except csv.Error as exc:
            raise CsmParseError("line %d" % reader.line_num, str(exc)) from None
    return records


def write_csm_csv(path: str, records: Iterable[CsmRecord]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSM_CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_csv_row())
