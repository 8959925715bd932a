"""Shared diagnostics sink for non-fatal pipeline findings.

Every stage of the pipeline can record things it noticed but did not treat
as errors (unmapped carrier phrases, unbindable transshipment events,
overlapping vessel calls, ...). Callers that do not care pass None and the
records are dropped.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

# messages kept per kind; the counters stay exact past it, so a stage that
# records one message per row does not grow without bound on large inputs
MAX_RECORDS_PER_KIND = 100


@dataclass
class Diagnostics:
    """Per-kind counters plus the first ``MAX_RECORDS_PER_KIND`` (kind,
    message) records of each kind."""

    records: List[Tuple[str, str]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def add(self, kind: str, message: str) -> None:
        self.counts[kind] += 1
        if self.counts[kind] <= MAX_RECORDS_PER_KIND:
            self.records.append((kind, message))

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def __len__(self) -> int:
        """Every record added, kept or not."""
        return sum(self.counts.values())


def record(diag: Optional[Diagnostics], kind: str, message: str) -> None:
    """Record into ``diag`` if a sink was provided, else drop silently."""
    if diag is not None:
        diag.add(kind, message)
