"""Cell fingerprints, the record version, and store-entry metadata.

Finished results persist in a
:class:`~repro.campaign.store.ShardedResultStore`; every
``cache_dir=`` / ``--cache-dir`` in the library and the CLI is the
root of one. This module holds the pieces that outlive any storage
layout:

* :func:`cell_fingerprint` — a SHA-256 over everything that determines
  a cell's outcome: the resolved :class:`~repro.config.SsdSpec` (via
  its dataclass ``repr``, deterministic because every nested field is
  a frozen dataclass of plain values), the scheme, PEC setpoint,
  workload, request count, derived cell seed, and the remaining
  ``run_workload_cell`` knobs — plus :data:`CACHE_VERSION`. Any change
  to any input yields a different key, so a store can be shared across
  campaigns and machines without collisions;
* :data:`CACHE_VERSION` — records written under another version read
  as misses instead of returning stale results;
* :class:`CacheEntry` / :class:`GcResult` — what ``cache ls`` and
  ``cache gc`` (:meth:`ShardedResultStore.entries` /
  :meth:`~ShardedResultStore.gc`) report.

Resume semantics: the runner consults the store before executing a
cell and writes each finished report back immediately, so a campaign
killed halfway resumes from its last completed cell on the next run —
a warm store replays an entire grid without executing anything.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.config import SsdSpec

#: Bump when the cell-execution semantics or file format change; old
#: entries then miss instead of returning stale results.
#: v2: erase-resume dispatch fix and truncated-replay makespan fix
#: changed every cell's report.
CACHE_VERSION = 2


def cell_fingerprint(
    spec: SsdSpec,
    scheme: str,
    pec: int,
    workload: str,
    requests: int,
    seed: int,
    erase_suspension: bool = True,
    footprint_fraction: float = 0.85,
    precondition_fraction: float = 0.9,
    mispredict_rate: float = 0.0,
    scheme_params: Tuple[Tuple[str, Any], ...] = (),
) -> str:
    """Stable hash of every input that determines a cell's report.

    ``scheme_params`` carries any extra scheme knobs beyond
    ``mispredict_rate`` (e.g. ``rber_requirement``) as sorted
    ``(key, value)`` pairs; it is folded into the payload only when
    non-empty, so fingerprints of parameterless cells are unchanged
    across library versions and existing caches stay valid.
    """
    lines = [
        f"version={CACHE_VERSION}",
        f"spec={spec!r}",
        f"scheme={scheme}",
        f"pec={pec}",
        f"workload={workload}",
        f"requests={requests}",
        f"seed={seed}",
        f"erase_suspension={erase_suspension}",
        f"footprint_fraction={footprint_fraction!r}",
        f"precondition_fraction={precondition_fraction!r}",
        f"mispredict_rate={mispredict_rate!r}",
    ]
    if scheme_params:
        lines.append(f"scheme_params={tuple(sorted(scheme_params))!r}")
    payload = "\n".join(lines)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one store entry (for ``cache ls`` / ``gc``).

    ``path`` is the segment file holding the key's newest record.
    ``corrupt`` marks records that parse but lack a usable report (a
    missing report, a checksum mismatch); ``stale`` marks readable
    records written under a different :data:`CACHE_VERSION`. Both read
    as misses at run time and are prime garbage-collection candidates.
    """

    key: str
    path: Path
    mtime: float
    size: int
    meta: Dict[str, Any] = field(default_factory=dict)
    corrupt: bool = False
    stale: bool = False

    def age_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the entry was written."""
        return max(0.0, (time.time() if now is None else now) - self.mtime)

    def summary(self) -> str:
        """One-line human summary of what experiment the entry holds."""
        if self.corrupt:
            return "<corrupt entry>"
        meta = self.meta
        if meta.get("family") == "lifetime":
            parts = [
                str(meta.get("scheme", "?")),
                f"profile={meta.get('profile', '?')}",
                f"blocks={meta.get('block_count', '?')}",
                f"seed={meta.get('seed', '?')}",
                "[lifetime]",
            ]
            if self.stale:
                parts.append("[stale version]")
            return " ".join(parts)
        parts = [
            str(meta.get("scheme", "?")),
            f"pec={meta.get('pec', '?')}",
            str(meta.get("workload", "?")),
            f"requests={meta.get('requests', '?')}",
            f"seed={meta.get('seed', '?')}",
        ]
        if meta.get("scheme_params"):
            parts.append(f"params={meta['scheme_params']}")
        if self.stale:
            parts.append("[stale version]")
        return " ".join(parts)


@dataclass(frozen=True)
class GcResult:
    """Outcome of one :meth:`ShardedResultStore.gc` pass."""

    removed: Tuple[CacheEntry, ...] = ()
    kept: int = 0
    #: Orphaned compaction tmp files swept up (interrupted rewrites).
    tmp_removed: int = 0

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    @property
    def removed_bytes(self) -> int:
        return sum(entry.size for entry in self.removed)
