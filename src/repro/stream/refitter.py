"""The refresh loop: refit the window, publish only real changes.

:class:`StreamRefitter` closes the loop between fitting and serving.
Each due refit re-runs the **full** clustering pass —
engine→smooth→BitOp→prune (:class:`~repro.core.clusterer.GridClusterer`)
— on the window's BinArray rather than merely carrying counts forward:
interestingness-based re-pruning on refresh (Kannan & Bhaskaran,
arXiv:0912.1822) is exactly why a refreshed model must be re-mined, not
patched.

Publishing goes through the persistence layer into a plain model
directory — the same directory a
:class:`~repro.serve.registry.ModelRegistry` watches — so the existing
``maybe_refresh()`` hot-reload path (threaded server and every pre-fork
worker alike) picks refreshed segmentations up with zero new serving
code.  Two safeguards keep that cheap and safe:

* **content-hash skip** — the new segmentation's
  :func:`segmentation_content_hash` (rules + attributes only, no
  volatile metadata) is compared against the last published one; an
  unchanged segmentation publishes nothing, so servers never reload a
  byte-identical model;
* **atomic publish** — the artefact is written to a temp file in the
  model directory and :func:`os.replace`'d into place, so a racing
  registry refresh sees either the old artefact or the new one, never
  a torn write (the registry additionally tolerates torn files by
  keeping the previous healthy version).

Every refit emits a ``stream.refresh`` JSONL event (window id, tuple
counts, rule deltas, hashes) through :mod:`repro.obs.events` and the
``stream.*`` metrics catalogued in :mod:`repro.obs.catalogue`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.binning.strategies import BinLayout
from repro.binning.categorical import CategoricalEncoding
from repro.core.clusterer import ClustererConfig, GridClusterer
from repro.core.optimizer import segmentation_from_outcome
from repro.core.segmentation import Segmentation
from repro.data.schema import Table
from repro.mining.engine import rule_measures
from repro.obs import events, metrics, trace
from repro.persistence import _rule_to_dict, save_segmentation
from repro.stream.window import StreamWindow

logger = logging.getLogger(__name__)

__all__ = [
    "RefitterConfig",
    "RefreshRecord",
    "StreamRefitter",
    "WatchSummary",
    "run_watch",
    "segmentation_content_hash",
]


def segmentation_content_hash(segmentation: Segmentation) -> str:
    """A 12-hex digest of the segmentation's *semantic* content.

    Hashes the rules and attribute names only — not the artefact bytes,
    which carry a volatile ``created_unix`` stamp — so two refits that
    mine identical rules hash identically and the second publish is
    skipped.  (The registry's model id remains the artefact-byte hash;
    refresh events carry both.)
    """
    payload = {
        "x_attribute": segmentation.x_attribute,
        "y_attribute": segmentation.y_attribute,
        "rhs_attribute": segmentation.rhs_attribute,
        "rhs_value": segmentation.rhs_value,
        "rules": [_rule_to_dict(rule) for rule in segmentation.rules],
    }
    canonical = json.dumps(payload, sort_keys=True, default=str,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RefitterConfig:
    """Thresholds and guards of the refresh loop.

    The streaming refit runs at *fixed* thresholds (the optimizer's
    MDL search is an offline concern; a refit must be predictable and
    fast), configured here alongside the clustering knobs.
    """

    min_support: float = 0.01
    min_confidence: float = 0.5
    clusterer: ClustererConfig = field(default_factory=ClustererConfig)
    #: Refits over windows smaller than this are skipped outright —
    #: a near-empty window would publish a degenerate segmentation.
    min_window_tuples: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_support <= 1.0:
            raise ValueError("min_support must be within [0, 1]")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError("min_confidence must be within [0, 1]")
        if self.min_window_tuples < 1:
            raise ValueError("min_window_tuples must be >= 1")


@dataclass(frozen=True)
class RefreshRecord:
    """One completed refit, published or skipped."""

    window_id: int
    window_tuples: int
    ingested: int
    expired: int
    n_rules: int
    rules_delta: int
    content_hash: str
    model_id: str | None     # artefact-byte hash; None when skipped
    published: bool
    seconds: float
    path: Path

    def describe(self) -> str:
        action = (
            f"published {self.model_id}" if self.published
            else "unchanged, skipped"
        )
        return (
            f"window {self.window_id}: {self.window_tuples:,} tuples "
            f"(+{self.ingested:,}/-{self.expired:,}), "
            f"{self.n_rules} rules ({self.rules_delta:+d}), "
            f"hash {self.content_hash} -> {action} "
            f"[{self.seconds:.3f}s]"
        )


class StreamRefitter:
    """Source chunks in, refreshed artefacts out.

    Parameters
    ----------
    x_layout, y_layout, rhs_encoding:
        The fixed binning vocabulary (from :meth:`repro.binning.binner.
        Binner.fit` on a reference table or declared domains).  Layouts
        never change mid-stream — changing the grid restarts the
        system, exactly as in the paper.
    window:
        The :class:`~repro.stream.window.StreamWindow` to account into.
    target_value:
        The RHS criterion value the published segmentation segments on.
    publish_dir:
        The model directory a :class:`~repro.serve.registry.ModelRegistry`
        serves from.
    name:
        Artefact stem: refits overwrite ``<publish_dir>/<name>.json``.
    """

    def __init__(self, x_layout: BinLayout, y_layout: BinLayout,
                 rhs_encoding: CategoricalEncoding,
                 window: StreamWindow, target_value,
                 publish_dir: str | Path, name: str,
                 config: RefitterConfig | None = None):
        self.x_layout = x_layout
        self.y_layout = y_layout
        self.rhs_encoding = rhs_encoding
        self.window = window
        self.target_value = target_value
        self.rhs_code = rhs_encoding.code_of(target_value)
        self.publish_dir = Path(publish_dir)
        if not self.publish_dir.is_dir():
            raise NotADirectoryError(
                f"publish directory {self.publish_dir} does not exist"
            )
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid artefact name {name!r}")
        self.name = name
        self.config = config or RefitterConfig()
        self.clusterer = GridClusterer(self.config.clusterer)
        self.published_hash: str | None = None
        self.last_record: RefreshRecord | None = None
        self._last_rules = 0
        self._ingested_since = 0
        self._expired_since = 0

    @property
    def artefact_path(self) -> Path:
        return self.publish_dir / f"{self.name}.json"

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, chunk: Table) -> RefreshRecord | None:
        """Bin one table chunk into the window; refit when due.

        Returns the :class:`RefreshRecord` when this chunk triggered a
        refit, ``None`` otherwise.
        """
        x_bins = self.x_layout.assign(
            chunk.column(self.x_layout.attribute)
        )
        y_bins = self.y_layout.assign(
            chunk.column(self.y_layout.attribute)
        )
        rhs_codes = self.rhs_encoding.encode(
            chunk.categorical_column(self.rhs_encoding.attribute)
        )
        delta = self.window.ingest(x_bins, y_bins, rhs_codes)
        metrics.inc("stream.tuples_ingested", delta.ingested)
        if delta.expired:
            metrics.inc("stream.tuples_expired", delta.expired)
        metrics.set_gauge("stream.window_tuples", delta.window_tuples)
        self._ingested_since += delta.ingested
        self._expired_since += delta.expired
        if not delta.refit_due:
            return None
        if delta.window_tuples < self.config.min_window_tuples:
            logger.debug(
                "refit due but window holds %d < %d tuples; deferring",
                delta.window_tuples, self.config.min_window_tuples,
            )
            return None
        return self.refit()

    # ------------------------------------------------------------------
    # Refitting and publishing
    # ------------------------------------------------------------------
    def refit(self) -> RefreshRecord:
        """Run the full clustering pass on the current window.

        Publishes atomically when the segmentation's content hash
        changed; skips the write (and the serving reload it would
        trigger) when it did not.
        """
        started = perf_counter()
        window_id = self.window.window_id
        window_tuples = self.window.window_tuples
        with trace("stream.refit", window=window_id,
                   tuples=window_tuples):
            outcome = self.clusterer.cluster(
                rule_measures(self.window.bin_array, self.rhs_code),
                self.config.min_support, self.config.min_confidence,
            )
            segmentation = segmentation_from_outcome(
                outcome, self.window.bin_array, self.rhs_code
            )
            content_hash = segmentation_content_hash(segmentation)
            published = content_hash != self.published_hash
            model_id = self._publish(segmentation) if published else None
        seconds = perf_counter() - started
        metrics.inc("stream.refits_run")
        metrics.observe("stream.refit_seconds", seconds)
        if published:
            metrics.inc("stream.publishes")
            self.published_hash = content_hash
        else:
            metrics.inc("stream.refits_skipped")
        record = RefreshRecord(
            window_id=window_id,
            window_tuples=window_tuples,
            ingested=self._ingested_since,
            expired=self._expired_since,
            n_rules=len(segmentation),
            rules_delta=len(segmentation) - self._last_rules,
            content_hash=content_hash,
            model_id=model_id,
            published=published,
            seconds=seconds,
            path=self.artefact_path,
        )
        events.emit(
            "stream.refresh",
            window=record.window_id,
            window_tuples=record.window_tuples,
            ingested=record.ingested,
            expired=record.expired,
            rules=record.n_rules,
            rules_delta=record.rules_delta,
            content_hash=record.content_hash,
            model_id=record.model_id,
            published=record.published,
            seconds=round(record.seconds, 6),
            path=str(record.path),
        )
        logger.info("stream refresh: %s", record.describe())
        self._last_rules = len(segmentation)
        self._ingested_since = 0
        self._expired_since = 0
        self.last_record = record
        closed = self.window.mark_refit()
        if closed:
            metrics.inc("stream.tuples_expired", closed)
            metrics.set_gauge("stream.window_tuples",
                              self.window.window_tuples)
        return record

    def _publish(self, segmentation: Segmentation) -> str:
        """Atomically (re)write the artefact; returns its model id.

        The model id is the sha256 of the artefact bytes truncated to
        12 hex chars — the same scheme
        :class:`~repro.serve.registry.ModelRegistry` derives ids with,
        so the id in a refresh event matches what ``/models`` reports
        after the hot reload.
        """
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=self.publish_dir,
            prefix=f".{self.name}.", suffix=".tmp", delete=False,
        )
        tmp_path = Path(handle.name)
        try:
            handle.close()
            # Embed the window's occupancy so served drift (`/stats`)
            # is scored against this exact window, not a stale fit.
            save_segmentation(segmentation, tmp_path,
                              bin_array=self.window.bin_array)
            model_id = hashlib.sha256(
                tmp_path.read_bytes()
            ).hexdigest()[:12]
            os.replace(tmp_path, self.artefact_path)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
        return model_id


@dataclass(frozen=True)
class WatchSummary:
    """What one bounded watch run did, for reporting and tests."""

    chunks: int
    tuples: int
    refits: int
    publishes: int
    records: tuple[RefreshRecord, ...]


def run_watch(source, refitter: StreamRefitter,
              max_refits: int | None = None,
              flush: bool = True,
              on_refresh=None) -> WatchSummary:
    """Drive source → window → refitter until the source ends.

    ``source`` is anything with a ``chunks()`` iterator of
    :class:`~repro.data.schema.Table` chunks.  ``max_refits`` bounds the
    run (useful against unbounded tail sources); ``flush`` runs one
    final refit over the residual window when the stream ends mid-window
    with unrefitted tuples, so a bounded replay always publishes its
    tail.  ``on_refresh`` is called with every
    :class:`RefreshRecord` as it completes (progress reporting).
    """
    if max_refits is not None and max_refits < 1:
        raise ValueError("max_refits must be >= 1 (or None)")
    chunks = 0
    tuples = 0
    records: list[RefreshRecord] = []

    def _note(record: RefreshRecord) -> None:
        records.append(record)
        if on_refresh is not None:
            on_refresh(record)

    for chunk in source.chunks():
        chunks += 1
        tuples += len(chunk)
        record = refitter.ingest(chunk)
        if record is not None:
            _note(record)
            if max_refits is not None and len(records) >= max_refits:
                break
    else:
        window = refitter.window
        if (flush and window.tuples_since_refit > 0
                and window.window_tuples
                >= refitter.config.min_window_tuples
                and (max_refits is None or len(records) < max_refits)):
            _note(refitter.refit())
    return WatchSummary(
        chunks=chunks,
        tuples=tuples,
        refits=len(records),
        publishes=sum(1 for record in records if record.published),
        records=tuple(records),
    )
