"""The model registry: persisted segmentations, served by id or name.

A *model directory* is a flat directory of segmentation JSON artefacts
written by :func:`repro.persistence.save_segmentation` — the layout a
``fit --save-segmentation models/groupA.json`` workflow produces
naturally.  The registry:

* loads every ``*.json`` in the directory through the persistence
  layer, so format versioning is enforced in exactly one place;
* compiles each model's scorer once, at load, so a request never
  compiles or looks one up;
* assigns each model a **content-hash id** (sha256 of the artefact
  bytes, truncated to 12 hex chars) — two directories holding the same
  bytes serve the same ids, and an edited artefact is a *different*
  model, never a silent mutation of an existing one;
* supports **atomic hot reload**: :meth:`refresh` re-stats the
  directory and swaps in a freshly built snapshot in a single reference
  assignment.  In-flight requests that already resolved a
  :class:`ServedModel` keep scoring against the object they hold; only
  *new* resolutions see the new snapshot.  Requests are never dropped
  mid-flight by a reload.

Startup is strict — an invalid artefact fails :meth:`load` loudly, per
the persistence layer's reject-unknown-formats policy.  Once serving,
:meth:`refresh` degrades per file: a freshly corrupted artefact is
logged, counted (``serve.reload_errors``) and its previous healthy
version kept, so one bad deploy cannot take down every model.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.segmentation import Segmentation
from repro.data.summary import ReferenceProfile
from repro.obs import metrics
from repro.persistence import (
    PersistenceError,
    load_segmentation,
    segmentation_metadata,
    segmentation_reference,
)
from repro.serve.scorer import CompiledScorer, compile_scorer

logger = logging.getLogger(__name__)

__all__ = [
    "ModelDirectoryError",
    "ModelNotFoundError",
    "ModelRegistry",
    "ServedModel",
]


class ModelDirectoryError(NotADirectoryError):
    """The configured model directory does not exist.

    Subclasses :class:`NotADirectoryError` so callers catching the
    builtin (or generic :class:`OSError`) keep working; raising the
    library type is the serving layer's exception policy (enforced by
    the ``exception-policy`` checker of ``tools.analyze``).
    """


class ModelNotFoundError(KeyError):
    """No served model under the requested id or name.

    Subclasses :class:`KeyError` for compatibility with callers of
    :meth:`ModelRegistry.resolve` that treat the registry as a mapping.
    """


@dataclass(frozen=True, eq=False)
class ServedModel:
    """One loaded segmentation plus its serving identity and provenance."""

    model_id: str           # content hash, the canonical identity
    name: str               # file stem, the human-friendly alias
    path: Path
    segmentation: Segmentation
    metadata: dict          # {"library_version", "created_unix"} if saved
    loaded_at: float        # wall-clock, for /models display
    fingerprint: tuple = field(repr=False)  # (mtime_ns, size) staleness key
    scorer: CompiledScorer = field(repr=False)  # compiled at load
    #: Training occupancy for drift scoring; None for artefacts saved
    #: before reference profiles existed (drift then reads unavailable).
    reference: ReferenceProfile | None = field(default=None, repr=False)

    def describe(self) -> dict:
        """The JSON-ready ``/models`` entry for this model."""
        segmentation = self.segmentation
        return {
            "id": self.model_id,
            "name": self.name,
            "path": str(self.path),
            "x_attribute": segmentation.x_attribute,
            "y_attribute": segmentation.y_attribute,
            "rhs_attribute": segmentation.rhs_attribute,
            "rhs_value": segmentation.rhs_value,
            "n_rules": len(segmentation),
            "loaded_at": self.loaded_at,
            "metadata": dict(self.metadata),
            "reference_profile": self.reference is not None,
        }


def _content_id(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:12]


def _load_model(path: Path) -> ServedModel:
    raw = path.read_bytes()
    segmentation = load_segmentation(path)
    return ServedModel(
        model_id=_content_id(raw),
        name=path.stem,
        path=path,
        segmentation=segmentation,
        metadata=segmentation_metadata(path),
        loaded_at=time.time(),  # wall-clock: ok (display timestamp)
        fingerprint=_fingerprint(path),
        scorer=compile_scorer(segmentation),
        reference=segmentation_reference(path),
    )


def _fingerprint(path: Path) -> tuple:
    stat = path.stat()
    return (stat.st_mtime_ns, stat.st_size)


class ModelRegistry:
    """Thread-safe registry over a directory of segmentation artefacts.

    Readers resolve against an immutable snapshot dict; :meth:`refresh`
    builds a replacement and installs it with one assignment (atomic
    under the GIL), so lookups never see a half-built registry and no
    read path takes a lock.
    """

    def __init__(self, directory: str | Path,
                 refresh_interval: float = 1.0):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ModelDirectoryError(
                f"model directory {self.directory} does not exist"
            )
        #: Seconds between directory re-stats on the request path; 0
        #: re-checks on every request (tests), negative disables.
        self.refresh_interval = refresh_interval
        self._models: dict[Path, ServedModel] = {}
        self._by_key: dict[str, ServedModel] = {}
        self._last_check = float("-inf")

    # ------------------------------------------------------------------
    # Loading and refreshing
    # ------------------------------------------------------------------
    def load(self) -> "ModelRegistry":
        """Strict initial load: any invalid artefact raises."""
        models = {
            path: _load_model(path) for path in self._artefact_paths()
        }
        self._install(models)
        self._last_check = perf_counter()
        logger.info(
            "registry loaded %d model(s) from %s",
            len(models), self.directory,
        )
        return self

    def refresh(self) -> bool:
        """Re-scan the directory; returns whether anything changed.

        New and changed files are (re)loaded, deleted files dropped.  A
        file that fails to load keeps its previous healthy version (if
        any) and is counted in ``serve.reload_errors``.
        """
        changed = False
        next_models: dict[Path, ServedModel] = {}
        for path in self._artefact_paths():
            current = self._models.get(path)
            try:
                fingerprint = _fingerprint(path)
                if current is not None and (
                    current.fingerprint == fingerprint
                ):
                    next_models[path] = current
                    continue
                next_models[path] = _load_model(path)
                changed = True
                logger.info(
                    "registry %s %s as %s",
                    "reloaded" if current is not None else "loaded",
                    path.name, next_models[path].model_id,
                )
            except (OSError, PersistenceError) as error:
                metrics.inc("serve.reload_errors")
                logger.warning(
                    "registry: cannot (re)load %s (%s); %s",
                    path, error,
                    "keeping previous version" if current is not None
                    else "skipping",
                )
                if current is not None:
                    next_models[path] = current
        if set(next_models) != set(self._models):
            changed = True
        if changed:
            self._install(next_models)
            metrics.inc("serve.reloads")
        return changed

    def maybe_refresh(self) -> bool:
        """Rate-limited :meth:`refresh` for the request path."""
        if self.refresh_interval < 0:
            return False
        now = perf_counter()
        if now - self._last_check < self.refresh_interval:
            return False
        self._last_check = now
        return self.refresh()

    def _artefact_paths(self) -> list[Path]:
        return sorted(self.directory.glob("*.json"))

    def _install(self, models: dict[Path, ServedModel]) -> None:
        by_key: dict[str, ServedModel] = {}
        for model in models.values():
            by_key[model.model_id] = model
            # Names alias ids; a duplicated stem cannot occur within one
            # flat directory, so last-wins here is unreachable in
            # practice but harmless.
            by_key[model.name] = model
        # Two plain assignments; each is atomic and readers only use
        # _by_key, so a torn pair is never observable on the read path.
        self._models = models
        self._by_key = by_key
        metrics.set_gauge("serve.models_loaded", len(models))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def resolve(self, key: str) -> ServedModel:
        """A model by content-hash id or by file-stem name."""
        model = self._by_key.get(key)
        if model is None:
            raise ModelNotFoundError(
                f"no model {key!r}; serving "
                f"{sorted(m.name for m in self._models.values())}"
            )
        return model

    def models(self) -> list[ServedModel]:
        """The current snapshot, sorted by name."""
        return sorted(
            self._models.values(), key=lambda model: model.name
        )

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key
