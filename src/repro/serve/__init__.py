"""Serving: the consumption side of ARCS.

The pipeline's end product is a small set of clustered rules meant to be
*applied* — the paper's merchandising analyst wants "which segment is
this customer in?" answered per tuple, at traffic.  This subpackage is
that missing half, in three layers:

* :mod:`repro.serve.registry` — a :class:`ModelRegistry` over a
  directory of persisted segmentation artefacts: format validation via
  :mod:`repro.persistence`, content-hash model ids, atomic hot reload;
* :mod:`repro.serve.scorer` — :func:`compile_scorer` turns a
  segmentation into an immutable position-table
  (:class:`CompiledScorer`) with O(1)-per-tuple ``score`` and a
  vectorised ``score_batch``, bit-identical to the scalar reference in
  :mod:`repro.perf.reference`;
* :mod:`repro.serve.service` / :mod:`repro.serve.app` — a stdlib-only
  threaded HTTP service (``/predict``, ``/predict_batch``, ``/explain``,
  ``/models``, ``/healthz``, ``/metrics``, ``/stats``) instrumented
  through :mod:`repro.obs`; each request is scored inline on its
  handler thread, with 429 load shedding past a fixed in-flight bound
  and a graceful drain;
* :mod:`repro.serve.monitor` — per-model :class:`TrafficMonitor` s that
  re-bin scored traffic into the training grid and score drift
  (PSI / Jensen-Shannon) against the artefact's reference profile,
  surfaced via ``GET /stats``, drift gauges and threshold events;
* :mod:`repro.serve.workers` — the pre-fork
  :class:`MultiProcessServer`: N forked workers sharing one listening
  socket, each serving and hot-reloading its own registry exactly like
  the threaded server (``arcs serve --workers N``).

CLI: ``arcs serve <model-dir>`` and ``arcs score <model> --input csv``.
Full reference: ``docs/serving.md``.
"""

from repro.serve.app import (
    create_multiprocess_server,
    create_server,
    drain_server,
    run_multiprocess_server,
    run_server,
)
from repro.serve.monitor import TrafficMonitor, TrafficMonitors
from repro.serve.registry import (
    ModelDirectoryError,
    ModelNotFoundError,
    ModelRegistry,
    ServedModel,
)
from repro.serve.scorer import CompiledScorer, ScoringError, compile_scorer
from repro.serve.service import (
    PredictionServer,
    PredictionService,
    ServiceError,
)
from repro.serve.workers import (
    MultiProcessServer,
    WorkerConfig,
    WorkerError,
)

__all__ = [
    "CompiledScorer",
    "ModelDirectoryError",
    "ModelNotFoundError",
    "ModelRegistry",
    "MultiProcessServer",
    "PredictionServer",
    "PredictionService",
    "ScoringError",
    "ServedModel",
    "ServiceError",
    "TrafficMonitor",
    "TrafficMonitors",
    "WorkerConfig",
    "WorkerError",
    "compile_scorer",
    "create_multiprocess_server",
    "create_server",
    "drain_server",
    "run_multiprocess_server",
    "run_server",
]
