"""The declared observability vocabulary: every metric and span name.

Instrumented code may only emit names declared here; the
``obs-catalogue`` pass of ``python -m tools.analyze`` fails CI on any
drift in either direction, and ``python -m tools.analyze --fix``
regenerates this module (preserving descriptions) plus the metric
table in ``docs/observability.md``.  Names containing ``{...}`` are
templates matching one dotted-name segment (``serve.requests_{endpoint}``);
names ending in ``{key,...}`` declare labeled series — the call site
passes ``labels={...}`` with exactly those keys (``serve.request_seconds{endpoint}``).
"""

from __future__ import annotations

__all__ = ["METRICS", "SPANS"]

#: metric name -> (kind, meaning); kinds: counter | gauge | histogram.
METRICS: dict[str, tuple[str, str]] = {
    'binner.cells_occupied':
        ('gauge',
         'cells holding at least one tuple'),
    'binner.chunks_consumed':
        ('counter',
         'chunks the binner consumed'),
    'binner.grid_cells':
        ('gauge',
         'total cells of the current grid'),
    'binner.occupancy_fraction':
        ('gauge',
         'occupied / total cells'),
    'binner.tuples_binned':
        ('counter',
         'tuples streamed into the BinArray'),
    'bitop.clusters_found':
        ('counter',
         'rectangles the greedy cover kept'),
    'bitop.rectangles_enumerated':
        ('counter',
         'candidate rectangles BitOp enumerated'),
    'engine.cells_qualified':
        ('counter',
         'cells clearing both thresholds'),
    'engine.scans':
        ('counter',
         'rule-engine passes over the BinArray'),
    'fleet.publish_seconds':
        ('histogram',
         'wall-clock per fleet publish: merging worker snapshots plus atomically replacing the fleet document'),
    'fleet.snapshots_absorbed':
        ('counter',
         'worker telemetry snapshots absorbed by the parent fleet aggregator'),
    'fleet.workers_reporting':
        ('gauge',
         'workers whose latest telemetry snapshot has been absorbed and are not draining'),
    'obs.events_emitted':
        ('counter',
         'events written to the JSONL event sink'),
    'obs.profile_samples':
        ('counter',
         'stacks collected by the sampling profiler'),
    'optimizer.helper_failures':
        ('counter',
         'search helper processes that failed to start or to answer; their trials ran in the fit process'),
    'optimizer.trial_seconds':
        ('histogram',
         'wall-clock per optimizer trial'),
    'optimizer.trials':
        ('counter',
         'threshold pairs tried'),
    'optimizer.trials_after_best':
        ('counter',
         'optimizer trials run after the winning trial of their search'),
    'pruning.clusters_dropped':
        ('counter',
         'clusters removed by dynamic pruning'),
    'pruning.clusters_kept':
        ('counter',
         'clusters surviving pruning'),
    'serve.batch_size':
        ('histogram',
         'tuples per `score` (1) or `score_batch` call'),
    'serve.compile_seconds':
        ('histogram',
         'wall-clock per scorer compilation'),
    'serve.coverage_fraction{model}':
        ('gauge',
         'fraction of recently scored points inside any rule rectangle, per model'),
    'serve.drift_js{attr,model}':
        ('gauge',
         'Jensen-Shannon divergence (bits) between training occupancy and recent traffic, per LHS attribute (plus `joint`) and model'),
    'serve.drift_psi{attr,model}':
        ('gauge',
         'Population Stability Index between training occupancy and recent traffic, per LHS attribute (plus `joint`) and model'),
    'serve.models_loaded':
        ('gauge',
         'models currently resolvable in the registry'),
    'serve.out_of_range{attr,model}':
        ('gauge',
         'fraction of recently scored points outside the trained bin range, per LHS attribute and model'),
    'serve.reload_errors':
        ('counter',
         'artefacts that failed to reload (previous version kept)'),
    'serve.reloads':
        ('counter',
         'registry refreshes that changed the model set'),
    'serve.request_errors{endpoint}':
        ('counter',
         'requests answered with a 4xx/5xx status, labeled by endpoint'),
    'serve.request_seconds{endpoint}':
        ('histogram',
         'wall-clock per request, labeled by endpoint'),
    'serve.requests':
        ('counter',
         'HTTP requests dispatched (all endpoints)'),
    'serve.requests_{endpoint}':
        ('counter',
         'requests per endpoint (`predict`, `predict_batch`, `explain`, `models`, `healthz`, `metrics`, `stats`, `fleet`, `profile`)'),
    'serve.shed_total{endpoint}':
        ('counter',
         'requests shed with HTTP 429 at the in-flight scoring bound, labeled by endpoint'),
    'serve.tuples_scored':
        ('counter',
         'tuples scored by `CompiledScorer.score` and `score_batch`'),
    'serve.worker_restarts':
        ('counter',
         'dead scoring workers restarted by the parent watchdog'),
    'serve.workers':
        ('gauge',
         'scoring worker processes the multi-process server runs (0 once drained)'),
    'smoothing.cells_flipped':
        ('counter',
         'cells changed by the low-pass filter'),
    'stream.publishes':
        ('counter',
         'refits whose changed content hash was atomically published'),
    'stream.refit_seconds':
        ('histogram',
         'wall-clock per windowed refit (cluster + publish)'),
    'stream.refits_run':
        ('counter',
         'windowed refits executed by the stream refitter'),
    'stream.refits_skipped':
        ('counter',
         'refits whose segmentation content hash was unchanged (no publish)'),
    'stream.tuples_expired':
        ('counter',
         'tuples expired from the window (sliding overflow or tumbling close)'),
    'stream.tuples_ingested':
        ('counter',
         'tuples ingested into the stream window'),
    'stream.window_tuples':
        ('gauge',
         'tuples currently contributing to the windowed BinArray'),
    'verifier.samples_drawn':
        ('counter',
         'k-of-n samples drawn'),
    'verifier.tuples_sampled':
        ('counter',
         'tuples across all samples'),
    'verifier.tuples_scanned':
        ('counter',
         'tuples read by exact verification'),
}

#: span name -> meaning (see the span tree in docs/observability.md).
SPANS: dict[str, str] = {
    'arcs.fit':
        'one full ARCS fit for a single RHS value',
    'arcs.fit_all':
        'one ARCS fit over every RHS value of the target attribute',
    'bin':
        'streaming the table into the BinArray',
    'bitop':
        'BitOp rectangle enumeration and greedy cover',
    'cli.describe':
        'the `arcs describe` command (load + profile)',
    'cli.drift':
        'the `arcs drift` command (occupancy snapshot comparison)',
    'cli.fleet':
        'the `arcs fleet` command (GET /fleet status query)',
    'cli.inspect':
        'the `arcs inspect` command (load + optional evaluation)',
    'cli.remine':
        'the `arcs remine` command (threshold re-mining)',
    'cli.score':
        'the `arcs score` command (CSV batch scoring)',
    'cli.watch':
        'the `arcs watch` command (stream -> window -> refit loop)',
    'cluster':
        'one clustering pass: mine, smooth, bitop, merge, prune',
    'fit_value':
        'one RHS value inside `arcs.fit_all`',
    'load':
        'reading the input artefact or CSV from disk',
    'merge':
        'merging adjacent clustered rectangles',
    'mine':
        'the single-pass rule engine over the BinArray',
    'optimizer.search':
        'the MDL-guided threshold search',
    'optimizer.trial':
        'one threshold pair tried by the optimizer',
    'profile':
        'profiling column types and occupancy for `describe`',
    'prune':
        'dynamic pruning of low-value clusters',
    'score':
        'scoring the input batch in `arcs score`',
    'serve.{endpoint}':
        'one HTTP request to the named serving endpoint',
    'smooth':
        'low-pass smoothing of the rule grid',
    'stream.refit':
        'one windowed refit: full clustering pass plus conditional publish',
    'verify':
        'sampled verification of the segmentation',
    'verify.exact':
        'exact full-scan verification of the segmentation',
}
