"""Approximate metric construction (Section 6) and spanners.

- :class:`~repro.metric.approx_metric.MetricResult` — Theorem 6.1's
  ``(1+o(1))``-approximate *metric* (exact distances of ``H``), the value
  ``repro.api.Pipeline(G, cfg).embed_metric()`` returns: the pipeline
  queries its cached Section-5 oracle with APSP through
  :func:`~repro.metric.approx_metric.metric_from_oracle`.
- :func:`~repro.metric.approx_metric.approximate_metric_spanner` —
  Theorem 6.2: precompose with a Baswana–Sen ``(2k-1)``-spanner for an
  ``O(1)``-approximate metric at lower work on dense graphs.
- :func:`~repro.metric.spanner.baswana_sen_spanner` — the randomized
  ``(2k-1)``-spanner of Baswana & Sen [8], built from scratch.
"""

from repro.metric.approx_metric import (
    MetricResult,
    approximate_metric_spanner,
    metric_from_oracle,
)
from repro.metric.spanner import baswana_sen_spanner

__all__ = [
    "MetricResult",
    "metric_from_oracle",
    "approximate_metric_spanner",
    "baswana_sen_spanner",
]
