"""FRT metric tree embeddings from LE lists (Section 7).

Pipeline (Sections 7.1-7.4):

1. sample a uniformly random vertex order (permutation) and ``β ∈ [1, 2)``;
2. compute Least-Element lists — an MBF-like algorithm (Definition 7.3,
   Lemma 7.5) — either directly on ``G`` (``SPD(G)`` iterations, the
   Khan-et-al. regime) or on the simulated graph ``H`` through the oracle
   (``O(log² n)`` iterations, the paper's main result);
3. build the FRT trees from the LE lists (Lemma 7.2), all samples at once;
4. optionally map tree edges back to graph paths (Section 7.5).

Entry points:

- :func:`~repro.frt.lelists.compute_le_lists_batch` /
  :func:`~repro.frt.lelists.compute_le_lists_batch_via_oracle` (``k``
  random orders in one pass)
- :class:`~repro.frt.forest.FRTForest` and
  :func:`~repro.frt.forest.build_frt_forest` (all ensemble trees in one
  vectorized pass, one tree being ``k = 1``; ensemble distance queries;
  ``forest.tree(s)`` cuts sample ``s`` out as a ``k = 1`` forest)
- :class:`~repro.frt.embedding.EmbeddingResult` (one sample; sampling
  itself runs through :class:`repro.api.Pipeline`, ``sample()`` /
  ``sample_ensemble(k)``, and an ensemble's per-sample views are
  :attr:`repro.api.PipelineResult.embeddings`)
- :func:`~repro.frt.stretch.evaluate_stretch`
- :func:`~repro.frt.paths.tree_edge_to_graph_path`
"""

from repro.frt.lelists import (
    compute_le_lists_batch,
    compute_le_lists_batch_via_oracle,
)
from repro.frt.forest import FRTForest, build_frt_forest
from repro.frt.embedding import EmbeddingResult
from repro.frt.stretch import StretchReport, evaluate_stretch
from repro.frt.paths import tree_edge_to_graph_path, reconstruct_graph_path

__all__ = [
    "compute_le_lists_batch",
    "compute_le_lists_batch_via_oracle",
    "FRTForest",
    "build_frt_forest",
    "EmbeddingResult",
    "StretchReport",
    "evaluate_stretch",
    "tree_edge_to_graph_path",
    "reconstruct_graph_path",
]
