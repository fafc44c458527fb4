"""Registry of synthetic analogs for the paper's Table 2 datasets.

The paper evaluates on ten open-source vector datasets (SIFT1M, Deep1M,
GloVe, Msong, StarLightCurves, HandOutlines, Word2vec, SpaceV1B, Sift1B).
We cannot ship those corpora, so each entry here describes a deterministic
synthetic analog that preserves the two properties Harmony's evaluation is
sensitive to:

* **dimensionality** — matches the paper exactly (Table 2 "Dim" column);
* **spectral profile** — a per-dimension variance decay exponent ``decay``
  controls how squared-distance mass accumulates across dimension blocks.
  Time-series data (Star, Hand) concentrate energy in early dimensions
  (steep decay → early pruning, as in paper Table 3); text embeddings
  (GloVe) are near-isotropic (decay ≈ 0 → late pruning).

Sizes are scaled by a scale factor ``sf`` (paper size × sf), so tests run
at a few hundred vectors and benchmarks at tens of thousands.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one synthetic dataset analog.

    Attributes mirror paper Table 2 plus generator knobs:

    * ``paper_size`` / ``paper_queries`` — the original corpus sizes, used
      as the SF=1.0 reference point.
    * ``dim`` — vector dimensionality (identical to the paper).
    * ``decay`` — per-dimension variance exponent: dimension ``j`` has
      standard deviation ``(1+j)**(-decay/2)`` (renormalized); 0 means
      isotropic.
    * ``n_centers`` — Gaussian-mixture component count (cluster structure
      that the IVF index will discover).
    * ``cluster_std`` — within-cluster noise scale relative to the
      between-center spread; smaller = tighter clusters = easier pruning.
    * ``data_type`` — Table 2 "Data Type" label, for reporting.
    """

    name: str
    paper_size: int
    dim: int
    paper_queries: int
    data_type: str
    decay: float
    n_centers: int = 48
    cluster_std: float = 0.35
    #: Log-normal sigma of the per-point radial factor. Widens the
    #: candidate-distance distribution (real embeddings are not thin
    #: Gaussian shells), which governs how gradually the per-slice
    #: pruning thresholds τ²/f_k sweep through the candidates.
    radial_sigma: float = 0.35

    def n_base(self, sf: float) -> int:
        """Number of base vectors at scale factor ``sf`` (≥ 64)."""
        return max(64, int(self.paper_size * sf))

    def n_query(self, sf: float) -> int:
        """Number of query vectors at scale factor ``sf`` (16..256)."""
        return min(256, max(16, int(self.paper_queries * sf * 8)))


#: Analogs of the eight "small" datasets used in Tables 3-5 (ordered as the
#: paper's tables list them) plus the two billion-scale sets used only in
#: the 16-node scalability experiment.
SPECS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("star", 823_600, 1024, 1_000, "Time Series", decay=1.6,
                    n_centers=36, cluster_std=0.6),
        DatasetSpec("msong", 992_272, 420, 1_000, "Audio", decay=0.6,
                    n_centers=48, cluster_std=0.8),
        DatasetSpec("sift1m", 1_000_000, 128, 10_000, "Image", decay=0.8,
                    n_centers=64, cluster_std=0.8),
        DatasetSpec("deep1m", 1_000_000, 256, 1_000, "Image", decay=0.3,
                    n_centers=64, cluster_std=1.1),
        DatasetSpec("word2vec", 1_000_000, 300, 1_000, "Word Vectors",
                    decay=0.4, n_centers=56, cluster_std=1.0),
        DatasetSpec("hand", 1_000_000, 2709, 370, "Time Series", decay=0.85,
                    n_centers=32, cluster_std=0.7),
        DatasetSpec("glove1.2m", 1_193_514, 200, 1_000, "Text", decay=0.08,
                    n_centers=64, cluster_std=1.5),
        DatasetSpec("glove2.2m", 2_196_017, 300, 1_000, "Text", decay=0.10,
                    n_centers=64, cluster_std=1.5),
        DatasetSpec("spacev1b", 1_000_000_000, 100, 10_000, "Text",
                    decay=0.5, n_centers=64, cluster_std=0.9),
        DatasetSpec("sift1b", 1_000_000_000, 128, 10_000, "Image",
                    decay=0.8, n_centers=64, cluster_std=0.8),
    ]
}

#: The eight datasets small enough for the paper's 4-node experiments
#: (Tables 3, 4, 5 and Figures 7-10 all use exactly these).
SMALL_DATASETS: tuple[str, ...] = (
    "star", "msong", "sift1m", "deep1m", "word2vec", "hand",
    "glove1.2m", "glove2.2m",
)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name (raises ``KeyError`` with choices)."""
    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choices: {sorted(SPECS)}")
