"""Land-cover classification — ``unsuperclassify()`` and a supervised
variant.

Figure 3's process P20 derives LAND_COVER with
``unsuperclassify(composite(bands), 12)``: an unsupervised grouping of
"remotely sensed data into land cover classes based on their similarity".
We implement it as seeded k-means over the per-pixel band vectors (the
standard unsupervised classifier in early-90s GIS packages, e.g. IDRISI's
CLUSTER).

Supervised classification — the paper's §4.3 example of a process needing
user interaction — is provided as minimum-distance-to-means over training
signatures, so the limitation discussion has a concrete counterpart.
"""

from __future__ import annotations

import numpy as np

from ..adt.image import Image
from ..errors import SignatureMismatchError
from .composite import decompose

__all__ = ["kmeans", "unsuperclassify", "superclassify"]


def _nearest_center(centers: np.ndarray, norms: np.ndarray,
                    twice_t: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Index of the nearest centre per sample — the one copy of the
    squared distance ``‖x‖² − 2x·c + ‖c‖²``.

    *norms* is ``‖x‖²`` per sample and *twice_t* is ``(2·x)ᵀ``, both
    fixed for a sample set, so callers hoist them out of their loops;
    *sq* is a reusable ``(k, n)`` buffer.  The layout is ``(k, n)`` so
    every inner NumPy loop runs over the samples, not the few centres.
    """
    np.matmul(centers, twice_t, out=sq)
    np.subtract(norms, sq, out=sq)
    sq += np.sum(centers**2, axis=1)[:, None]
    return sq.argmin(axis=0)


def kmeans(samples: np.ndarray, k: int, seed: int = 0,
           max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means: returns (labels, centers).

    *samples* is ``(n, d)``.  Initialization is k-means++-style greedy
    farthest-point seeding from a deterministic RNG, so classification is
    reproducible — a property the derivation manager's memoization and
    the EXP-C reproducibility experiment rely on.

    Lloyd iterations stop when the labels repeat (or at *max_iter*).  A
    class that ends an iteration with no members keeps its previous
    centre.  Member sums run in sample order per band, so labels and
    centres are bit-identical to the plain per-class loop kept as the
    reference in ``tests/gis/test_classification.py`` (which also says
    why single-band float centres may differ in the last bit).
    """
    if samples.ndim != 2:
        raise SignatureMismatchError("kmeans: samples must be 2-D")
    n = samples.shape[0]
    if not 1 <= k <= n:
        raise SignatureMismatchError(f"kmeans: need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    dist = np.sum((samples - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        centers[i] = samples[int(np.argmax(dist))]
        dist = np.minimum(dist, np.sum((samples - centers[i]) ** 2, axis=1))
    norms = np.sum(samples**2, axis=1)
    twice_t = (2.0 * samples).T
    bands = np.ascontiguousarray(samples.T)
    sq = np.empty((k, n))
    labels = np.zeros(n, dtype=np.intp)
    for iteration in range(max_iter):
        new_labels = _nearest_center(centers, norms, twice_t, sq)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        members = np.bincount(labels, minlength=k)
        occupied = members > 0
        members = members[occupied]
        for band, column in enumerate(bands):
            sums = np.bincount(labels, weights=column, minlength=k)
            centers[occupied, band] = sums[occupied] / members
    return labels.astype(np.int32), centers


def _band_vectors(composite_img: Image, nbands: int
                  ) -> tuple[np.ndarray, tuple[int, int]]:
    """The composite's per-pixel band vectors as ``(nrow * ncol, nbands)``
    float64 samples, plus the scene shape."""
    stack = np.stack([b.data.astype(np.float64)
                      for b in decompose(composite_img, nbands)], axis=-1)
    return stack.reshape(-1, nbands), stack.shape[:2]


def unsuperclassify(composite_img: Image, numclass: int) -> Image:
    """The paper's ``unsuperclassify`` operator.

    Takes a band composite (see :mod:`repro.gis.composite`) and the class
    count; returns an int2 label raster of the scene shape.  The band
    count travels with the composite (:attr:`Image.bands`); only an
    image that carries none has it guessed from its aspect ratio.
    """
    nbands = composite_img.bands or _infer_band_count(composite_img)
    samples, shape = _band_vectors(composite_img, nbands)
    labels, _ = kmeans(samples, numclass, seed=numclass)
    return Image.from_array(labels.reshape(shape), "int2")


def _infer_band_count(composite_img: Image) -> int:
    """Guess how many equal-width bands an untagged composite
    concatenates, assuming square scenes.

    Composites put *b* same-width scenes side by side, so
    ``ncol = b * width``: an image wider than tall by an exact small
    factor is taken as that many square scenes, otherwise the largest
    *b* <= 8 dividing the width wins.  Wrong for non-square scenes —
    which is why :func:`repro.gis.composite.composite` records the count.
    """
    nrow, ncol = composite_img.shape
    if ncol % nrow == 0 and 1 <= ncol // nrow <= 16:
        return ncol // nrow
    for b in range(8, 1, -1):
        if ncol % b == 0:
            return b
    return 1


def superclassify(composite_img: Image, signatures: np.ndarray) -> Image:
    """Supervised minimum-distance classification.

    *signatures* is ``(k, nbands)`` of training class means (in a real
    workflow digitized interactively — the §4.3 limitation).  Returns an
    int2 label raster.
    """
    if signatures.ndim != 2:
        raise SignatureMismatchError("superclassify: signatures must be 2-D")
    samples, shape = _band_vectors(composite_img, signatures.shape[1])
    labels = _nearest_center(
        signatures, np.sum(samples**2, axis=1), (2.0 * samples).T,
        np.empty((len(signatures), len(samples))))
    return Image.from_array(labels.reshape(shape), "int2")
