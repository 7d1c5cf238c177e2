"""Band compositing — the ``composite()`` operator of Figure 3.

``C20.data = unsuperclassify(composite(bands), 12)``: the classification
operator works on a single composite object built from the input bands.
Our composite stacks the bands into one image by interleaving them into a
feature plane; :func:`decompose` recovers the bands.  (A display-oriented
GIS would build an RGB composite; for classification what matters is that
the per-pixel band vector survives, which this encoding guarantees.)
"""

from __future__ import annotations

import numpy as np

from ..adt.image import Image
from ..errors import SignatureMismatchError

__all__ = ["composite", "decompose", "band_count"]


def composite(bands: list[Image]) -> Image:
    """Stack same-shaped bands into one image.

    The output has the bands side by side along the column axis:
    shape ``(nrow, ncol * nbands)`` — still a legal 2-D ``image`` value —
    and carries the band count (:attr:`Image.bands`), since the shape
    alone cannot tell three 32x48 scenes from eight 32x18 ones.
    """
    if not bands:
        raise SignatureMismatchError("composite: no input bands")
    first = bands[0]
    for band in bands[1:]:
        if not band.size_eq(first):
            raise SignatureMismatchError(
                f"composite: band sizes differ ({band.shape} vs {first.shape})"
            )
    stacked = np.concatenate(
        [band.data.astype(np.float64) for band in bands], axis=1
    )
    return Image.from_array(stacked, "float4", bands=len(bands))


def band_count(composite_img: Image, nrow: int, ncol: int) -> int:
    """Number of bands encoded in a composite of ``nrow x ncol`` scenes."""
    if composite_img.nrow != nrow or composite_img.ncol % ncol != 0:
        raise SignatureMismatchError(
            "band_count: composite shape does not match the scene shape"
        )
    return composite_img.ncol // ncol


def decompose(composite_img: Image, nbands: int | None = None
              ) -> list[Image]:
    """Recover the band list from a composite (*nbands* defaults to the
    count the composite carries)."""
    if nbands is None:
        nbands = composite_img.bands
    if nbands < 1 or composite_img.ncol % nbands != 0:
        raise SignatureMismatchError(
            f"decompose: {nbands} bands do not divide width "
            f"{composite_img.ncol}"
        )
    width = composite_img.ncol // nbands
    return [
        Image.from_array(
            composite_img.data[:, i * width:(i + 1) * width], "float4"
        )
        for i in range(nbands)
    ]
