"""GIS / remote-sensing substrate: the global-change workload domain.

Synthetic scene generation plus the analysis algorithms the paper's
processes invoke, and :func:`register_gis_operators` to install them into
an operator registry so processes and dataflow networks can call them by
name.
"""

from __future__ import annotations

from ..adt.operators import OperatorRegistry
from .change import (
    change_fraction,
    confusion_counts,
    label_changes,
    threshold_change,
)
from .classification import kmeans, superclassify, unsuperclassify
from .climate import (
    aridity_index,
    desert_mask_aridity,
    desert_mask_rainfall,
    dryness_quotient,
)
from .composite import band_count, composite, decompose
from .ndvi import ndvi, ndvi_difference, ndvi_ratio
from .pca import (
    compute_correlation,
    compute_covariance,
    convert_image_matrix,
    convert_matrix_image,
    get_eigen_vector,
    linear_combination,
    pca,
    spca,
)
from .synth import COVER_CLASSES, TM_BAND_NAMES, LandCoverField, SceneGenerator

__all__ = [
    "COVER_CLASSES",
    "LandCoverField",
    "SceneGenerator",
    "TM_BAND_NAMES",
    "aridity_index",
    "band_count",
    "change_fraction",
    "composite",
    "compute_correlation",
    "compute_covariance",
    "confusion_counts",
    "convert_image_matrix",
    "convert_matrix_image",
    "decompose",
    "desert_mask_aridity",
    "desert_mask_rainfall",
    "dryness_quotient",
    "get_eigen_vector",
    "kmeans",
    "label_changes",
    "linear_combination",
    "ndvi",
    "ndvi_difference",
    "ndvi_ratio",
    "pca",
    "register_gis_operators",
    "spca",
    "superclassify",
    "threshold_change",
    "unsuperclassify",
]


def register_gis_operators(ops: OperatorRegistry) -> None:
    """Install the GIS analysis operators into *ops*.

    These are the named operators the Figure-2/3/4 processes apply; the
    Figure-4 stage operators are registered under the paper's hyphenated
    names as well as Python-style aliases.
    """
    ops.register("ndvi", ["image", "image"], "image", ndvi,
                 doc="normalized difference vegetation index (red, nir)")
    ops.register("ndvi_difference", ["image", "image"], "image",
                 ndvi_difference,
                 doc="vegetation change by NDVI subtraction (later, earlier)")
    ops.register("ndvi_ratio", ["image", "image"], "image", ndvi_ratio,
                 doc="vegetation change by NDVI division (later, earlier)")
    ops.register("composite", ["setof image"], "image", composite,
                 doc="stack bands into one composite image (Figure 3)")
    ops.register("unsuperclassify", ["image", "int4"], "image",
                 unsuperclassify,
                 doc="unsupervised (k-means) land-cover classification")

    def _superclassify_op(composite_img, signatures):
        return superclassify(composite_img, signatures.data)

    ops.register("superclassify", ["image", "matrix"], "image",
                 _superclassify_op,
                 doc="supervised minimum-distance classification; the "
                     "signature matrix is digitized interactively (§4.3)")
    ops.register("label_changes", ["image", "image"], "image", label_changes,
                 doc="mask of pixels whose class label changed")
    ops.register("threshold_change", ["image", "float8"], "image",
                 threshold_change,
                 doc="significant-change mask from a change component")
    ops.register("aridity_index", ["image", "image"], "image", aridity_index,
                 doc="De Martonne aridity index (rainfall, temperature)")
    ops.register("dryness_quotient", ["image", "image"], "image",
                 dryness_quotient,
                 doc="Emberger quotient of dryness (rainfall, temperature)")
    ops.register("desert_mask_rainfall", ["image", "float8"], "image",
                 desert_mask_rainfall,
                 doc="desert mask: annual rainfall below a cutoff")
    ops.register("desert_mask_aridity", ["image", "float8"], "image",
                 desert_mask_aridity,
                 doc="desert mask: aridity index below a cutoff")

    # Figure-4 stage operators, paper-style names.
    for name in ("convert-image-matrix", "convert_image_matrix"):
        ops.register(name, ["setof image"], "setof matrix",
                     convert_image_matrix,
                     doc="images to matrices (Figure 4 stage 1)")
    for name in ("compute-covariance", "compute_covariance"):
        ops.register(name, ["setof>=2 matrix"], "matrix", compute_covariance,
                     doc="inter-image covariance (Figure 4 stage 2)")
    ops.register("compute_correlation", ["setof>=2 matrix"], "matrix",
                 compute_correlation,
                 doc="inter-image correlation (SPCA variant)")
    for name in ("get-eigen-vector", "get_eigen_vector"):
        ops.register(name, ["matrix"], "vector", get_eigen_vector,
                     doc="principal eigenvector (Figure 4 stage 3)")
    ops.register("get_eigen_vector_k", ["matrix", "int4"], "vector",
                 get_eigen_vector,
                 doc="eigenvector of a chosen component rank")
    for name in ("linear-combination", "linear_combination"):
        ops.register(name, ["vector", "setof matrix"], "setof matrix",
                     linear_combination,
                     doc="project the stack onto weights (Figure 4 stage 4)")
    for name in ("convert-matrix-image", "convert_matrix_image"):
        ops.register(name, ["setof matrix"], "setof image",
                     convert_matrix_image,
                     doc="matrices back to images (Figure 4 stage 5)")

    def _img_smooth(img, passes: int):
        from ..adt.image import Image
        from .synth import _smooth

        return Image.from_array(_smooth(img.data.astype(float), passes),
                                "float4")

    ops.register("img_smooth", ["image", "int4"], "image", _img_smooth,
                 doc="box-smooth an image (spatial interpolation helper)")

    def _first_image(images: list) -> object:
        return images[0]

    ops.register("first_image", ["setof image"], "image", _first_image,
                 doc="select the single image out of a SET OF image")

    def _pca_op(images: list, ncomp: int) -> list:
        return pca(images, ncomp)[0]

    def _spca_op(images: list, ncomp: int) -> list:
        return spca(images, ncomp)[0]

    ops.register("pca", ["setof>=2 image", "int4"], "setof image", _pca_op,
                 doc="PCA component images (compound operator, Figure 4)")
    ops.register("spca", ["setof>=2 image", "int4"], "setof image", _spca_op,
                 doc="standardized PCA component images (Eastman)")

    def _pca_change(images: list) -> object:
        comps, _ = pca(images, min(2, len(images)))
        return comps[-1]

    def _spca_change(images: list) -> object:
        comps, _ = spca(images, min(2, len(images)))
        return comps[-1]

    ops.register("pca_change", ["setof>=2 image"], "image", _pca_change,
                 doc="change component (last of 2) from PCA")
    ops.register("spca_change", ["setof>=2 image"], "image", _spca_change,
                 doc="change component (last of 2) from SPCA")
