"""The classification kernel against a deliberately plain reference.

``repro.gis.classification`` runs Lloyd's iterations in a ``(k, n)``
layout with hoisted terms, a reused distance buffer and ``bincount``
centre updates.  The reference below is the per-class loop it replaced;
since the arithmetic — every product, every sum, in the same order — is
unchanged, the property demands *bit-identical* labels and centres, not
close ones: a derived land-cover image must not depend on which kernel
derived it.

One exception is documented rather than hidden: for a single band
(``d == 1``) NumPy's own ``mean`` switches to pairwise summation, which
``bincount`` (sequential) does not reproduce, so float-valued centres
may differ in the last bit there.  Single-band samples are generated
integer-valued, where every summation order is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.adt import Image
from repro.figures import AFRICA, build_figure2
from repro.gis import SceneGenerator, composite, decompose, kmeans
from repro.gis import superclassify, unsuperclassify
from repro.temporal import AbsTime


def reference_distances(samples, centers):
    """``‖x‖² − 2x·c + ‖c‖²`` as an ``(n, k)`` table, written out."""
    return (
        np.sum(samples**2, axis=1)[:, None]
        - 2.0 * samples @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )


def reference_kmeans(samples, k, seed=0, max_iter=50):
    """Seeded Lloyd, one Python loop over the classes per iteration."""
    n = samples.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    dist = np.sum((samples - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        centers[i] = samples[int(np.argmax(dist))]
        dist = np.minimum(dist, np.sum((samples - centers[i]) ** 2, axis=1))
    labels = np.zeros(n, dtype=np.int32)
    for iteration in range(max_iter):
        new_labels = np.argmin(reference_distances(samples, centers),
                               axis=1).astype(np.int32)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for i in range(k):
            member = samples[labels == i]
            if len(member):  # an empty class keeps its previous centre
                centers[i] = member.mean(axis=0)
    return labels, centers


@st.composite
def sample_sets(draw):
    """``(samples, k, seed, max_iter)``: few distinct integer values (so
    duplicates, coinciding seeds and empty classes are common) or float
    bands; ``k`` pinned to 1 and to ``n`` as often as drawn freely."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    integer_valued = d == 1 or draw(st.booleans())
    elements = st.integers(0, 3).map(float) if integer_valued else \
        st.floats(0.0, 255.0, allow_nan=False, width=32)
    samples = draw(arrays(np.float64, (n, d), elements=elements))
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    return (samples, k, draw(st.integers(0, 20)),
            draw(st.sampled_from([1, 2, 3, 50])))


def assert_same_bits(actual, expected):
    labels, centers = actual
    ref_labels, ref_centers = expected
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)
    assert centers.tobytes() == ref_centers.tobytes()


class TestKmeansAgainstReference:
    @given(sample_sets())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_labels_and_centres(self, case):
        samples, k, seed, max_iter = case
        assert_same_bits(kmeans(samples, k, seed=seed, max_iter=max_iter),
                         reference_kmeans(samples, k, seed, max_iter))

    def test_scene_sized_bands(self):
        """The bench's shape: 48x48 scenes, three bands, twelve classes."""
        gen = SceneGenerator(seed=5, nrow=48, ncol=48)
        samples = np.stack(
            [gen.band("africa", 1990, 7, band).data.astype(np.float64)
             for band in ("red", "nir", "green")], axis=-1).reshape(-1, 3)
        assert_same_bits(kmeans(samples, 12, seed=12),
                         reference_kmeans(samples, 12, seed=12))

    def test_empty_class_keeps_its_previous_centre(self):
        """Three classes over two distinct points: the third seed lands
        on an occupied point, never wins a pixel, and stays put."""
        samples = np.array([[0.0, 0.0]] * 3 + [[4.0, 4.0]] * 2)
        labels, centers = kmeans(samples, 3, seed=1)
        assert set(labels.tolist()) == {0, 1}
        assert centers[2].tolist() in ([0.0, 0.0], [4.0, 4.0])
        assert_same_bits((labels, centers), reference_kmeans(samples, 3, 1))

    def test_stops_at_max_iter(self):
        rng = np.random.default_rng(3)
        samples = rng.random((200, 3))
        one = kmeans(samples, 8, seed=2, max_iter=1)
        full = kmeans(samples, 8, seed=2)
        assert_same_bits(one, reference_kmeans(samples, 8, 2, max_iter=1))
        assert not np.array_equal(one[1], full[1])  # it had not converged


class TestSuperclassifyAgainstReference:
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_labels_are_the_reference_argmin(self, nbands, k, seed):
        rng = np.random.default_rng(seed)
        bands = [Image.from_array(rng.random((5, 7)), "float4")
                 for _ in range(nbands)]
        signatures = rng.random((k, nbands))
        samples = np.stack([b.data.astype(np.float64) for b in bands],
                           axis=-1).reshape(-1, nbands)
        expected = np.argmin(reference_distances(samples, signatures), axis=1)
        labels = superclassify(composite(bands), signatures)
        assert labels.shape == (5, 7) and labels.pixtype == "int2"
        assert np.array_equal(labels.data.ravel(), expected)


class TestBandCountTravelsWithTheComposite:
    """``unsuperclassify`` used to guess the band count from the
    composite's aspect ratio: three 32x48 bands read as eight 32x18
    ones, three 48x32 bands as two 48x48 ones."""

    @pytest.mark.parametrize("shape", [(32, 48), (48, 32), (16, 16)])
    def test_p20_label_image_has_the_scene_shape(self, shape):
        catalog = build_figure2()
        gen = SceneGenerator(seed=3, nrow=shape[0], ncol=shape[1])
        stamp = AbsTime.from_ymd(1990, 7, 1)
        bands = [gen.band("africa", 1990, 7, band)
                 for band in ("red", "nir", "green")]
        for name, data in zip(("red", "nir", "green"), bands):
            catalog.kernel.store.store("landsat_tm_rectified", {
                "area": "africa", "band": name, "ref_system": "long/lat",
                "ref_unit": "degree", "data": data,
                "spatialextent": AFRICA, "timestamp": stamp,
            })
        cursor = catalog.connection.cursor()
        (cover,) = cursor.execute(
            "SELECT FROM land_cover_c20 WHERE timestamp = ?",
            [stamp]).fetchall()
        assert cursor.run("SELECT FROM land_cover_c20")[0].path == "retrieve"
        assert cover["data"].shape == shape
        samples = np.stack([b.data.astype(np.float64) for b in bands],
                           axis=-1).reshape(-1, 3)
        expected, _ = reference_kmeans(samples, 12, seed=12)
        assert np.array_equal(cover["data"].data.ravel(), expected)

    def test_composite_records_and_decompose_reads_the_count(self):
        bands = [Image.from_array(np.full((2, 5), float(i)), "float4")
                 for i in range(3)]
        stacked = composite(bands)
        assert stacked.bands == 3 and bands[0].bands == 0
        assert [b.data[0, 0] for b in decompose(stacked)] == [0.0, 1.0, 2.0]

    def test_untagged_square_composites_are_still_inferred(self):
        """An image that carries no count (built outside ``composite``)
        falls back to the square-scene guess."""
        rng = np.random.default_rng(0)
        bands = [Image.from_array(rng.random((6, 6)), "float4")
                 for _ in range(3)]
        tagged = composite(bands)
        untagged = Image.from_array(tagged.data)
        assert untagged.bands == 0
        assert unsuperclassify(untagged, 3) == unsuperclassify(tagged, 3)
