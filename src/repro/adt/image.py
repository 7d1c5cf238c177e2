"""The ``image`` primitive class (paper §2.1.3).

The paper defines ``image`` with external representation
``"(nrows, ncols, pixtype, filepath)"`` and an internal struct of the same
fields, the pixels living in a file.  Here pixels live in a numpy array
(``data``); an optional ``filepath`` is kept for compatibility with the
file-based baseline and the external representation.

Supported ``pixtype`` values follow the paper: ``char``, ``int2``,
``int4``, ``float4``, ``float8``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ValueRepresentationError
from .values import value_key as _value_key

__all__ = ["Image", "PIXTYPE_DTYPES", "register_image_class"]

PIXTYPE_DTYPES: dict[str, np.dtype] = {
    "char": np.dtype(np.uint8),
    "int2": np.dtype(np.int16),
    "int4": np.dtype(np.int32),
    "float4": np.dtype(np.float32),
    "float8": np.dtype(np.float64),
}

_DTYPE_PIXTYPES = {dtype: name for name, dtype in PIXTYPE_DTYPES.items()}

_EXTERNAL_RE = re.compile(
    r"^\(\s*(\d+)\s*,\s*(\d+)\s*,\s*\"?(\w+)\"?\s*,\s*\"?([^\",)]*)\"?\s*\)$"
)


@dataclass(frozen=True)
class Image:
    """A raster image: the workhorse primitive class of Gaea.

    Immutable and value identified — operators return new images rather
    than mutating pixels in place, matching §2.1.3 ("changing the value of
    an object in a primitive class will always lead to another object").
    """

    data: np.ndarray
    filepath: str = ""
    #: Bands a composite concatenates side by side along the column axis
    #: (set by :func:`repro.gis.composite.composite`); 0 = not recorded.
    bands: int = 0
    _key: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.data, np.ndarray) or self.data.ndim != 2:
            raise ValueRepresentationError("image data must be a 2-D numpy array")
        if self.data.dtype not in _DTYPE_PIXTYPES:
            raise ValueRepresentationError(
                f"unsupported pixel dtype {self.data.dtype}; "
                f"expected one of {sorted(PIXTYPE_DTYPES)}"
            )
        # Freeze the pixel buffer so value identity cannot be violated.
        frozen = np.ascontiguousarray(self.data)
        frozen.setflags(write=False)
        object.__setattr__(self, "data", frozen)

    # -- paper's accessor operators are defined over these properties --------

    @property
    def nrow(self) -> int:
        """Number of rows (``img_nrow``)."""
        return int(self.data.shape[0])

    @property
    def ncol(self) -> int:
        """Number of columns (``img_ncol``)."""
        return int(self.data.shape[1])

    @property
    def pixtype(self) -> str:
        """Pixel data type name (``img_type``): char/int2/int4/float4/float8."""
        return _DTYPE_PIXTYPES[self.data.dtype]

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)``."""
        return (self.nrow, self.ncol)

    def size_eq(self, other: "Image") -> bool:
        """The paper's ``img_size_eq`` operator."""
        return self.shape == other.shape

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_array(array: np.ndarray, pixtype: str | None = None,
                   filepath: str = "", bands: int = 0) -> "Image":
        """Build an image from *array*, optionally casting to *pixtype*."""
        if pixtype is not None:
            if pixtype not in PIXTYPE_DTYPES:
                raise ValueRepresentationError(f"unknown pixtype {pixtype!r}")
            array = np.asarray(array).astype(PIXTYPE_DTYPES[pixtype])
        else:
            array = np.asarray(array)
        return Image(data=array, filepath=filepath, bands=bands)

    @staticmethod
    def zeros(nrow: int, ncol: int, pixtype: str = "float4") -> "Image":
        """All-zero image of the given shape and pixel type."""
        if pixtype not in PIXTYPE_DTYPES:
            raise ValueRepresentationError(f"unknown pixtype {pixtype!r}")
        return Image(data=np.zeros((nrow, ncol), dtype=PIXTYPE_DTYPES[pixtype]))

    # -- representation -------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Image":
        """Parse the paper's external representation.

        Since pixels live in arrays here, parsing builds a zero-filled
        image of the declared shape; ``filepath`` is carried through.  The
        baseline package round-trips real pixels through files.
        """
        match = _EXTERNAL_RE.match(text.strip())
        if match is None:
            raise ValueRepresentationError(f"bad image literal {text!r}")
        nrow, ncol, pixtype, filepath = match.groups()
        if pixtype not in PIXTYPE_DTYPES:
            raise ValueRepresentationError(f"unknown pixtype {pixtype!r}")
        data = np.zeros((int(nrow), int(ncol)), dtype=PIXTYPE_DTYPES[pixtype])
        return Image(data=data, filepath=filepath)

    @staticmethod
    def validate(value: Any) -> "Image":
        """Validator used by the ``image`` primitive class."""
        if isinstance(value, Image):
            return value
        if isinstance(value, np.ndarray):
            return Image.from_array(value)
        if isinstance(value, str):
            return Image.parse(value)
        raise ValueRepresentationError(
            f"image: cannot build from {type(value).__name__}"
        )

    def __str__(self) -> str:
        return f'({self.nrow}, {self.ncol}, "{self.pixtype}", "{self.filepath}")'

    # -- value identity -------------------------------------------------------

    def value_key(self) -> Any:
        """Content-based identity key (see :func:`repro.adt.values.value_key`)."""
        if self._key is None:
            object.__setattr__(
                self, "_key",
                ("image", _value_key(self.data), self.filepath, self.bands)
            )
        return self._key

    def __hash__(self) -> int:
        return hash(self.value_key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.value_key() == other.value_key()


def register_image_class(registry) -> None:
    """Register ``image`` into a :class:`~repro.adt.registry.TypeRegistry`."""
    from .registry import PrimitiveClass
    from .values import Representation

    registry.register(
        PrimitiveClass(
            name="image",
            validate=Image.validate,
            representation=Representation(parse=Image.parse, format=str),
            doc="Raster image: (nrows, ncols, pixtype, filepath).",
        )
    )
