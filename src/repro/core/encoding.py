"""Phase encoding of logic values (Section II).

Logic 0 is carried by a spin wave of phase 0, logic 1 by phase pi.  All
waves of one frequency channel share amplitude and wavelength, so the
interference of an odd number of them implements the majority function
directly: the resultant phase equals the phase of the majority.
"""

import math

import numpy as np

from repro.errors import EncodingError

#: Phase assigned to logic 0 [rad].
PHASE_ZERO = 0.0
#: Phase assigned to logic 1 [rad].
PHASE_ONE = math.pi


class PhaseEncoding:
    """Bidirectional mapping between logic bits and spin-wave phases.

    ``threshold`` is the decision boundary for decoding: phases with
    ``|phase| > threshold`` decode to 1.  The default of pi/2 sits
    exactly between the two code points.
    """

    def __init__(self, threshold=math.pi / 2.0):
        if not 0.0 < threshold < math.pi:
            raise EncodingError(
                f"threshold must lie strictly between 0 and pi, got {threshold!r}"
            )
        self.threshold = float(threshold)

    def encode(self, bit):
        """Phase [rad] encoding logic ``bit`` (0 or 1)."""
        bit = validate_bit(bit)
        return PHASE_ONE if bit else PHASE_ZERO

    def encode_word(self, bits):
        """List of phases for a sequence of bits."""
        return [self.encode(b) for b in bits]

    def decode(self, phase):
        """Logic bit carried by ``phase`` [rad] (any real value; wrapped)."""
        wrapped = (float(phase) + math.pi) % (2.0 * math.pi) - math.pi
        return int(abs(wrapped) > self.threshold)

    def decode_word(self, phases):
        """List of bits for a sequence of phases."""
        return [self.decode(p) for p in phases]

    def margin(self, phase):
        """Distance [rad] of ``phase`` from the decision boundary.

        Positive regardless of the decoded value; zero exactly on the
        boundary.  Larger margins mean more robust decisions.
        """
        wrapped = (float(phase) + math.pi) % (2.0 * math.pi) - math.pi
        return abs(abs(wrapped) - self.threshold)


def validate_bit(bit):
    """Return ``bit`` as int 0/1; raise EncodingError otherwise.

    NumPy bool, integer and floating scalars are accepted like their
    Python counterparts.
    """
    if isinstance(bit, (bool, np.bool_)):
        return int(bit)
    if isinstance(bit, (int, np.integer)) and bit in (0, 1):
        return int(bit)
    if isinstance(bit, (float, np.floating)) and bit in (0.0, 1.0):
        return int(bit)
    raise EncodingError(f"logic value must be 0 or 1, got {bit!r}")


def validate_word(bits, width=None):
    """Return ``bits`` as a list of ints 0/1, optionally checking width."""
    word = [validate_bit(b) for b in bits]
    if width is not None and len(word) != width:
        raise EncodingError(
            f"word has {len(word)} bits, expected {width}"
        )
    return word


def words_to_bit_array(words_batch, n_words=None, width=None):
    """Validate a batch of word tuples into an ``(n_sets, n_words, width)``
    integer array.

    The array-native counterpart of mapping :func:`validate_word` over
    every word of every batch entry: the same values are accepted (ints,
    bools and exact floats 0/1) and the same :class:`EncodingError`
    conditions raise, but the whole batch is checked with a handful of
    numpy operations instead of one Python call per bit.  An integer
    ndarray passes through the shape/value checks without the float
    round-trip -- the zero-copy fast path of array-native circuit
    execution.
    """
    if (
        isinstance(words_batch, np.ndarray)
        and words_batch.ndim == 3
        and issubclass(words_batch.dtype.type, np.integer)
    ):
        if n_words is not None and words_batch.shape[1] != n_words:
            raise EncodingError(
                f"expected {n_words} input words, got {words_batch.shape[1]}"
            )
        if width is not None and words_batch.shape[2] != width:
            raise EncodingError(
                f"word has {words_batch.shape[2]} bits, expected {width}"
            )
        bits = (
            words_batch
            if words_batch.dtype == np.int64
            else words_batch.astype(np.int64)
        )
        if not np.isin(bits, (0, 1)).all():
            raise EncodingError("logic values must all be 0 or 1")
        return bits
    try:
        arr = np.asarray(words_batch)
    except ValueError:
        arr = np.asarray(words_batch, dtype=object)
    if arr.dtype == object or arr.ndim != 3:
        raise EncodingError(
            "expected a rectangular batch of word lists "
            "(n_sets x n_words x width)"
        )
    if n_words is not None and arr.shape[1] != n_words:
        raise EncodingError(
            f"expected {n_words} input words, got {arr.shape[1]}"
        )
    if width is not None and arr.shape[2] != width:
        raise EncodingError(
            f"word has {arr.shape[2]} bits, expected {width}"
        )
    try:
        bits = arr.astype(np.int64)
        exact = np.array_equal(bits, arr)
    except (ValueError, TypeError):
        raise EncodingError("logic values must all be 0 or 1") from None
    if not exact or not np.isin(bits, (0, 1)).all():
        raise EncodingError("logic values must all be 0 or 1")
    return bits


def int_to_bits(value, width):
    """Little-endian bit list of ``value``: bit i = (value >> i) & 1.

    >>> int_to_bits(5, 4)
    [1, 0, 1, 0]
    """
    if width < 1:
        raise EncodingError(f"width must be >= 1, got {width!r}")
    if value < 0 or value >= (1 << width):
        raise EncodingError(
            f"value {value!r} does not fit in {width} bits"
        )
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits):
    """Inverse of :func:`int_to_bits` (little-endian).

    >>> bits_to_int([1, 0, 1, 0])
    5
    """
    word = validate_word(bits)
    return sum(b << i for i, b in enumerate(word))
