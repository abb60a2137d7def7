"""Exact ``%.17g`` text of a float64 column, computed with numpy.

``strings(col)`` returns ``["%.17g" % x for x in col.tolist()]``, byte for
byte, at a fraction of the per-value cost: the 17 correctly rounded
significant digits of a whole column come from a double-double product
(a fixed-precision conversion in the spirit of Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019, on Dekker's error-free
product, Numer. Math. 18, 1971), and the text from table-driven bytes.
Values outside the fast domain, and near-ties, are formatted one at a time.
"""

from __future__ import annotations

import functools

import numpy as np

# Veltkamp's splitting constant 2**27 + 1: it splits a float64 into two halves
# whose pairwise products are exact (Dekker, Numer. Math. 18, 1971).
_SPLIT = 134217729.0
# Least distance from 1/2 of a rounding remainder on the fast path: ten
# thousand times a bound on the remainder's own error.
_TIE_MARGIN = 1e-10
# First row of each word's entries in _tables' text and keep tables;
# the four digit-group words have 324 keep rows each.
_GROUP_TEXT, _EXPONENT_TEXT = 10, 10_010
_GROUP_KEEP, _EXPONENT_KEEP = 24, 24 + 4 * 324
# Values per pass of strings(): a pass's temporaries, about 300 bytes a
# value, stay near a 2 MB L2 cache, where 4096-value passes over an
# 11 000-value block ran faster than one pass (Xeon, 2 MB L2 per core), and a
# long column needs no more memory than one pass.
_PASS = 4096


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The constant tables of ``strings``, built on its first call.

    - ``10**s`` for ``s`` in 0..217 as a double-double ``hi + lo``: ``hi`` is
      the float64 nearest it, as its two Veltkamp halves, and ``lo`` the
      float64 nearest ``10**s - hi``;
    - the text words: word 0 for each first digit, a group's word for each
      of 0000..9999 and word 5 for each exponent 000..201;
    - the keep words: word 0 by ``sign + 2 * lead + 12 * (point == 0)``,
      group word ``w`` (1-4) by ``18 * count + point + 1`` and word 5 by
      notation (fixed, scientific, scientific with three exponent digits);
    - per group and value 0000..9999, the number of digits up to the group's
      last nonzero one, or 0.
    """
    hi, lo, power = [], [], 1
    for _ in range(218):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_head = c - (c - hi)

    # a group 100 * a + b is the digits and slots of a, then of b
    pairs = np.frombuffer(b"".join(b"%d.%d." % divmod(v, 10) for v in range(100)), np.uint32)
    groups = np.empty((100, 100, 2), dtype=np.uint32)
    groups[..., 0] = pairs[:, None]
    groups[..., 1] = pairs
    text = b"".join(b"-0.000%d." % d for d in range(10)) + groups.tobytes()
    text += b"".join(b"e-%03d\n\0\0" % e for e in range(202))

    # by word, digit count 0..17, point -1..16, and digit or slot 1..16 of the words
    rank = np.arange(1, 17).reshape(4, 1, 1, 4)
    marks = np.empty((4, 18, 18, 4, 2), dtype=np.uint8)
    marks[..., 0] = rank < np.arange(18)[:, None, None]
    marks[..., 1] = rank == np.arange(-1, 17)[:, None]
    keep = b"".join(
        bytes([sign, *(lead > k for k in range(5)), 1, point0])
        for point0 in (0, 1) for lead in range(6) for sign in (0, 1)
    )
    keep += marks.tobytes() + b"\0\0\0\0\0\1\0\0" b"\1\1\0\1\1\1\0\0" b"\1\1\1\1\1\1\0\0"

    pair_last = np.array([0] + [2 - (v % 10 == 0) for v in range(1, 100)], dtype=np.uint8)
    last = np.where(pair_last > 0, pair_last + 2, pair_last[:, None]).ravel()
    last = (last + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (last > 0)
    text, keep = (np.frombuffer(b, dtype=np.uint8).copy().view(np.uint64) for b in (text, keep))
    return hi_head, hi - hi_head, np.array(lo), text, keep, last


def _digits(col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(fast, N, e)``: whether a value takes the fast path, and its digits and exponent.

    ``N`` is the int64 of the 17 correctly rounded significant digits of
    ``|x|``, from ``1e16`` to ``1e17 - 1``, and ``e`` its decimal exponent, so
    ``|x|`` rounds to ``N * 10**(e - 16)``.  A value off the fast path has
    ``N = 1e16``.
    """
    hi_head, hi_tail, lo_table = _tables()[:3]
    x = np.abs(col)
    fast = (x >= 1e-200) & (x < 1e16)
    x = np.where(fast, x, 1.0)  # the other lanes compute on 1, free of warnings
    exponent = np.floor(np.log10(x)).astype(np.int64)
    s = 16 - exponent
    b_head, b_tail = hi_head[s], hi_tail[s]
    c = _SPLIT * x
    x_head = c - (c - x)
    x_tail = x - x_head
    product = x * (b_head + b_tail)
    error = ((x_head * b_head - product) + x_head * b_tail + x_tail * b_head) + x_tail * b_tail
    rest = error + x * lo_table[s]
    # a kept product is at least 2**53, so an integer, and N = product + rint(rest)
    step = np.rint(rest)
    remainder = rest - step  # exact where kept: |rest| < 21, step its nearest integer
    n = product.astype(np.int64) + step.astype(np.int64)
    fast &= (np.abs(np.abs(remainder) - 0.5) > _TIE_MARGIN) & (n <= 10**17)
    fast &= (n > 10**16) | ((n == 10**16) & (remainder >= 0))
    exponent += n == 10**17
    return fast, np.where(fast & (n < 10**17), n, 10**16), exponent


def _words(negative: np.ndarray, n: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``(size, 6)`` text and keep words of each value's ``%.17g`` layout.

    The six words of a value are: its sign, the ``0.000`` of a fixed number
    below 1, the first digit and a point slot; four groups of four digits,
    each digit followed by a point slot; and an exponent's ``e-`` and three
    digits, the separator and two unused bytes.  A keep byte is 1 where
    ``%.17g`` prints the text byte: the sign of a negative value, ``0.`` and
    ``-e - 1`` zeros for a fixed number below 1, the digits up to the last
    significant one (and the integer part's), the point where a fraction
    follows it, the exponent in scientific notation (``e < -4``) and the
    separator.
    """
    text_words, keep_words, last = _tables()[3:]
    high = n // 10**8
    low = n - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    groups = []
    for half in (high, low):
        top = half // 10**4
        groups += [top, half - top * 10**4]
    significant = np.maximum.reduce([table[g] for table, g in zip(last, groups)], initial=1)
    scientific = exponent < -4
    point = np.where(scientific, 0, exponent)
    point = np.where((point >= 0) & (significant > point + 1), point, -1)
    count = np.where(scientific, significant, np.maximum(significant, exponent + 1))
    lead = np.where(scientific | (exponent >= 0), 0, 1 - exponent)  # "0." and its zeros

    index = np.empty((n.size, 6), dtype=np.intp)
    index[:, 0] = first
    for word, group in enumerate(groups, start=1):
        index[:, word] = _GROUP_TEXT + group
    index[:, 5] = _EXPONENT_TEXT + np.where(scientific, -exponent, 0)
    text = text_words.take(index)
    index[:, 0] = negative + 2 * lead + 12 * (point == 0)
    state = 18 * count + point + 1
    for word in range(1, 5):
        index[:, word] = _GROUP_KEEP + 324 * (word - 1) + state
    index[:, 5] = _EXPONENT_KEEP + scientific + (exponent <= -100)
    return text, keep_words.take(index)


def strings(col: np.ndarray) -> list[str]:
    """``"%.17g" % x`` for each value ``x`` of a float64 column, ``_PASS`` values at a time.

    A finite ``x`` with ``1e-200 <= |x| < 1e16`` takes the fast path.  With
    ``e = floor(log10|x|)`` and ``s = 16 - e``, ``V = |x| * 10**s`` is computed
    as a double-double: Dekker's exact two-product of ``|x|`` with the float64
    ``hi`` nearest ``10**s``, plus ``|x| * lo`` for the remainder ``lo`` of
    ``10**s``.  Its 17 correctly rounded significant digits are the int64
    ``N = round(V)``.  Where ``N <= 1e17``, ``V`` is off by under 1e-14:
    ``2**-106 * V`` each for ``lo``'s own rounding and for that of
    ``|x| * lo``, and ``2**-53 * 21`` for adding that product to the
    two-product's error term.  So a remainder ``V - N`` within
    ``_TIE_MARGIN`` of 1/2 may be a tie that ``%.17g`` breaks to even, and
    such a value is formatted by ``"%.17g" %`` instead, as are NaN,
    infinities, zero, every value outside the domain and every ``N`` whose
    ``V`` lies outside ``[1e16, 1e17]`` because ``log10`` was one off at a
    power of ten.  ``N = 1e17`` is ``1e16`` at ``e + 1``.

    Each value is laid out in six 8-byte text words with six keep words
    that mark the bytes ``%.17g`` prints (``_words``), and one
    ``np.compress``, ``decode`` and ``split`` per pass make every string.
    """
    out: list[str] = []
    for start in range(0, col.size, _PASS):
        part = col[start : start + _PASS]
        fast, n, exponent = _digits(part)
        words, keep = _words(np.signbit(part), n, exponent)
        kept = np.compress(keep.view(bool).ravel(), words.view(np.uint8).ravel())
        text = kept.tobytes().decode("ascii").split("\n")
        text.pop()  # the empty string after the last separator
        slow = np.flatnonzero(~fast)
        for i, x in zip(slow.tolist(), part[slow].tolist()):
            text[i] = "%.17g" % x
        out += text
    return out
