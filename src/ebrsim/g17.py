"""Exact ``%.17g`` and ``repr`` text of a float64 column, computed with numpy.

Two layouts share one kernel, each byte for byte at a fraction of the
per-value cost:

- ``strings(col)`` is ``["%.17g" % x for x in col.tolist()]``, the CSV
  layout.  The 17 correctly rounded significant digits of a whole column
  come from a double-double product (a fixed-precision conversion in the
  spirit of Adams, "Ryu revisited: printf floating point conversion",
  OOPSLA 2019, on Dekker's error-free product, Numer. Math. 18, 1971).
- ``shortest(col)`` is ``list(map(repr, col.tolist()))``, the JSON layout:
  the shortest digits that round back to each value, and of those the
  nearest (Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018), found from
  the same double-double and the value's rounding interval, with ``repr``'s
  ``.0`` after an integral number.

Both build the text from table-driven bytes.  Their fast domain is
``1e-200 <= |x| < 1e16`` and the two zeros; values outside it (NaN,
infinities and the other magnitudes), and those whose digits the
double-double cannot decide (near-ties of the 17th digit, and for
``shortest`` an end of the rounding interval), are formatted one at a time
by ``"%.17g" %`` or ``repr``.

Each call formats its whole column in one pass, with about 210 bytes of
temporaries a value besides the strings it returns; the caller bounds them
by the column it passes, as a sweep does by formatting one block at a time.
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
# Least distance on shortest()'s fast path, in units of V's last digit, of an
# end of a value's rounding interval from an integer, and between the
# distances of two candidates: over ten thousand times a bound on the error
# of the ends and of those distances, which is about 2e-14.
_EDGE_MARGIN = 1e-9
# First row of each word's entries in _tables' text and keep tables;
# the four digit-group words have 324 keep rows each.
_GROUP_TEXT, _EXPONENT_TEXT = 10, 10_010
_GROUP_KEEP, _EXPONENT_KEEP = 24, 24 + 4 * 324
# Row of the ".0" word after word 5's 202 exponent rows.
_DOT_ZERO = 202
# The decimal exponents of _layout's table, -201..16, are every e that _words
# is given: _digits' floor(log10|x|) is -200..15 on the fast domain and one
# lower where log10 rounded up, a lane off the domain or a zero computes on 1
# and carries 0, and _normal adds one at N = 1e17.  So no exponent falls
# outside the table, and none is clipped.
_LEAST_EXPONENT, _EXPONENTS = -201, 218

@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The constant tables of ``strings`` and ``shortest``, built on first use.

    - ``10**s`` for ``s`` in 0..217 as a double-double ``hi + lo``: ``hi`` is
      the float64 nearest it, as its two Veltkamp halves, and ``lo`` the
      float64 nearest ``10**s - hi``;
    - the text words: word 0 for each first digit, a group's word for each
      of 0000..9999 and word 5 for each exponent 000..201, then ``.0``;
    - the keep words, whose bytes are ``0xff`` under a text byte that is
      printed and 0 elsewhere: word 0 by ``sign + 2 * lead + 12 * (point == 0)``,
      group word ``w`` (1-4) by ``18 * count + point + 1`` and word 5 by
      notation (fixed, scientific, scientific with three exponent digits,
      fixed with ``.0``);
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
    text += b".0\n\0\0\0\0\0"

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
    keep += b"\1\1\1\0\0\0\0\0"

    pair_last = np.array([0] + [2 - (v % 10 == 0) for v in range(1, 100)], dtype=np.uint8)
    last = np.where(pair_last > 0, pair_last + 2, pair_last[:, None]).ravel()
    last = (last + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (last > 0)
    text = np.frombuffer(text, dtype=np.uint8).copy().view(np.uint64)
    keep = (np.frombuffer(keep, dtype=np.uint8) * np.uint8(0xFF)).view(np.uint64)
    return hi_head, hi - hi_head, np.array(lo), text, keep, last


@functools.cache
def _layout(dot: bool) -> np.ndarray:
    """A value's layout rows, by its exponent and significant digits, built on first use.

    Column ``(e - _LEAST_EXPONENT) * 18 + significant`` is the layout of a
    value of decimal exponent ``e`` whose digits up to the last nonzero one
    number ``significant`` (1..17; 0 is never looked up): its word 5 text
    row, then its keep rows of word 0 without the sign, of words 1-4 and of
    word 5.  ``dot`` is ``_words``' layout.
    """
    exponent = np.arange(_LEAST_EXPONENT, _LEAST_EXPONENT + _EXPONENTS)[:, None]
    significant = np.arange(18)
    scientific = exponent < -4
    point = np.where(scientific, 0, exponent)
    point = np.where((point >= 0) & (significant > point + 1), point, -1)
    count = np.where(scientific, significant, np.maximum(significant, exponent + 1))
    lead = np.where(scientific | (exponent >= 0), 0, 1 - exponent)  # "0." and its zeros
    # word 5 by notation: fixed, scientific, scientific with three exponent digits
    ending = _EXPONENT_TEXT + np.where(scientific, -exponent, 0)
    notation = _EXPONENT_KEEP + scientific + (exponent <= -100)
    if dot:
        integral = (exponent >= 0) & (point < 0)
        ending = np.where(integral, _EXPONENT_TEXT + _DOT_ZERO, ending)
        notation = np.where(integral, _EXPONENT_KEEP + 3, notation)
    state = 18 * count + point + 1
    rows = [ending, 2 * lead + 12 * (point == 0)]
    rows += [_GROUP_KEEP + 324 * word + state for word in range(4)] + [notation]
    table = np.stack(np.broadcast_arrays(*rows)).reshape(7, -1).astype(np.intp)
    table.setflags(write=False)  # one table serves every caller
    return table


def _scaled(x: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, rem)`` of ``V = x * 10**(16 - e)``: the int64 ``N = round(V)`` and ``V - N``."""
    hi_head, hi_tail, lo_table = _tables()[:3]
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
    return product.astype(np.int64) + step.astype(np.int64), remainder


def _digits(col: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(fast, N, e, rem)``: whether a value takes the fast path, and its digits.

    ``N`` is the int64 of the 17 correctly rounded significant digits of
    ``|x|``, from ``1e16`` to ``1e17``, and ``e`` the decimal exponent of its
    first digit, so ``|x|`` rounds to ``N * 10**(e - 16)``; ``_normal``
    writes ``N = 1e17`` as ``1e16`` at ``e + 1``.  ``rem`` is the float64
    ``V - N`` for ``V = |x| * 10**(16 - e)``.  A value off the fast path has
    ``N = 1e16`` and, if it is zero, ``e = 0``.

    ``e`` starts as ``floor(log10|x|)``, which a value a few ulps below a
    power of ten rounds up to that power; its ``V`` falls just below
    ``1e16``, and those lanes are computed again at ``e - 1``.  A lane off
    the domain computes on 1, whose ``V`` is ``1e16`` exactly.
    """
    x = np.abs(col)
    fast = (x >= 1e-200) & (x < 1e16)
    x = np.where(fast, x, 1.0)  # the other lanes compute on 1, free of warnings
    exponent = np.floor(np.log10(x)).astype(np.int64)
    n, remainder = _scaled(x, exponent)
    # V < 1e16 only where log10 rounded up, and a decade lower V lies in [1e16, 1e17)
    low = np.flatnonzero((n < 10**16) | ((n == 10**16) & (remainder < 0)))
    if low.size:
        exponent[low] -= 1
        n[low], remainder[low] = _scaled(x[low], exponent[low])
    fast &= (np.abs(np.abs(remainder) - 0.5) > _TIE_MARGIN) & (n <= 10**17)
    return fast, np.where(fast, n, 10**16), exponent, remainder


def _normal(n: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, e)`` with ``N = 1e17`` written as ``1e16`` at ``e + 1``."""
    top = n == 10**17
    return np.where(top, 10**16, n), exponent + top


def _g17_digits(col: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(fast, N, e)`` of ``%.17g``: ``_digits``' 17 digits, and a zero fast at ``N = 0``."""
    fast, n, exponent, _ = _digits(col)
    zero = col == 0
    return (fast | zero, *_normal(np.where(zero, 0, n), exponent))  # a zero's e is 0


def _shortest_digits(col: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(fast, N, e)`` of ``repr``: its shortest digits, padded with zeros to 17.

    In ``_digits``' units ``V = N + rem``, ``|x| = m * 2**q`` (with
    ``2**52 <= m < 2**53``) is the float64 nearest every decimal strictly
    inside ``(V - lower, V + upper)``: the half-gap above is
    ``upper = 2**(q - 1) * 10**(16 - e) = V / (2 * m)``, and the half-gap below
    is ``lower = upper / 2`` for ``m = 2**52``, ``upper`` otherwise.  The
    integers inside are ``a + 1 .. b``.  ``repr`` prints the multiple of the
    largest ``10**k`` among them, the nearer to ``V`` of two: if neither the
    floor nor the ceiling of ``V`` at ``10**k`` is inside, no multiple is.
    The interval is under 23 wide (``upper <= 1e17 / 2**53``), so at most
    one multiple of 100 is inside, and where one is, it is also the multiple
    of the largest ``10**k``; so ``k`` needs testing only at 1 and 2, by
    int64 division, and ``_words`` drops the padding zeros.

    An end of the interval rounds back to ``x`` when ``m`` is even, a tie
    between two candidates goes to the even one, and ``V`` and the ends
    carry errors of about 1e-14; so a lane whose end lies within
    ``_EDGE_MARGIN`` of an integer, or whose candidates lie that close to
    equally near, is left to ``repr``.  A zero takes the fast path with
    ``N = 0``.
    """
    fast, n, exponent, remainder = _digits(col)
    bits = col.view(np.uint64) & np.uint64(2**52 - 1)  # m - 2**52
    upper = (n + remainder) / (2.0 * (bits | np.uint64(2**52)))
    lower = np.where(bits == 0, 0.5 * upper, upper)
    ends = np.stack([remainder - lower, remainder + upper])
    unsure = (np.abs(ends - np.rint(ends)) <= _EDGE_MARGIN).any(axis=0)
    a, b = n + np.floor(ends).astype(np.int64)

    # at most one multiple of 100 fits in the interval, which is under 23 wide, and
    # where one does, so does a multiple of 10: power is 10**k for k = 0, 1 or 2
    power = 1 + 9 * (b // 10 > a // 10) + 90 * (b // 100 > a // 100)
    floor = n - n % power
    nearer_ceiling = 2.0 * (n - floor) + 2.0 * remainder - power  # > 0 where V is nearer it
    floor_in, ceiling_in = floor > a, floor + power <= b
    up = ceiling_in & ~(floor_in & (nearer_ceiling < 0))
    unsure |= floor_in & ceiling_in & (np.abs(nearer_ceiling) <= _EDGE_MARGIN)
    zero = col == 0
    n, exponent = _normal(np.where(zero, 0, floor + power * up), exponent)  # a zero's e is 0
    return (fast & ~unsure) | zero, n, exponent


def _words(negative: np.ndarray, n: np.ndarray, exponent: np.ndarray, dot: bool) -> np.ndarray:
    """The ``(size, 6)`` words of each value's layout: its text bytes, 0 where not printed.

    The six words of a value are: its sign, the ``0.000`` of a fixed number
    below 1, the first digit and a point slot; four groups of four digits,
    each digit followed by a point slot; and an exponent's ``e-`` and three
    digits, or ``.0``, the separator and unused bytes.  A keep word masks
    the text bytes the layout prints: the sign of a negative value,
    ``0.`` and ``-e - 1`` zeros for a fixed number below 1, the digits up
    to the last significant one (and the integer part's), the point where a
    fraction follows it, the exponent in scientific notation (``e < -4``)
    and the separator.  With ``dot`` an integral fixed number ends in
    ``.0``, as ``repr`` prints it.  Word 5's text row and every keep row
    depend only on the number of significant digits and the exponent, so
    they are one gather from ``_layout``'s table.  Indices, words and masks
    are ``(6, size)`` rows; the result is their transposed view, whose
    ``tobytes()`` is in value order.
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
    layout = _layout(dot).take((exponent - _LEAST_EXPONENT) * 18 + significant, axis=1)

    index = np.empty((6, n.size), dtype=np.intp)
    index[0] = first
    for word, group in enumerate(groups, start=1):
        index[word] = _GROUP_TEXT + group
    index[5] = layout[0]
    keep = layout[1:]
    keep[0] += negative
    return (text_words.take(index) & keep_words.take(keep)).T


def _text(col: np.ndarray, digits, dot: bool, fallback) -> list[str]:
    """Each value's text, in one pass over the column, from ``digits`` and the ``dot`` layout.

    One ``bytes.translate`` that deletes the unprinted (zero) bytes, one
    ``decode`` and one ``split`` make every string; a value off ``digits``'
    fast path is formatted by ``fallback``.  The pass holds about 210 bytes
    of temporaries a value besides the strings (the digit columns, the
    ``(6, size)`` index, keep and word rows, and the text before and after
    ``translate``), so a caller that bounds its memory passes a bounded
    column: a sweep formats one block at a time.
    """
    fast, n, exponent = digits(col)
    words = _words(np.signbit(col), n, exponent, dot)
    text = words.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    text.pop()  # the empty string after the last separator
    slow = np.flatnonzero(~fast)
    for i, x in zip(slow.tolist(), col[slow].tolist()):
        text[i] = fallback(x)
    return text


def strings(col: np.ndarray) -> list[str]:
    """``"%.17g" % x`` for each value ``x`` of a float64 column.

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
    infinities, every other value outside the domain and every ``N`` whose
    ``V`` lies outside ``[1e16, 1e17]``.  A zero is fast with ``N = 0`` at
    ``e = 0``, which lays out as ``0``, or ``-0`` with its sign.  Where
    ``log10`` rounded a value just below a power of ten up to it, ``V`` is
    computed again at ``e - 1`` (``_digits``).  ``N = 1e17`` is ``1e16`` at
    ``e + 1``.

    Each value is laid out in six 8-byte text words, masked by six keep
    words to the bytes ``%.17g`` prints (``_words``).
    """
    return _text(col, _g17_digits, False, "%.17g".__mod__)


def shortest(col: np.ndarray) -> list[str]:
    """``repr(x)`` for each value ``x`` of a float64 column: the shortest round-trip text.

    The digits come from ``strings``' double-double ``V`` by
    ``_shortest_digits``, on the same fast domain.  A value
    ``strings`` would format one at a time, or one with an end of its
    rounding interval within ``_EDGE_MARGIN`` of an integer in ``V``'s
    units, or two candidates that near to a tie, is formatted by ``repr``.
    The layout is ``strings``' with ``repr``'s ``.0`` after an integral
    fixed number: both switch to scientific notation below ``1e-4``, and
    the fast domain ends before ``repr``'s switch at ``1e16``.
    """
    return _text(col, _shortest_digits, True, repr)
