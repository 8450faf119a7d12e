"""CSV/JSON serialization and the command-line surface.

Subcommands
-----------
``synth``     generate the built-in benchmark (or a spec-file signal) plus
              exact phase priors and ground truth.
``gmd``       decompose a signal into single-shape modes.
``mmd``       decompose a signal into band-structured modes.
``diagnose``  phase differentiation statistics or residual autocorrelation.

All CSV files carry a header row, UTF-8 text, '.' decimals and floats at 17
significant digits so a write/read round trip is lossless. Exit codes: 0 on
success, 1 on validation or usage errors, 2 on I/O failures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import suppress
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import WellDiffStats, autocorrelation, partition_counts, well_diff_stats
from .errors import (
    DecompositionError,
    IoError,
    LengthMismatch,
    NonMonotonePhase,
    ParseError,
)
from .gmd import SCHEMES, GmdResult, gmd_decompose
from .mmd import MmdConfig, MmdResult, mmd_decompose
from .signal_model import (
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    ShapeTable,
    make_prior,
    make_shape,
    make_signal,
    normalize_estimate,
    scale_shape,
)
from .synth import (
    RNG_IDENTITY,
    add_noise,
    ecg_like_shape,
    gen_component,
    gen_example_4_1,
    sample_grid,
)

__all__ = [
    "read_signal_csv",
    "read_phases_csv",
    "write_signal_csv",
    "write_shape_csv",
    "write_decomposition",
    "write_report",
    "main",
]

# Rows per formatting operation. The writer walks its tables one block of
# rows at a time: it holds one table's block and the words of the block's
# first columns, which tables that share them take, never a whole table.
_BLOCK_ROWS = 8192


# ---------------------------------------------------------------------------
# "%.17g" text of float64 blocks
#
# A finite x with 1e-280 <= |x| < 1e280 is printed from its 17 significant
# digits D, 10**16 <= D < 10**17, and its decimal exponent X, found in numpy:
#
# - X starts as floor(log10 |x|). |x| * 10**(16 - X) is formed as p + s: p
#   and the first part of s are a Dekker two-product of |x| with the high
#   double of 10**(16 - X), the rest is |x| times its low double. The two
#   doubles come from exact integer arithmetic, so p + s is within 2**-46 of
#   the exact product, and D is its rounding unless the fraction lies
#   within _TIE of 1/2.
# - A product below 10**16 or from 10**17 up moves X one decade and is
#   formed again; a D that rounds up to 10**17 carries into the next decade.
#
# Each value is then laid out in four uint64 words whose unused bytes are
# NUL, and one ``bytes.translate`` deletes the NULs of a block:
#   word 0: the sign, the "0." and zeros before the digits of -4 <= X < 0,
#           and the first digit in the top byte;
#   words 1, 2: digits 2-9 and 10-17, without the trailing zeros that the
#           text drops; the dot is put in by shifting the bytes after it up
#           one place, the top byte of word 1 moving into word 2;
#   word 3: the byte shifted out of word 2, the exponent ("e-05") and the
#           separator.
# The words are little-endian, so their bytes read in text order. Zero is
# its first digit alone. NaN, inf, other magnitudes outside the range and
# near-ties are printed by "%.17g" itself (_printf_words), into the first
# three words.

_TIE = 2.0 ** -30
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_X_MIN, _X_MAX = -281, 281        # decimal exponents met while scaling
# the reader's powers of ten: D * 10**E, 1 <= D < 10**17, lies inside
# [_FAST_MIN, _FAST_MAX] for _K_MIN <= E <= _K_SURE
_K_MIN, _K_SURE = -280, 263
_E16, _E17 = 10 ** 16, 10 ** 17
_U = np.uint64
_TEXT_WORD = np.dtype("<u8")


def _powers_of_ten() -> np.ndarray:
    """Rows hi, hi's Dekker halves and lo, with hi + lo = 10**k to 2**-106
    relative, for k = _K_MIN ... 16 - _X_MIN (columns)."""
    hi, lo = [], []
    for k in range(_K_MIN, 17 - _X_MIN):
        if k >= 0:
            h = float(10 ** k)
            lo.append(float(10 ** k - int(h)))
        else:
            den = 10 ** -k
            h = 1 / den  # int division is correctly rounded
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (den * pow2))
        hi.append(h)
    hi = np.array(hi)
    c = 134217729.0 * hi  # 2**27 + 1
    hi_hi = c - (c - hi)
    return np.stack([hi, hi_hi, hi - hi_hi, np.array(lo)])


def _text_words(texts: list[bytes], size: int = 8) -> np.ndarray:
    """Each text, NUL-padded to ``size`` bytes, as ``size / 8`` words."""
    text = b"".join(t.ljust(size, b"\0") for t in texts)
    return np.frombuffer(text, _TEXT_WORD).astype(_U).reshape(len(texts), -1)


def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per decimal exponent X (index X - _X_MIN): the dot's place g in the
    digit stream (0: no dot among the digits), the prefix word and the
    suffix words, those ending in "," first, then those ending in "\\n"."""
    dot, prefix, suffix = [], [], []
    exponents = range(_X_MIN, _X_MAX + 1)
    for x in exponents:
        fixed = -4 <= x < 17
        dot.append(max(x + 1, 0) if fixed else 1)
        prefix.append(b"0." + b"0" * (-x - 1) if fixed and x < 0 else b"")
    for sep in (b",", b"\n"):
        suffix += [(b"" if -4 <= x < 17 else b"e%+03d" % x) + sep for x in exponents]
    return (np.array(dot), _text_words(prefix).ravel() << _U(8),
            _text_words(suffix).ravel() << _U(8))


_POW10 = _powers_of_ten()
_DOT_AT, _PREFIX, _SUFFIX = _exponent_tables()


def _layout_table() -> np.ndarray:
    """Columns indexed by 18 * g + nd, for dot place g and nd significant
    digits. Rows, for digit words 1 and 2: the ASCII bits of the digits
    kept, the mask of the bytes before the dot, the dot's bits."""
    low = [(1 << 8 * n) - 1 for n in range(9)]
    columns = []
    for g in range(18):
        for nd in range(18):
            kept = max(nd, g)  # an integer part keeps its zeros
            dot = g if nd > g >= 1 else None
            column = []
            for first in (1, 9):  # place of the word's first digit
                ascii_bits = 0x3030303030303030 & low[min(max(kept - first, 0), 8)]
                if dot is None or dot > first + 7:
                    column += [ascii_bits, low[8], 0]
                elif dot < first:
                    column += [ascii_bits, 0, 0]
                else:
                    column += [ascii_bits, low[dot - first], 0x2E << 8 * (dot - first)]
            columns.append(column)
    return np.array(columns, dtype=_U).T.copy()


_LAYOUT = _layout_table()


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a * 10**(16 - x). The integer part is
    exact from 2**53 up; below, it is only known to lie below 10**16."""
    hi, hi_hi, hi_lo, lo = _POW10.take(16 - _K_MIN - x, axis=1)
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    s = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    floor_s = np.floor(s)
    return p.astype(np.int64) + floor_s.astype(np.int64), s - floor_s


def _decimal_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit D and exponent X of each value, and where they are certain.
    Zero gets D = 0, which the layout prints as "0"."""
    a = np.abs(v)
    with np.errstate(invalid="ignore"):  # comparisons with NaN
        fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
        zero = a == 0.0
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, x)
    low, high = n < _E16, n >= _E17
    again = low | high
    if again.any():
        x = x - low + high
        n[again], frac[again] = _scaled(a[again], x[again])
    d = n + (frac > 0.5)
    fast &= (d >= _E16) & (d <= _E17) & (np.abs(frac - 0.5) > _TIE)
    carry = d == _E17
    d[carry] = _E16
    x += carry
    d[~fast] = _E16
    x[~fast] = 0
    d[zero] = 0
    return d, x, fast | zero


def _digit_bytes(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10**8 as bytes 0-9, first digit in
    the lowest byte."""
    t = n // _U(10000)
    w = t | ((n - t * _U(10000)) << _U(32))
    t = ((w * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # // 100 a half
    w = t | ((w - t * _U(100)) << _U(16))
    t = ((w * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10 a quarter
    return t | ((w - t * _U(10)) << _U(8))


def _used_bytes(w: np.ndarray) -> np.ndarray:
    """1 + the place of the highest nonzero byte of words of bytes 0-9."""
    m = (w + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)
    m |= m >> _U(8)
    m |= m >> _U(16)
    m |= m >> _U(32)
    return (((m >> _U(7)) * _U(0x0101010101010101)) >> _U(56)).view(np.int64)


def _printf_words(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % value`` of each value, NUL-padded to three words."""
    return _text_words([("%.17g" % t).encode("ascii") for t in values.tolist()], 24)


def _value_words(block: np.ndarray, ends_rows: bool) -> np.ndarray:
    """The four words of each value of a 2-d float block, in row order,
    each value ending in "," but, when ``ends_rows``, the last column's
    in "\\n".

    Each block-sized array is deleted once used: that keeps the heap of a
    block near 17 arrays of its size, against 30 when they all live to the
    end.
    """
    v = block.ravel()
    d, x, fast = _decimal_digits(v)
    d = d.view(np.uint64)
    q = d // _U(10 ** 8)
    first = q // _U(10 ** 8)
    digits = np.empty((2, v.size), _U)
    np.subtract(q, first * _U(10 ** 8), out=digits[0])
    np.subtract(d, q * _U(10 ** 8), out=digits[1])
    del d, q
    digits = _digit_bytes(digits)
    used = _used_bytes(digits)
    nd = np.where(used[1] != 0, used[1] + 9, used[0] + 1)
    del used
    x -= _X_MIN
    layout = _LAYOUT.take(18 * _DOT_AT[x] + nd, axis=1)
    del nd
    words = np.empty((v.size, 4), _U)
    np.bitwise_or(_PREFIX[x] | (first + _U(0x30)) << _U(56),
                  np.signbit(v) * _U(0x2D), out=words[:, 0])
    del first
    shifted = _U(0)  # the top byte shifted out of the word before
    for i, (ascii_bits, below, dot) in enumerate((layout[:3], layout[3:])):
        w = digits[i] | ascii_bits
        above = w & ~below
        w &= below
        w |= dot
        w |= shifted
        shifted = above >> _U(56)
        above <<= _U(8)
        np.bitwise_or(w, above, out=words[:, 1 + i])
    del layout, digits, w, above
    if ends_rows:  # the second half of _SUFFIX
        x.reshape(block.shape)[:, -1] += _DOT_AT.size
    np.bitwise_or(shifted, _SUFFIX[x], out=words[:, 3])
    slow = np.flatnonzero(~fast)
    if slow.size:
        words[slow, :3] = _printf_words(v[slow])
    return words


def _format_rows(columns: list[np.ndarray], firsts: list) -> bytes:
    """The CSV rows of a block of equal-length columns, each value as
    ``"%.17g"`` prints it.

    ``firsts`` holds ``(bits, ends_rows, words)`` of the first columns
    already formatted for this block of rows: a first column whose bits and
    row end match one of them takes its words, any other is formatted and
    added. Bits, not values, decide, since ``-0.0 == 0.0``.
    """
    first, rest = columns[0], columns[1:]
    bits, ends_rows = first.view(_U), not rest
    words = next((w for b, e, w in firsts
                  if e == ends_rows and np.array_equal(b, bits)), None)
    if words is None:
        words = _value_words(first[:, None], ends_rows)
        firsts.append((bits, ends_rows, words))
    if rest:
        rest_words = _value_words(np.column_stack(rest), True)
        words = np.concatenate([words[:, None], rest_words.reshape(first.size, -1, 4)],
                               axis=1)
    return words.astype(_TEXT_WORD, copy=False).tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# float64 values of CSV text blocks
#
# A table of ASCII rows is read a block of whole rows at a time, its fields
# split on "," and "\n", under a header line of printable ASCII. Each field
# is parsed in numpy:
#
# - The 24 bytes that end at the field's end are gathered as three uint64
#   words from the aligned words of a padded copy of the block, and a
#   SWAR test marks the bytes that are not digits. The lowest marks above a
#   leading "-" give the dot and the "e", whose bytes are checked, and the
#   marks left over must be the exponent's sign alone.
# - The exponent's digits, at most four, are read from the last word. The
#   words are shifted so that the mantissa ends the window, and the dot is
#   taken out by moving the bytes before it up one place. The bytes before
#   the mantissa become zero digits, so a leading zero is no digit of D.
# - Digits 18-24 from the right must be zeros. D is the 17th digit and two
#   8-digit words, each assembled by three multiplications.
# - D * 10**E is the double-double dh * (hi + lo) + dl * hi, with dh + dl = D
#   exactly, summed to p + s within 2**-102 of it, relative, and rounded
#   once. Near a rounding boundary |s| is at least a quarter ulp, 2**-55
#   relative, so when p + s * (1 - _TIE) and p + s * (1 + _TIE) round to the
#   same double, no boundary lies within 2**-85 of p + s and that double,
#   the rounding of p + s, is the one nearest D * 10**E.
# The first field this parser does not round exactly sends the whole file to
# the line parser: one off -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)? (whitespace,
# "+1", "nan", a CR, a blank or ragged line), over 24 bytes, of more than 17
# significant digits or 4 exponent digits, of E outside _K_MIN ... _K_SURE,
# or a near-tie. The writer's digits lie 0.05 ulp or more from a boundary, so
# its fields are all rounded here from about 1e-264 to 1e277.

_READ_BYTES = 1 << 18   # text per block of rows
_PAD = 24               # bytes before a block's text, and after it
_DIGITS = _U(0x3030303030303030)


def _mantissa_masks() -> np.ndarray:
    """Columns indexed by 25 * f + i, for f digits after the dot and i
    before it: rows 0-2 the bytes [24 - f, 24) of a 24-byte window, rows
    3-5 the bytes [23 - f - i, 23 - f) (the digits before the dot)."""
    f, i = np.divmod(np.arange(25 * 25), 25)
    rows = []
    for first, end in ((24 - f, 24 + 0 * f), (23 - f - i, 23 - f)):
        for word in range(3):
            lo, hi = (np.clip(b - 8 * word, 0, 8).astype(_U) * _U(8) for b in (first, end))
            rows.append(((_U(1) << hi) - _U(1)) & ~((_U(1) << lo) - _U(1)))
    return np.array(rows)


_MANTISSA = _mantissa_masks()


def _lowest_bit(k: np.ndarray) -> np.ndarray:
    """The place of the lowest set bit of each 0 < k < 2**53, from the
    exponent of that bit as a double."""
    return ((k & -k).astype(np.float64).view(np.int64) >> 52) - 1023


def _windows(buf: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The bytes buf[end : end + 24] of each end as three little-endian
    words, each XORed with ASCII zeros: digits become bytes 0-9."""
    aligned = buf.view(_U).take((end >> 3) + np.arange(4)[:, None])
    r = ((end & 7) << 3).astype(_U)
    t = aligned[:3] >> r
    t |= aligned[1:] << (_U(64) - r)
    t ^= _DIGITS
    return t


def _product(d: np.ndarray, e: np.ndarray, neg: np.ndarray):
    """The double nearest each D * 10**E, signed, and where it is certain."""
    col = e - _K_MIN
    hi, hi_hi, hi_lo, lo = _POW10.take(col, axis=1, mode="clip")
    dh = d.astype(np.float64)
    dl = (d.view(np.int64) - dh.astype(np.int64)).astype(np.float64)
    c = 134217729.0 * dh  # 2**27 + 1
    a_hi = c - (c - dh)
    a_lo = dh - a_hi
    p = dh * hi
    s = ((((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo)
         + dh * lo + dl * hi)
    sure = p + s * (1.0 - _TIE) == p + s * (1.0 + _TIE)
    sure &= col.view(_U) <= _U(_K_SURE - _K_MIN)
    sure |= d == _U(0)
    v = (p + s).view(_U) | (neg.astype(_U) << _U(63))
    return v.view(np.float64), sure


def _block_values(buf: np.ndarray, n: int, width: int) -> np.ndarray | None:
    """Values of the n bytes of whole rows at buf[_PAD:], each the double
    nearest its field; None when a row is not ``width`` fields or a field is
    not one this parser rounds exactly."""
    text = buf[_PAD:_PAD + n]
    end = np.flatnonzero(text <= 44)  # "," and "\n"; "+" and bytes off the grammar
    byte = text.take(end)
    plus = byte == 43
    if plus.any():
        end, byte = end[~plus], byte[~plus]
    newline = byte == 10
    if (end.size % width or not newline[width - 1::width].all()
            or np.count_nonzero(newline) * width != end.size
            or not ((byte == 44) | newline).all()):
        return None
    # places are counted in the window of 24 bytes that ends the field,
    # which starts at buf[end]: 24 less the field's length before it
    lead = 25 - np.diff(end, prepend=-1)
    if (lead < 0).any():  # a field over 24 bytes
        return None
    t = _windows(buf, end)
    nd = ((t & _U(0x7F7F7F7F7F7F7F7F)) + _U(0x7676767676767676)) | t
    nd &= _U(0x8080808080808080)  # the top bit of each byte not a digit
    nd >>= _U(7)
    nd *= _U(0x0102040810204080)  # gathers the top bits into the top byte
    nd >>= _U(56)
    marks = (nd[0] | (nd[1] << _U(8)) | (nd[2] << _U(16))).view(np.int64)
    del nd
    neg = buf.take(end + lead) == 45
    lead += neg
    marks >>= lead
    marks <<= lead
    marks |= 1 << 24
    dot_at = _lowest_bit(marks)
    dot = buf.take(end + dot_at) == 46
    marks &= marks - dot
    cut = _lowest_bit(marks)  # the mantissa's end
    has_e = (buf.take(end + cut) | 32) == 101
    valid = (dot_at > lead) & ((cut - dot_at >= 2) | ~dot)
    if has_e.any():
        after_e = buf.take(end + cut + 1)
        exp_neg = (after_e == 45) & has_e
        sign = (after_e == 43) & has_e | exp_neg
        marks ^= (1 << cut) | (sign.astype(np.int64) << (cut + 1))
        exp_digits = 23 - cut - sign
        valid &= ((exp_digits >= 1) == has_e) & (marks == has_e.astype(np.int64) << 24)
        valid &= exp_digits <= 4
        unused = _U(32) - (np.clip(exp_digits, 0, 4).astype(_U) << _U(3))
        x = (t[2] >> _U(32)) & (_U(0xFFFFFFFF) << unused)  # the last 4 bytes
        x = ((x * _U(2561)) >> _U(8)) & _U(0x00FF00FF)
        x = (((x * _U(6553601)) >> _U(16)) & _U(0xFFFF)).view(np.int64)
        e = np.where(exp_neg, -x, x)
        shift = ((24 - cut) << 3).astype(_U)
        m = t << shift
        m[1:] |= t[:-1] >> (_U(64) - shift)
    else:
        valid &= cut == 24
        e, m = 0, t
    if not valid.all():
        return None
    del t
    after = cut - np.where(dot, dot_at + 1, lead)
    masks = _MANTISSA.take(25 * after + (dot_at - lead) * dot, axis=1, mode="clip")
    before = m & masks[3:]
    m &= masks[:3]
    m |= before << _U(8)
    m[1:] |= before[:-1] >> _U(56)
    del before, masks
    if (m[0] << _U(8)).any():  # digits 18-24 from the right
        return None
    d = m[0] >> _U(56)
    m = m[1:]
    m *= _U(2561)  # pairs of digits
    m >>= _U(8)
    m &= _U(0x00FF00FF00FF00FF)
    m *= _U(6553601)  # fours
    m >>= _U(16)
    m &= _U(0x0000FFFF0000FFFF)
    m *= _U(42949672960001)  # eights
    m >>= _U(32)
    d *= _U(10 ** 8)
    d += m[0]
    d *= _U(10 ** 8)
    d += m[1]
    del m
    with np.errstate(over="ignore", invalid="ignore"):
        values, certain = _product(d, e - after * dot, neg)
    return values if certain.all() else None


def _parse_blocks(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """The block parser on a header line and rows of fields it rounds
    exactly; None when the text is anything else."""
    lo = raw.find(b"\n") + 1 or len(raw) + 1  # not partition: it copies the rows
    first = raw[:lo - 1]
    if (not first.isascii() or not first.decode("ascii").isprintable()
            or first.strip() == b""):
        return None
    header = [h.strip() for h in first.decode("ascii").split(",")]
    view = np.frombuffer(raw, np.uint8)
    rows = sum(np.count_nonzero(view[at:at + _READ_BYTES] == 10)
               for at in range(lo, len(raw), _READ_BYTES))
    rows += lo < len(raw) and raw[-1] != 10
    flat = np.empty(rows * len(header))
    buf = np.zeros(0, _U)
    done = 0
    while lo < len(raw):
        hi = (raw.rfind(b"\n", lo, lo + _READ_BYTES) + 1
              or raw.find(b"\n", lo + _READ_BYTES) + 1 or len(raw))
        size = hi - lo
        if buf.size * 8 < size + 2 * _PAD + 8:
            buf = np.zeros((size + 2 * _PAD) // 8 + 2, _U)
        text = buf.view(np.uint8)
        text[_PAD:_PAD + size] = view[lo:hi]
        text[_PAD + size] = 10  # ends a last row that has no "\n"
        values = _block_values(text, size + (raw[hi - 1] != 10), len(header))
        if values is None:
            return None
        flat[done:done + values.size] = values
        done += values.size
        lo = hi
    return header, flat.reshape(rows, len(header))


# ---------------------------------------------------------------------------
# CSV / JSON primitives

def _checked_columns(path: Path, header: list[str], columns) -> list[np.ndarray]:
    """``columns`` as float arrays, after :class:`LengthMismatch` checks."""
    cols = [np.asarray(col, dtype=float) for col in columns]
    if len(header) != len(cols):
        raise LengthMismatch(f"cannot write {path}: {len(header)} header "
                             f"names for {len(cols)} columns")
    if not cols or any(col.ndim != 1 or col.size != cols[0].size for col in cols):
        raise LengthMismatch(f"cannot write {path}: columns must be 1-d and "
                             f"of equal length, got shapes "
                             f"{[col.shape for col in cols]}")
    return cols


def _write_tables(tables: list[tuple[Path, list[str], list]]) -> None:
    """Write each ``(path, header, columns)`` table: a header row, then one
    row per sample at 17 significant digits.

    The bytes are those of ``"%.17g" % value`` for every value, joined by
    ``,`` and ``\\n``; :func:`_format_rows` makes them in numpy, one block
    of ``_BLOCK_ROWS`` rows of every table at a time, so that a first
    column the tables share (a command's ``t``) is formatted once per block
    and the writer holds one block, not a whole table. Every table is
    checked before any file is opened: a header whose width differs from
    the column count, or columns of unequal length, raise
    :class:`LengthMismatch`. An ``OSError`` is an :class:`IoError` naming
    the file, raised once every file is closed.
    """
    checked = [(path, header, _checked_columns(path, header, columns))
               for path, header, columns in tables]
    files = []
    try:
        # ``path`` names the file of the call that raised
        for path, header, _ in checked:
            files.append(open(path, "wb"))
            files[-1].write((",".join(header) + "\n").encode("utf-8"))
        rows = max((cols[0].size for _, _, cols in checked), default=0)
        for start in range(0, rows, _BLOCK_ROWS):
            firsts = []
            for fh, (path, _, cols) in zip(files, checked):
                block = [col[start:start + _BLOCK_ROWS] for col in cols]
                if block[0].size:
                    fh.write(_format_rows(block, firsts))
        for fh, (path, _, _) in zip(files, checked):
            fh.close()
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        for fh in files:
            with suppress(OSError):  # the error raised above says why
                fh.close()


def _parse_lines(path: Path, text: str) -> tuple[list[str], np.ndarray]:
    """The line parser: blank lines skipped, each field read by ``float``.

    It alone decides what is an error; a ``ParseError`` names the line by
    its number in the file, blank lines included, as ``str.splitlines``
    splits it.
    """
    lines = [(ln_no, ln) for ln_no, ln in enumerate(text.splitlines(), 1)
             if ln.strip() != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0][1].split(",")]
    width = len(header)
    data = np.empty((len(lines) - 1, width))
    for row, (ln_no, line) in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{path}:{ln_no}: expected {width} columns, "
                             f"got {len(parts)}")
        try:
            data[row] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{ln_no}: {exc}") from exc
    return header, data


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a CSV table.

    The file is read once. :func:`_parse_blocks` reads tables of the
    writer's grammar that it rounds exactly, :func:`_parse_lines` every file
    it declines. Every value is bit for bit what ``float`` reads from its
    field, and the accepted files and the errors are the line parser's.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    table = _parse_blocks(raw)
    if table is not None:
        return table
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return _parse_lines(path, text)


def _signal_table(path, signal: SampledSignal) -> tuple:
    return Path(path), ["t", "value"], [signal.times, signal.values]


def write_signal_csv(path, signal: SampledSignal) -> None:
    _write_tables([_signal_table(path, signal)])


def read_signal_csv(path) -> SampledSignal:
    header, data = _read_table(Path(path))
    if header[:2] != ["t", "value"] or len(header) != 2:
        raise ParseError(f"{path}: expected header 't,value'")
    return make_signal(data[:, 0], data[:, 1])


def _phases_table(path, times: np.ndarray, priors: list[PhasePrior]) -> tuple:
    numbers = range(1, len(priors) + 1)
    header = ["t"] + [f"p{k}" for k in numbers] + [f"q{k}" for k in numbers]
    return (Path(path), header,
            [times] + [p.phase for p in priors] + [p.amplitude for p in priors])


def write_phases_csv(path, times: np.ndarray, priors: list[PhasePrior]) -> None:
    _write_tables([_phases_table(path, times, priors)])


def _numbered_columns(path, header: list[str], prefix: str) -> list[int]:
    """Column positions of ``<prefix>1..<prefix>K``, ordered by number."""
    found: dict[int, int] = {}
    for col, name in enumerate(header):
        if not name.startswith(prefix):
            continue
        suffix = name[len(prefix):]
        if not (suffix.isascii() and suffix.isdigit() and suffix[0] != "0"):
            raise ParseError(f"{path}: unknown column {name!r}")
        if int(suffix) in found:
            raise ParseError(f"{path}: duplicate column {name!r}")
        found[int(suffix)] = col
    missing = sorted(set(range(1, len(found) + 1)) - set(found))
    if missing:
        raise ParseError(f"{path}: missing column {prefix}{missing[0]}")
    return [found[k] for k in range(1, len(found) + 1)]


def read_phases_csv(path) -> tuple[np.ndarray, list[PhasePrior]]:
    """Parse a phase-prior file: column t, then p1..pK, optionally q1..qK.

    Columns are matched by name, so ``qK`` is the amplitude of ``pK``
    wherever either column sits; any other column is a ``ParseError``.
    """
    header, data = _read_table(Path(path))
    if not header or header[0] != "t":
        raise ParseError(f"{path}: first column must be 't'")
    p_cols = _numbered_columns(path, header, "p")
    q_cols = _numbered_columns(path, header, "q")
    unknown = [h for col, h in enumerate(header) if col not in {0, *p_cols, *q_cols}]
    if unknown:
        raise ParseError(f"{path}: unknown column {unknown[0]!r}")
    if not p_cols:
        raise ParseError(f"{path}: no phase columns (p1, p2, ...)")
    if q_cols and len(q_cols) != len(p_cols):
        raise ParseError(f"{path}: amplitude columns must match phase columns")
    if data.shape[0] < 2:
        raise ParseError(f"{path}: need at least 2 rows")
    times = data[:, 0]
    priors = []
    for which, col in enumerate(p_cols):
        phase = data[:, col]
        if np.any(phase[1:] <= phase[:-1]):
            raise NonMonotonePhase(
                f"{path}: column {header[col]} is not strictly increasing")
        amplitude = data[:, q_cols[which]] if q_cols else None
        priors.append(make_prior(phase, amplitude))
    return times, priors


def _shape_table(path, shape: ShapeTable) -> tuple:
    centers = (np.arange(shape.size) + 0.5) / shape.size
    return Path(path), ["x", "value"], [centers, shape.bins]


def write_shape_csv(path, shape: ShapeTable) -> None:
    _write_tables([_shape_table(path, shape)])


def _band_shape_tables(directory: Path, k: int, est: MimfEstimate) -> list[tuple]:
    """One ``shape_{c|s}{n}_k{k}.csv`` table per band table of component ``k``."""
    return [_shape_table(directory / f"shape_{kind}{n}_k{k}.csv", table)
            for kind, shapes in (("c", est.cos_shapes), ("s", est.sin_shapes))
            for n, table in sorted(shapes.items())]


def read_shape_csv(path) -> ShapeTable:
    """A shape table from ``x,value`` rows, as :func:`write_shape_csv`
    writes them: row ``j`` of ``B`` lies in bin ``j``, ``floor(x B) = j``.
    A ``ParseError`` names the first row that does not, counted from 1
    below the header."""
    header, data = _read_table(Path(path))
    if header != ["x", "value"]:
        raise ParseError(f"{path}: expected header 'x,value'")
    x = data[:, 0]
    with np.errstate(over="ignore"):
        misplaced = np.flatnonzero(np.floor(x * x.size) != np.arange(x.size))
    if misplaced.size:
        j = int(misplaced[0])
        raise ParseError(f"{path}: row {j + 1}: x = {float(x[j])!r} is not "
                         f"in bin {j} of {x.size}")
    return make_shape(data[:, 1])


def read_coefficients_csv(path) -> dict:
    """Coefficient rows keyed by (component, band) -> (a_n, b_n).

    ``k`` and ``n`` must be integers and each pair must appear once; a
    ``ParseError`` names the row, counted from 1 below the header.
    """
    header, data = _read_table(Path(path))
    if header != ["k", "n", "a_n", "b_n"]:
        raise ParseError(f"{path}: expected header 'k,n,a_n,b_n'")
    coeffs = {}
    for row, (k, n, a, b) in enumerate(data.tolist(), 1):
        if not (k.is_integer() and n.is_integer()):
            raise ParseError(f"{path}: row {row}: k and n must be integers, "
                             f"got {k!r}, {n!r}")
        if (int(k), int(n)) in coeffs:
            raise ParseError(f"{path}: row {row}: repeated k, n = "
                             f"{int(k)}, {int(n)}")
        coeffs[int(k), int(n)] = (a, b)
    return coeffs


def _write_json(path: Path, payload) -> Path:
    """Write ``payload`` as canonical JSON; returns the file path.

    Raises :class:`DecompositionError` rather than write a non-finite
    number, which JSON cannot represent.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DecompositionError(f"cannot write {path}: {exc}") from exc
    try:
        path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_report(directory, report, stats: WellDiffStats | None = None,
                 config: dict | None = None,
                 stats_error: str | None = None) -> Path:
    """Serialize the run report as canonical JSON; returns the file path.

    ``config`` is recorded as given: the parameters the solver ran with.
    ``stats_error`` says why the phase statistics are missing, if they are.
    """
    return _write_json(Path(directory) / "report.json", {
        "residual_norms": list(report.residual_norms),
        "shape_increment_norms": list(report.shape_increment_norms),
        "stop_reason": report.stop_reason.value,
        "iterations": report.iterations,
        "accelerated": list(report.accelerated),
        "gamma": None if stats is None else stats.gamma,
        "beta": None if stats is None else stats.beta,
        "contraction_bound": None if stats is None else stats.contraction_bound,
        "phase_stats_error": stats_error,
        "config": config,
    })


def read_report(path) -> dict:
    """Parse a JSON file: a run report or a ``synth --spec`` file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_decomposition(directory, result, stats: WellDiffStats | None = None,
                        config: dict | None = None,
                        stats_error: str | None = None) -> None:
    """Write modes, shapes, residual and the JSON report, and for an mmd
    result its coefficients.

    The mmd shape files hold unit-norm shapes, so ``a_n`` and ``b_n`` from
    ``coefficients.csv`` times them rebuild each ``mode_k.csv``. Every
    table is made before ``directory`` is created, so that a refusal
    leaves none; the modes and the residual, which share ``t``, are
    written in one call.
    """
    out = Path(directory)
    if isinstance(result, GmdResult):
        modes = result.modes
        others = [_shape_table(out / f"shape_{k}.csv", shape)
                  for k, shape in enumerate(result.shapes, 1)]
    elif isinstance(result, MmdResult):
        estimates = list(map(normalize_estimate, result.estimates))
        modes = [est.mode for est in estimates]
        others, rows = [], []
        for k, est in enumerate(estimates, 1):
            others += _band_shape_tables(out, k, est)
            rows += [(k, n, est.cos_coeffs.get(n, 0.0), est.sin_coeffs.get(n, 0.0))
                     for n in range(-est.bandwidth, est.bandwidth + 1)]
        others.append((out / "coefficients.csv", ["k", "n", "a_n", "b_n"],
                       list(np.array(rows, dtype=float).T)))
    else:
        raise DecompositionError(f"unknown result type {type(result)!r}")
    series = [_signal_table(out / f"mode_{k}.csv", mode)
              for k, mode in enumerate(modes, 1)]
    series.append(_signal_table(out / "residual.csv", result.residual))

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    _write_tables(series)
    for table in others:  # one at a time: a file handle each
        _write_tables([table])
    write_report(out, result.report, stats, config, stats_error)


# ---------------------------------------------------------------------------
# synth spec files

def _spec_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: must be a JSON object")
    return value


def _spec_number(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, not ``bool``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    # NaN, the infinities and integers beyond the doubles fail the bound
    return float(value) if abs(value) <= sys.float_info.max else None


def _spec_field(obj: dict, key: str, where: str, kind=float, default=None):
    """``obj[key]``, or ``default`` when the key is absent: a positive JSON
    integer for ``kind`` ``int``, a finite JSON number as a float for
    ``float``, a flat list of them as an array for ``list``; not ``bool``."""
    if key not in obj:
        if default is None:
            raise ParseError(f"{where}: missing '{key}'")
        return default
    value, at = obj[key], f"{where}.{key}"
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ParseError(f"{at}: must be a positive integer, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list) or None in map(_spec_number, value):
            raise ParseError(f"{at}: must be a list of finite numbers")
        return np.array(value, dtype=float)
    if _spec_number(value) is None:
        raise ParseError(f"{at}: must be a finite number, got {value!r}")
    return float(value)


def _built(at: str, make, *args):
    """``make(*args)``, its :class:`DecompositionError` a
    :class:`ParseError` naming the spec field ``at``."""
    try:
        return make(*args)
    except DecompositionError as exc:
        raise ParseError(f"{at}: {exc}") from exc


def _shape_from_json(value, where: str) -> ShapeTable:
    obj = _spec_object(value, where)
    if "variant" in obj:
        bins = _spec_field(obj, "bins", where, int, 1024)
        variant = _spec_field(obj, "variant", where, int)
        try:
            return ecg_like_shape(bins, variant)
        except LengthMismatch as exc:  # too few bins for the waveform
            raise ParseError(f"{where}.bins: {exc}") from exc
        except DecompositionError as exc:
            raise ParseError(f"{where}.variant: {exc}") from exc
    if "values" in obj:
        return _built(f"{where}.values", make_shape,
                      _spec_field(obj, "values", where, list))
    raise ParseError(f"{where}: needs 'variant' or 'values'")


def _component_from_json(obj, where: str) -> tuple:
    """One ``components`` entry as ``gen_component``'s arguments after the
    grid; a malformed field is a ``ParseError`` naming it, ``where`` being
    the entry's place in the file."""
    obj = _spec_object(obj, where)
    fundamental = _spec_field(obj, "fundamental", where, int)
    at = f"{where}.phase_wiggle"
    wig = _spec_object(obj.get("phase_wiggle", {}), at)
    kind = wig.get("kind", "none")
    size = _spec_field(wig, "amp", at, default=0.0)
    if kind not in ("none", "sin", "cos"):
        raise ParseError(f"{at}.kind: unknown kind {kind!r}")
    at = f"{where}.amplitude"
    amp = _spec_object(obj.get("amplitude", {}), at)
    coeffs = (_spec_field(amp, "const", at, default=1.0),
              _spec_field(amp, "cos1", at, default=0.0),
              _spec_field(amp, "sin1", at, default=0.0))
    shape = _shape_from_json(obj.get("shape", {"variant": 1}), f"{where}.shape")
    shape = _built(f"{where}.scale", scale_shape, shape,
                   _spec_field(obj, "scale", where, default=1.0))
    return fundamental, (kind, size), coeffs, shape


def _synth_from_spec(path, length: int, grid_mode: str, seed: int):
    """Clean signal, modes and exact priors of a spec file's components,
    generated as ``gen_example_4_1`` generates its own."""
    comps = _spec_object(read_report(path), str(path)).get("components")
    if not isinstance(comps, list) or not comps:
        raise ParseError(f"{path}: 'components' must be a non-empty list")
    specs = [_component_from_json(c, f"{path}: components[{i}]")
             for i, c in enumerate(comps)]
    t = sample_grid(length, grid_mode, seed)
    t.setflags(write=False)
    modes, priors = [], []
    for i, spec in enumerate(specs):
        at = f"{path}: components[{i}]"
        mode, pos, amp = _built(f"{at}.fundamental", gen_component, t, *spec)
        phase = _built(f"{at}.phase_wiggle", make_prior, pos).phase
        priors.append(_built(f"{at}.amplitude", make_prior, phase, amp))
        if not np.isfinite(mode.values).all():
            raise ParseError(f"{at}.amplitude: amplitude times shape overflows")
        modes.append(mode)
    with np.errstate(over="ignore"):  # refused below
        total = sum((mode.values for mode in modes[1:]), modes[0].values)
    if not np.isfinite(total).all():
        raise ParseError(f"{path}: the components' sum overflows")
    return SampledSignal(t, total), modes, priors


# ---------------------------------------------------------------------------
# command-line surface

#: The parameters of :func:`~modedecomp.gmd.gmd_decompose` that the ``gmd``
#: command sets; their defaults are the function's.
_GMD_OPTIONS = ("eps", "max_iters", "bins", "scheme")

#: The cell side and derivative bound of the phase statistics that
#: ``diagnose --phases`` defaults to and that ``gmd`` and ``mmd`` report.
_PHASE_H, _PHASE_M_BOUND = 0.05, 1.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modedecomp",
                                     description="Decompose oscillatory series "
                                                 "into multiresolution modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic signal")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=["ex4_1"],
                       help="built-in two-component benchmark")
    group.add_argument("--spec", help="JSON component spec file")
    p_synth.add_argument("--samples", type=int, default=16384)
    p_synth.add_argument("--noise-var", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--grid", choices=["uniform", "iid"], default="uniform")
    p_synth.add_argument("--out", required=True)

    p_gmd = sub.add_parser("gmd", help="single-shape decomposition")
    p_gmd.add_argument("--signal", required=True)
    p_gmd.add_argument("--phases", required=True)
    p_gmd.add_argument("--eps", type=float)
    p_gmd.add_argument("--max-iter", dest="max_iters", type=int)
    p_gmd.add_argument("--bins", type=int)
    p_gmd.add_argument("--scheme", choices=SCHEMES)
    p_gmd.add_argument("--out", required=True)
    params = inspect.signature(gmd_decompose).parameters
    p_gmd.set_defaults(**{name: params[name].default
                          for name in _GMD_OPTIONS})

    p_mmd = sub.add_parser("mmd", help="multiresolution decomposition")
    p_mmd.add_argument("--signal", required=True)
    p_mmd.add_argument("--phases", required=True)
    p_mmd.add_argument("--m0", type=int)
    p_mmd.add_argument("--eps1", type=float)
    p_mmd.add_argument("--eps2", type=float)
    p_mmd.add_argument("--j1", type=int)
    p_mmd.add_argument("--j2", type=int)
    p_mmd.add_argument("--bins", type=int)
    p_mmd.add_argument("--scheme", choices=SCHEMES)
    p_mmd.add_argument("--out", required=True)
    p_mmd.set_defaults(**asdict(MmdConfig()))

    p_diag = sub.add_parser("diagnose", help="phase or residual diagnostics")
    p_diag.add_argument("--phases")
    p_diag.add_argument("--h", type=float, default=_PHASE_H,
                        help="cell side for phase statistics (1/h integer)")
    p_diag.add_argument("--m-bound", type=float, default=_PHASE_M_BOUND)
    p_diag.add_argument("--residual")
    p_diag.add_argument("--max-lag", type=int, default=100)
    p_diag.add_argument("--out", required=True)
    return parser


def _load_inputs(signal_path, phases_path):
    signal = read_signal_csv(signal_path)
    times, priors = read_phases_csv(phases_path)
    if times.size != len(signal) or not np.array_equal(times, signal.times):
        raise DecompositionError(
            "phases file is on a different grid than the signal")
    return signal, priors


def _phase_stats(priors, times) -> tuple[WellDiffStats | None, str | None]:
    """The priors' phase statistics and ``None``, or ``None`` and the reason
    they cannot be computed."""
    try:
        return well_diff_stats(partition_counts(priors, times, _PHASE_H),
                               _PHASE_M_BOUND), None
    except DecompositionError as exc:
        return None, str(exc)


def _cmd_synth(args) -> int:
    grid_mode = "iid_uniform" if args.grid == "iid" else "uniform"
    meta = {"samples": args.samples, "noise_var": args.noise_var,
            "seed": args.seed, "grid": args.grid, "rng": RNG_IDENTITY}
    if args.example == "ex4_1":
        ex = gen_example_4_1(args.samples, args.noise_var, args.seed, grid_mode)
        signal, clean, modes, priors, truth = (
            ex.signal, ex.clean, ex.components, ex.priors, ex.truth)
        meta["example"] = "ex4_1"
    else:
        clean, modes, priors = _synth_from_spec(
            args.spec, args.samples, grid_mode, args.seed)
        signal = add_noise(clean, args.noise_var, args.seed)
        truth = ()
        meta["spec"] = str(args.spec)
    out = Path(args.out)
    truth_dir = out / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)
    _write_tables([_signal_table(out / "signal.csv", signal),
                   _phases_table(out / "phases.csv", signal.times, list(priors)),
                   _signal_table(truth_dir / "clean.csv", clean)]
                  + [_signal_table(truth_dir / f"mode_{k}.csv", mode)
                     for k, mode in enumerate(modes, 1)])
    for k, est in enumerate(truth, 1):
        for table in _band_shape_tables(truth_dir, k, est):
            _write_tables([table])
    _write_json(out / "meta.json", meta)
    return 0


def _cmd_decompose(args) -> int:
    signal, priors = _load_inputs(args.signal, args.phases)
    if args.command == "gmd":
        config = {name: getattr(args, name) for name in _GMD_OPTIONS}
        result = gmd_decompose(signal, priors, **config)
    else:
        cfg = MmdConfig(**{f.name: getattr(args, f.name)
                           for f in fields(MmdConfig)})
        result = mmd_decompose(signal, priors, cfg)
        config = asdict(cfg)
    stats, stats_error = _phase_stats(priors, signal.times)
    write_decomposition(args.out, result, stats, config, stats_error)
    return 0


def _cmd_diagnose(args) -> int:
    # every input is read and checked before --out is created
    if (args.phases is None) == (args.residual is None):
        raise DecompositionError("diagnose needs exactly one of --phases "
                                 "or --residual")
    out = Path(args.out)
    if args.phases is not None:
        times, priors = read_phases_csv(args.phases)
        stats = well_diff_stats(
            partition_counts(priors, times, args.h), args.m_bound)
        payload = {
            "h": stats.step,
            "gamma": stats.gamma,
            "beta": stats.beta,
            "beta_per_pair": {f"{i + 1},{j + 1}": b
                              for (i, j), b in stats.beta_per_pair.items()},
            "contraction_bound": stats.contraction_bound,
            "well_differentiated": stats.well_differentiated,
            "marginals": stats.counts_single.tolist(),
        }
        write = partial(_write_json, out / "well_diff.json", payload)
    else:
        residual = read_signal_csv(args.residual)
        rho = autocorrelation(residual, args.max_lag)
        write = partial(_write_tables, [(out / "autocorrelation.csv", ["lag", "rho"],
                                         [np.arange(rho.size, dtype=float), rho])])
    out.mkdir(parents=True, exist_ok=True)
    write()
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on bad usage
        return 1 if exc.code else 0
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command in ("gmd", "mmd"):
            return _cmd_decompose(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        raise DecompositionError(f"unknown command {args.command!r}")
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
