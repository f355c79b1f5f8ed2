"""Artifact serialization: CSV tables and JSON manifests.

Numeric CSV cells carry 17 significant digits so float64 values
round-trip exactly and reruns are byte-identical.  A floating cell holds
exactly the bytes of ``"%.17g" % v``; any other cell is ``str(v)``.

Floating cells are formatted by numpy, a block of cells at a time.  For
``1e-25 < |v| < 1e16`` the 17 digits are computed exactly in integers:
with ``v = m 2^q`` and ``E = floor(log10 |v|)`` (from ``log10``, moved by
one where the truncated result shows it was off), ``D = m 2^q 10^(16-E)``
rounded half to even is formed from the product ``m 5^(16-E)`` (up to 149
bits, summed from 32-bit limbs), and a rounding carry to ``10^17`` moves
E up by one.  The digits are then laid out by the ``%g`` rules (fixed
notation for ``-4 <= E < 17``, ``d.ddde-XX`` below; trailing zeros and a
bare point stripped; ``-`` when the sign bit is set).  NaN, infinities,
zeros and the rare cells outside that range are formatted by Python, one
``%`` operation per block.

Each cell fills a fixed-width slot of a byte matrix, NUL in the bytes it
does not spell; a row of slots and separators with its NULs deleted is a
CSV row.  :func:`write_csv` builds the slots of up to ``_BLOCK_ROWS`` rows
and writes them with one call.  :func:`write_field_csv` formats the x and
y columns once, left-aligned in slots as wide as their widest cell, and
writes one y-level at a time from one row matrix reused for every level.
A mirrored field is passed as its upper half only: each level is
formatted once, and the cells are kept until the level's second row is
written.  A mirror row of an even field repeats them.  In a mirror row of
an odd field, a cell formatted in integers changes only its sign byte
(``-`` or NUL in the slot's first column); a cell formatted by Python
(zeros, ``|v| <= 1e-25`` or ``>= 1e16``, NaN and infinities) is formatted
again from ``-v``, so ``0.0`` becomes ``-0`` as in the negated array.
Formatting runs over at most ``_CHUNK`` cells at a time.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

#: rows per write in :func:`write_csv`.  Every table written at
#: N <= 65536 is one block, so a write allocates and frees one byte matrix
#: a few times the file's size.  glibc raises its mmap and trim thresholds
#: to the largest mapping freed so far; with 4096-row blocks they stayed
#: low enough that N = 16384 solves and dynamics run later in the same
#: process page-faulted their temporaries back in on every step (1.3 M
#: minor faults per two dynamics runs).
_BLOCK_ROWS = 65536
#: floating cells formatted per numpy pass (about 1.3 MiB of temporaries)
_CHUNK = 8192

# A floating cell's slot: sign, "0.000" (fixed notation below 1), 18 bytes
# of digits with the point, "e-XY" (scientific notation).  The longest
# cell, "-2.2250738585072014e-308", has 24 bytes.
_CELL = 28
_U64 = np.uint64
_LO32 = _U64(2**32 - 1)
_E_MIN = -25  # smallest decimal exponent formatted exactly: 5^(16 - E) < 2^96
_TINY = 10.0**_E_MIN  # |v| above it has a decimal exponent of at least _E_MIN
#: 5^s as three 32-bit limbs, low first, s = 0 .. 16 - _E_MIN
_POW5 = np.array([[5**s >> 32 * i & (2**32 - 1) for s in range(17 - _E_MIN)]
                  for i in range(3)], dtype=_U64)
_FIX = _U64(-(-(2**60) // 10**9))  # ceil(2**60 / 10**9): 9 digits -> 0.60 fixed point
_FRAC = _U64(2**60 - 1)
_DIGIT_ROW = np.arange(18, dtype=np.int8)[:, None]
_ORD_DIGIT = np.arange(1, 18, dtype=np.uint8)[:, None]
_EXPONENTS = np.arange(_E_MIN, 16)  # decimal exponents of the exactly formatted range


def _point_after(e: np.ndarray) -> np.ndarray:
    """Digit after which the point goes, for decimal exponent e: the units
    digit in fixed notation at e >= 0, the first in scientific notation, and
    none (17) in fixed notation below 1, where "0." leads the digits."""
    return np.where(e >= 0, e, np.where(e >= -4, 17, 0))


_POINT = _point_after(_EXPONENTS).astype(np.int8)


def _keep_table() -> np.ndarray:
    """Keep rows of the slot, indexed by ``((e - _E_MIN) * 18 + nd) * 2 + neg``
    for exponent e in _E_MIN..15, nd significant digits and the sign."""
    e = _EXPONENTS[:, None, None, None]
    nd = np.arange(18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    col = np.arange(_CELL)
    p = _point_after(e)
    head = np.where((e < 0) & (e >= -4), 1 - e, 0)  # "0." and e's leading zeros
    body = np.maximum(nd, np.where(e >= 0, e + 1, 1)) + (nd > p + 1)
    keep = (((col == 0) & (neg == 1)) | ((col >= 1) & (col < 1 + head))
            | ((col >= 6) & (col < 6 + body)) | ((col >= 24) & (e < -4)))
    return keep.reshape(-1, _CELL)


_KEEP = _keep_table()


def _scaled(m, q, e):
    """``floor(x 10^(16-e))`` of ``x = m 2^q`` and whether rounding it half
    to even goes up (0 or 1), exactly where the floor is below 2^64.

    ``P = m 5^(16-e)`` is summed in 32-bit columns from the products of the
    limbs (two of 5^s while s <= 27 in the block, else three), carried into
    64-bit words and shifted right by ``r = -(q + 16 - e)`` bits (left when
    r < 0): numpy gives 0 for a shift by 64 bits or more, which a negative
    count cast to uint64 is.  5^s is odd, so the bits shifted out are zero
    exactly when as many low bits of m are.
    """
    s = 16 - e
    m0, m1 = m & _LO32, m >> _U64(32)
    limbs = 2 if s.max(initial=0) <= 27 else 3  # 5^27 < 2^64 < 5^28
    cols = [np.zeros(m.shape, _U64) for _ in range(limbs + 2)]
    for i in range(limbs):
        f = _POW5[i].take(s)
        for j, mj in enumerate((m0, m1)):
            p = mj * f  # below 2^64
            cols[i + j] += p & _LO32
            cols[i + j + 1] += p >> _U64(32)
    for k in range(limbs + 1):  # each column is below 2^35 before its carry
        cols[k + 1] += cols[k] >> _U64(32)
        cols[k] &= _LO32
    cols.append(0)  # column pairs make the 64-bit words; an odd last one pairs with 0
    t = -(q + s) - 1
    half = np.zeros(m.shape, _U64)  # floor(x 10^(16-e) * 2)
    for i in range(0, limbs + 2, 2):
        w = cols[i] | cols[i + 1] << _U64(32)
        u = t - 32 * i  # w 2^(32 i) / 2^t = w 2^-u
        half |= (w >> u.astype(_U64)) | (w << (-u).astype(_U64))
    sticky = (m & ((_U64(1) << t.astype(_U64)) - _U64(1))) != 0  # 1 << 64 is 0
    d = half >> _U64(1)
    return d, half & (d | sticky) & _U64(1)


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """17-digit decimal ``(D, E)``, ``a ~ D 10^(E-16)`` with D in
    [10^16, 10^17), rounded half to even, for ``_TINY < a < 1e16``."""
    bits = a.view(_U64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    q = (bits >> _U64(52)).astype(np.int64) - 1075
    e = np.clip(np.floor(np.log10(a)), _E_MIN, 15).astype(np.int64)
    d, up = _scaled(m, q, e)
    off = (d < _U64(10**16)).astype(np.int64) - (d >= _U64(10**17))
    fix = np.flatnonzero(off)
    if fix.size:  # log10 was one off next to a power of ten
        e[fix] -= off[fix]
        d[fix], up[fix] = _scaled(m[fix], q[fix], e[fix])
    d += up
    carry = d == _U64(10**17)  # e.g. the float below 1e-14 rounds up to it
    d[carry] = _U64(10**16)
    e += carry
    return d, e


def _digits(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of D as rows 1..17 of a (19, n) uint8 array;
    rows 0 and 18 are 0.

    Each 9-digit half becomes an exact-enough 0.60 fixed-point fraction
    (the error of ``x ceil(2^60/10^9)`` is below one unit of the 9th
    digit) whose digits multiplication by 10 moves above bit 60.
    """
    g = np.empty((2, d.size), _U64)
    np.floor_divide(d, _U64(10**9), out=g[0])
    np.subtract(d, g[0] * _U64(10**9), out=g[1])
    g *= _FIX
    out = np.empty((19, d.size), np.uint8)
    for j in range(9):
        g *= _U64(10)
        out[j:18:9] = g >> _U64(60)
        g &= _FRAC
    out[18] = 0
    return out


def _format_floats(v: np.ndarray, chars: np.ndarray) -> None:
    """Fill (n, _CELL) slots with the cells ``"%.17g" % v[i]`` (float64 v).

    Cells outside the exact range are formatted as 1, then overwritten.
    Bytes of the slot that the cell does not spell are NUL.
    """
    exact = _exact(v)
    d, e = _decimal17(np.where(exact, np.abs(v), 1.0))
    dig = _digits(d)
    nd = ((dig[1:18] != 0) * _ORD_DIGIT).max(axis=0, initial=0)
    p = _POINT[e - _E_MIN]
    # the slots, transposed: "-0.000", digits with a gap for the point, "e-XY"
    slot = np.empty((_CELL, v.size), np.uint8)
    slot[:6] = np.frombuffer(b"-0.000", np.uint8)[:, None]
    body = np.subtract(dig[:18], dig[1:], out=slot[6:24])
    body *= _DIGIT_ROW > p  # digit j up to the point's place p, digit j - 1 after
    body += dig[1:]
    body += ord("0")
    np.copyto(body, ord("."), where=(_DIGIT_ROW == p + 1) & (nd > p + 1))
    slot[24] = ord("e")
    slot[25] = ord("-")
    exp = (-e).astype(np.uint8)  # read in scientific notation only, e < -4
    np.floor_divide(exp, 10, out=slot[26])
    np.remainder(exp, 10, out=slot[27])
    slot[26:] += ord("0")
    np.multiply(slot.T, _KEEP.take(((e - _E_MIN) * 18 + nd) * 2 + (v < 0), axis=0),
                out=chars)
    if not exact.all():
        _format_by_python(v, np.flatnonzero(~exact), chars)


def _exact(v: np.ndarray) -> np.ndarray:
    """Cells of float64 ``v`` that :func:`_format_floats` formats in integers."""
    a = np.abs(v)
    return (a > _TINY) & (a < 1e16)


def _format_by_python(v: np.ndarray, rest: np.ndarray, chars: np.ndarray) -> None:
    """Fill the slots ``rest`` with ``"%.17g" % v[i]``, one ``%`` operation."""
    text = ("%.17g\n" * rest.size % tuple(v[rest].tolist())).encode().split(b"\n")[:-1]
    chars[rest] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)


def _text(a: np.ndarray) -> list[bytes]:
    return [str(v).encode() for v in a.reshape(-1).tolist()]


def _width(a: np.ndarray) -> int:
    """Slot width of the cells of array ``a``."""
    return _CELL if a.dtype.kind == "f" else max(map(len, _text(a)), default=0) or 1


def _fill(a: np.ndarray, chars: np.ndarray) -> None:
    """Fill the slots of a 1-D array's cells."""
    if a.dtype.kind == "f":
        v = np.asarray(a, dtype=np.float64)
        for s in range(0, v.size, _CHUNK):
            _format_floats(v[s:s + _CHUNK], chars[s:s + _CHUNK])
        return
    width = chars.shape[1]
    chars[:] = np.array(_text(a), dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def _row_slots(n: int, widths: list[int]):
    """Byte matrix of ``n`` rows of slots of the given widths, each followed
    by a comma and the last by a newline, and the views of the slots."""
    chars = np.empty((n, sum(widths) + len(widths)), np.uint8)
    slots, start = [], 0
    for w in widths:
        slots.append(chars[:, start:start + w])
        start += w
        chars[:, start] = ord(",")
        start += 1
    chars[:, -1] = ord("\n")
    return chars, slots


def _text_of(chars: np.ndarray) -> bytes:
    """The bytes a matrix of slots spells: all of them but the NULs."""
    return chars.tobytes().translate(None, b"\0")


def _packed(a: np.ndarray) -> np.ndarray:
    """The cells of a 1-D array left-aligned in rows of the widest one's
    width, NUL-padded, as (n, width) uint8: narrower slots for columns
    formatted once and written many times."""
    chars, [slot] = _row_slots(a.size, [_width(a)])
    _fill(a, slot)
    cells = np.array(_text_of(chars).split(b"\n")[:-1], dtype=bytes)
    return cells.view(np.uint8).reshape(a.size, cells.itemsize)


def write_csv(path, columns: dict) -> None:
    """Write named columns (equal-length 1-D arrays) with a header row."""
    names = list(columns)
    if not names:
        raise ValueError("CSV needs at least one column")
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    n = len(arrays[0])
    if any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ValueError("CSV columns must be one-dimensional with equal length")
    widths = [_width(a) for a in arrays]
    with open(path, "wb") as f:
        f.write((",".join(names) + "\n").encode())
        for start in range(0, n, _BLOCK_ROWS):
            block = [a[start:start + _BLOCK_ROWS] for a in arrays]
            chars, slots = _row_slots(len(block[0]), widths)
            for a, slot in zip(block, slots):
                _fill(a, slot)
            f.write(_text_of(chars))


def _negate_cells(v: np.ndarray, chars: np.ndarray) -> None:
    """Turn the slots of float64 cells ``v`` into those of ``-v``: a cell
    formatted in integers has its sign in column 0, ``-`` or NUL, so only
    that byte flips; the Python-formatted cells are formatted again from
    ``-v``."""
    exact = _exact(v)
    sign = chars[:, 0]
    np.bitwise_xor(sign, ord("-"), out=sign, where=exact)
    if not exact.all():
        _format_by_python(-v, np.flatnonzero(~exact), chars)


def write_field_csv(path, x: np.ndarray, y_levels: np.ndarray, values: np.ndarray,
                    mirror: int | None = None) -> None:
    """Flatten a (level, x) field to columns x, y, value.

    ``x`` and ``y_levels`` are numeric 1-D arrays and ``values`` has shape
    ``(len(y_levels), len(x))``.  With ``mirror`` (+1 for a field even in
    y, -1 for an odd one) the mirror image comes first: the rows
    ``mirror * values[::-1]`` at heights ``-y_levels[::-1]``, then
    ``values`` at ``y_levels``, the bytes of the stacked array written
    without ``mirror``.  Each level is formatted once for both of its rows.
    """
    x, y_levels, values = np.asarray(x), np.asarray(y_levels), np.asarray(values)
    if x.ndim != 1 or y_levels.ndim != 1 or values.shape != (y_levels.size, x.size):
        raise ValueError(f"field values have shape {values.shape}, expected "
                         f"(len(y_levels), len(x)) = {(y_levels.size, x.size)}")
    if mirror not in (None, 1, -1):
        raise ValueError(f"mirror must be None, 1 or -1, got {mirror!r}")
    if mirror is not None and values.dtype.kind != "f":
        raise ValueError(f"a mirrored field must be floating, got dtype {values.dtype}")
    rows = [(i, False) for i in range(y_levels.size)]
    if mirror is not None:
        rows = [(i, mirror < 0) for i in reversed(range(y_levels.size))] + rows
        y_levels = np.concatenate([-y_levels[::-1], y_levels])
    x_cells, y_cells = _packed(x), _packed(y_levels)
    chars, [x_slot, y_slot, v_slot] = _row_slots(
        x.size, [x_cells.shape[1], y_cells.shape[1], _width(values)])
    x_slot[:] = x_cells
    # every level's cells, formatted once and kept until its last row is written
    cells = np.empty((values.size, v_slot.shape[1]), np.uint8)
    _fill(values.reshape(-1), cells)
    cells = cells.reshape(values.shape[0], x.size, -1)
    with open(path, "wb") as f:
        f.write(b"x,y,value\n")
        for y, (i, negate) in zip(y_cells, rows):
            y_slot[:] = y
            v_slot[:] = cells[i]
            if negate:
                _negate_cells(np.asarray(values[i], dtype=np.float64), v_slot)
            f.write(_text_of(chars))


def config_hash(echo_text: str) -> str:
    return hashlib.sha256(echo_text.encode()).hexdigest()


#: model units carried by every artifact (all quantities dimensionless
#: multiples of these)
UNITS = {
    "length": "b",
    "displacement": "b",
    "stress": "G",
    "force_per_area": "G*b/d",
    "energy_per_length": "G*b^2/d",
    "time": "d/G",
}


def write_manifest(path, cfg_echo: str, command: str, timings_s: dict,
                   extra: dict | None = None) -> None:
    from . import __version__

    manifest = {
        "format_version": "1",
        "package_version": __version__,
        "command": command,
        "config_hash": config_hash(cfg_echo),
        "config_echo": cfg_echo,
        "timings_s": timings_s,
        "units": UNITS,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def prepare_output_dir(path, overwrite: bool) -> Path:
    """Create the output directory; refuse to reuse one unless overwriting."""
    out = Path(path)
    marker = out / "manifest.json"
    if marker.exists() and not overwrite:
        raise FileExistsError(
            f"output directory {out} already holds results; pass --overwrite to replace"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out
