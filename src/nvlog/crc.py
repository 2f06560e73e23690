"""CRC-32C (Castagnoli, the x86 instruction's polynomial) and CRC-64/ECMA-182.

``zlib.crc32`` uses the IEEE polynomial, so both variants are implemented here
as table-driven CRCs.  Each steps one 8-byte word per iteration through
slicing-by-8 tables (table k advances a byte's contribution by k more bytes)
and finishes a tail shorter than a word byte by byte.

Both are affine in the message once its length n is fixed:
``fn(m) = fn(0ⁿ) XOR ⨁ Tᵢ``, where Tᵢ, the term of m's i-th 64-byte chunk, is
how far ``fn`` moves when that chunk changes from zeros to its bytes.  Zeros
ahead of a chunk keep a register that starts at 0 at 0, so Tᵢ depends only on
the chunk and the length after it: it is ``fn(chunk + zeros) XOR fn(zeros)``,
both as long as the message from the chunk's offset on.  CRC-32C's init and
xorout only add constants, which ``fn(0ⁿ)`` carries; CRC-64/ECMA has neither.
`crc_by_lines` checksums a message this way from memoised terms: torn crash
images of one log slot share each cache line's few versions, so recovery
that re-checks thousands of them computes each (line, version) term once and
then only XORs.  The sum is exact, by the linearity above, not an estimate.
A call that finds no term cached runs the CRC over about 2.5 times the
message and costs about three direct checksums; one that finds every term
cached costs about a tenth of one.  Appends checksum directly and never pay
the cold cost.  The crash checker sums these terms itself, so it judges all
9**8 torn images of an 8-line slot without building one.
"""

import functools
import struct

_CRC32C_POLY = 0x82F63B78  # reflected 0x1EDC6F41
_CRC64_POLY = 0x42F0E1EBA9EA3693
_M64 = (1 << 64) - 1
_LINE = 64  # the chunk `crc_by_lines` sums by: one cache line


def _crc32c_table():
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _CRC32C_POLY if c & 1 else c >> 1
        table.append(c)
    return table


def _crc64_table():
    table = []
    for i in range(256):
        c = i << 56
        for _ in range(8):
            c = ((c << 1) ^ _CRC64_POLY) & _M64 if c & (1 << 63) else (c << 1) & _M64
        table.append(c)
    return table


_T32 = _crc32c_table()
_T64 = _crc64_table()


def _slices(table, advance):
    """Slicing-by-8 tables: entry i of table k is `table[i]` pushed through
    k more zero bytes by `advance`."""
    tables = [table]
    for _ in range(7):
        tables.append([advance(c) for c in tables[-1]])
    return tables


_S32 = _slices(_T32, lambda c: (c >> 8) ^ _T32[c & 0xFF])
_S64 = _slices(_T64, lambda c: ((c << 8) & _M64) ^ _T64[c >> 56])
_LE64 = struct.Struct("<Q")
_BE64 = struct.Struct(">Q")


def crc32c(data: bytes) -> int:
    t0, t1, t2, t3, t4, t5, t6, t7 = _S32
    pack = _LE64.pack
    crc = 0xFFFFFFFF
    n = len(data) // 8
    for w in struct.unpack_from(f"<{n}Q", data):
        b0, b1, b2, b3, b4, b5, b6, b7 = pack(crc ^ w)
        crc = (t7[b0] ^ t6[b1] ^ t5[b2] ^ t4[b3]
               ^ t3[b4] ^ t2[b5] ^ t1[b6] ^ t0[b7])
    for b in data[n * 8:]:
        crc = t0[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc64_ecma(data: bytes) -> int:
    t0, t1, t2, t3, t4, t5, t6, t7 = _S64
    pack = _BE64.pack
    crc = 0
    n = len(data) // 8
    for w in struct.unpack_from(f">{n}Q", data):
        b0, b1, b2, b3, b4, b5, b6, b7 = pack(crc ^ w)
        crc = (t7[b0] ^ t6[b1] ^ t5[b2] ^ t4[b3]
               ^ t3[b4] ^ t2[b5] ^ t1[b6] ^ t0[b7])
    for b in data[n * 8:]:
        crc = t0[((crc >> 56) ^ b) & 0xFF] ^ ((crc << 8) & _M64)
    return crc


@functools.lru_cache(maxsize=1024)
def crc_term(fn, n: int, off: int, chunk: bytes) -> int:
    """The linear term of `chunk` at byte `off` of an n-byte message: how
    far `fn` of the message moves when those bytes change from zeros to
    `chunk`, whatever the other bytes are."""
    return fn(chunk + bytes(n - off - len(chunk))) ^ _zeros_crc(fn, n - off)


@functools.lru_cache(maxsize=256)
def _zeros_crc(fn, n: int) -> int:
    return fn(bytes(n))


def crc_by_lines(fn, data: bytes) -> int:
    """`fn(data)`, for `fn` `crc32c` or `crc64_ecma`, summed from the
    memoised terms of its 64-byte chunks."""
    n = len(data)
    crc = _zeros_crc(fn, n)
    for off in range(0, n, _LINE):
        crc ^= crc_term(fn, n, off, data[off:off + _LINE])
    return crc
