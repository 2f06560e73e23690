"""CRC-32C (Castagnoli, the x86 instruction's polynomial) and CRC-64/ECMA-182.

``zlib.crc32`` uses the IEEE polynomial, so both variants are implemented here
as table-driven CRCs.  Each steps one 8-byte word per iteration through
slicing-by-8 tables (table k advances a byte's contribution by k more bytes)
and finishes a tail shorter than a word byte by byte.
"""

import struct

_CRC32C_POLY = 0x82F63B78  # reflected 0x1EDC6F41
_CRC64_POLY = 0x42F0E1EBA9EA3693
_M64 = (1 << 64) - 1


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
