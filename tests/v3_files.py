"""Rewrite the header or footer block of a v3 (columnar) trace file.

The tests and CI's check-trace steps build damaged and older-layout
files from a good one with these helpers.  A rewrite keeps every frame
byte and moves the footer's frame index and the trailer with the
header's new length, so the file is otherwise well formed.  From the
repository root::

    PYTHONPATH=src python -c "from tests.v3_files import rewrite_to_tagged; rewrite_to_tagged('t.trc', out='old.trc')"
"""

import json
import struct
import zlib

from repro.trace.columnar import COLUMNAR_MAGIC
from repro.trace.serialize import decode_plain_locations, encode_location


def footer_table(path):
    """The footer table of the v3 file at *path*."""
    data = open(path, "rb").read()
    (footer_at,) = struct.unpack("<Q", data[-16:-8])
    (footer_len,) = struct.unpack_from("<I", data, footer_at)
    return json.loads(data[footer_at + 4 : footer_at + 4 + footer_len])


def rewrite_v3(path, header=None, footer=None, out=None):
    """Rewrite the v3 file at *path* to *out* (default: in place).

    *header* is the new header block's JSON text.  *footer* is given the
    footer table and edits it in place, or returns the new footer's JSON
    text (a ``str``) for a footer :func:`json.dumps` cannot write.
    """
    data = open(path, "rb").read()
    start = len(COLUMNAR_MAGIC)
    (header_len,) = struct.unpack_from("<I", data, start)
    frames_at = start + 4 + header_len
    (footer_at,) = struct.unpack("<Q", data[-16:-8])
    table = footer_table(path)
    head = data[start + 4 : frames_at] if header is None else header.encode("utf-8")
    for frame in table["frames"]:
        frame[0] += len(head) - header_len
    text = None if footer is None else footer(table)
    if not isinstance(text, str):
        text = json.dumps(table, sort_keys=True)
    body = text.encode("utf-8")
    blob = data[:start] + struct.pack("<I", len(head)) + head
    blob += data[frames_at:footer_at]
    blob += struct.pack("<I", len(body)) + body + struct.pack("<Q", len(blob))
    with open(path if out is None else out, "wb") as handle:
        handle.write(blob + data[-8:])


def rewrite_to_tagged(path, out=None):
    """Rewrite the v3 file at *path* to the footer layout written before
    the plain table: ``"locations"`` of :func:`encode_location` rows."""

    def edit(table):
        plain = decode_plain_locations(table.pop("plain_locations"))
        table["locations"] = [encode_location(location) for location in plain]

    rewrite_v3(path, footer=edit, out=out)


def rewrite_to_older_keys(path, out=None):
    """Rewrite the v3 file at *path* to carry the footer shard keys that
    writers before the bool and integral-float key rule stored:
    ``"location_sk"``, the CRC-32 of each location's own ``repr``, which
    gives ``1``, ``1.0`` and ``True`` three different keys."""

    def edit(table):
        table["location_sk"] = [
            zlib.crc32(repr(location).encode("utf-8"))
            for location in decode_plain_locations(table["plain_locations"])
        ]

    rewrite_v3(path, footer=edit, out=out)
