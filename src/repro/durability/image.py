"""The NVImage format and its two-generation A/B store.

An **NVImage** is a crash-consistent on-disk snapshot of the full
architectural + run state, framed as::

    MAGIC (8 B)  |  header length (4 B, big-endian)  |  header JSON  |  body

The header carries the schema tag (``repro.durability.image/v1``), a
monotonically increasing **sequence number**, the body length, and a
CRC-32 of the body.  Any torn or corrupted file — truncated tail,
flipped byte, garbage header — fails validation and is treated as
absent.

:class:`NVImageStore` keeps **two generations** (``nvimage.0`` /
``nvimage.1``) and always commits a new image into the slot *not*
holding the latest valid generation, via write-temp -> fsync ->
``os.replace``.  This mirrors the paper's dual-PC-with-parity protocol
(Section V-B): the valid generation is never written, so a valid image
exists at every instant; the sequence number plays the parity bit's
role of naming the valid copy, and a torn commit is detected by CRC
and simply loses to the surviving generation.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Optional

from repro.durability.atomic import _fsync_directory, _temp_path

IMAGE_SCHEMA = "repro.durability.image/v1"
MAGIC = b"MOUSEIMG"
_HEADER_LEN = struct.Struct(">I")

#: Slot filenames of the two generations.
GENERATIONS = ("nvimage.0", "nvimage.1")


class ImageCorruptError(ValueError):
    """The bytes do not form a valid NVImage (torn, corrupt, or alien)."""


class NoValidImageError(FileNotFoundError):
    """Neither generation of the store holds a valid image."""


def _check_payload(payload: Any) -> None:
    """The payload rule :func:`encode_image` and :func:`decode_image`
    share, so every framed image decodes."""
    if not isinstance(payload, dict):
        raise ImageCorruptError("image payload must be a JSON object")


def encode_image(payload: dict, seq: int) -> bytes:
    """Frame ``payload`` as NVImage bytes with sequence number ``seq``.

    Raises :class:`ImageCorruptError` for a payload
    :func:`decode_image` would reject.
    """
    if seq < 1:
        raise ValueError("sequence numbers start at 1")
    _check_payload(payload)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    header = json.dumps(
        {
            "schema": IMAGE_SCHEMA,
            "seq": seq,
            "length": len(body),
            "crc32": zlib.crc32(body),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return MAGIC + _HEADER_LEN.pack(len(header)) + header + body


def decode_image(data: bytes) -> tuple[dict, int]:
    """Parse and validate NVImage bytes; returns ``(payload, seq)``.

    Raises :class:`ImageCorruptError` on any framing, schema, length,
    or CRC violation — the caller falls back to the other generation.
    """
    if len(data) < len(MAGIC) + _HEADER_LEN.size:
        raise ImageCorruptError("image shorter than its framing")
    if data[: len(MAGIC)] != MAGIC:
        raise ImageCorruptError("bad magic")
    offset = len(MAGIC)
    (header_len,) = _HEADER_LEN.unpack_from(data, offset)
    offset += _HEADER_LEN.size
    if offset + header_len > len(data):
        raise ImageCorruptError("truncated header")
    try:
        header = json.loads(data[offset : offset + header_len])
    except ValueError as exc:
        raise ImageCorruptError(f"unparseable header: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != IMAGE_SCHEMA:
        raise ImageCorruptError(
            f"schema is {header.get('schema') if isinstance(header, dict) else header!r}, "
            f"expected {IMAGE_SCHEMA}"
        )
    seq = header.get("seq")
    length = header.get("length")
    crc = header.get("crc32")
    if not isinstance(seq, int) or seq < 1:
        raise ImageCorruptError(f"bad sequence number {seq!r}")
    if not isinstance(length, int) or not isinstance(crc, int):
        raise ImageCorruptError("header is missing length/crc32")
    body = data[offset + header_len :]
    if len(body) != length:
        raise ImageCorruptError(
            f"body is {len(body)} bytes, header says {length} (torn write)"
        )
    if zlib.crc32(body) != crc:
        raise ImageCorruptError("body CRC mismatch (corrupt image)")
    try:
        payload = json.loads(body)
    except ValueError as exc:  # pragma: no cover - CRC already passed
        raise ImageCorruptError(f"unparseable body: {exc}") from None
    _check_payload(payload)
    return payload, seq


class NVImageStore:
    """Two-generation atomic image store in one directory.

    ``commit`` writes the next generation; ``load`` returns the newest
    valid one, falling back to the elder when the newer is torn or
    corrupt.  ``fallbacks`` counts how many times a load had to discard
    a corrupt generation (mirrored to the ``checkpoint.fallbacks``
    counter when telemetry is attached by the caller).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fallbacks = 0
        #: Test/crash-injection hook: called with the running byte count
        #: after each chunk of the temp-file write (crashsim uses it to
        #: SIGKILL mid-image-write).  None = disabled.
        self._write_hook: Optional[Callable[[int], None]] = None
        #: Bytes per write chunk when a write hook is active.
        self._chunk = 4096
        #: Per slot, the bytes this store last wrote or validated there
        #: and their sequence number (None = corrupt), so a commit
        #: decodes only a slot whose bytes have changed since.
        self._seen: list[Optional[tuple[bytes, Optional[int]]]] = [None, None]

    # ------------------------------------------------------------------

    def slot_path(self, slot: int) -> Path:
        return self.directory / GENERATIONS[slot % 2]

    def _scan(self) -> tuple[Optional[dict], int, int]:
        """Newest valid ``(payload, seq)`` plus corrupt-slot count."""
        best_payload: Optional[dict] = None
        best_seq = 0
        corrupt = 0
        for slot in range(2):
            try:
                data = self.slot_path(slot).read_bytes()
            except OSError:
                continue
            try:
                payload, seq = decode_image(data)
            except ImageCorruptError:
                self._seen[slot] = (data, None)
                corrupt += 1
                continue
            self._seen[slot] = (data, seq)
            if seq > best_seq:
                best_payload, best_seq = payload, seq
        return best_payload, best_seq, corrupt

    def _slot_seq(self, slot: int) -> int:
        """Sequence number of the valid image in ``slot`` (0 if absent
        or corrupt).  Decodes the slot only when its bytes differ from
        the ones this store last wrote or validated there: decoding is
        a pure function of the bytes, so the answer is the full
        decode's for any on-disk state."""
        try:
            data = self.slot_path(slot).read_bytes()
        except OSError:
            return 0
        seen = self._seen[slot]
        if seen is not None and seen[0] == data:
            seq = seen[1]
        else:
            try:
                seq = decode_image(data)[1]
            except ImageCorruptError:
                seq = None
            self._seen[slot] = (data, seq)
        return seq or 0

    @property
    def latest_seq(self) -> int:
        """Sequence number of the newest valid generation (0 if none)."""
        return max(self._slot_seq(0), self._slot_seq(1))

    def load(self) -> tuple[dict, int]:
        """Return ``(payload, seq)`` of the newest valid generation.

        A corrupt generation alongside a valid one counts as a
        *fallback* (the A/B scheme absorbing a torn commit); two
        corrupt/absent generations raise :class:`NoValidImageError`.
        """
        payload, seq, corrupt = self._scan()
        if payload is None:
            raise NoValidImageError(
                f"no valid NVImage generation under {self.directory}"
            )
        if corrupt:
            self.fallbacks += corrupt
        return payload, seq

    def commit(self, payload: dict) -> int:
        """Atomically publish ``payload`` as the next generation.

        Returns the new sequence number.  The write goes to the slot
        not holding the latest valid generation, through a temp file in
        the same directory — a crash at any byte leaves the surviving
        generations untouched.
        """
        seq = self.latest_seq + 1
        target = self.slot_path(seq)
        data = encode_image(payload, seq)
        temp = _temp_path(target)
        try:
            with open(temp, "wb") as handle:
                if self._write_hook is None:
                    handle.write(data)
                else:
                    written = 0
                    for start in range(0, len(data), self._chunk):
                        chunk = data[start : start + self._chunk]
                        handle.write(chunk)
                        handle.flush()
                        written += len(chunk)
                        self._write_hook(written)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        # encode_image framed these bytes, so they decode to ``seq``.
        self._seen[seq % 2] = (data, seq)
        _fsync_directory(target.parent)
        self._sweep_temps()
        return seq

    def _sweep_temps(self) -> None:
        """Remove leftover temp files from writers that were SIGKILLed
        mid-commit (their ``finally`` never ran).  Safe after our own
        ``os.replace``: any temp still present is stale by construction
        (temp names are unique per write attempt)."""
        for path in self.directory.glob(".nvimage.*.tmp.*"):
            try:
                path.unlink()
            except OSError:
                pass
