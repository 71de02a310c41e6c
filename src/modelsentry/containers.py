"""Read-only parsers for the containers that wrap model files.

Two formats are recognized: ZIP archives (PyTorch-style checkpoints and
Keras archive files) read via their central directory, and HDF5 files whose
embedded model-config JSON is recovered by a bounded byte-level heuristic
rather than a full B-tree walk.  A model config from either goes through
the one decoder, ``decode_config``.

Nothing here writes, extracts to disk, or resolves member paths against the
filesystem.  Decompression is capped so that a hostile archive cannot
balloon memory.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO

from .disasm import SNIFF_BYTES, plausible_pickle_prefix

ZIP_LOCAL_MAGIC = b"PK\x03\x04"
ZIP_EOCD_MAGIC = b"PK\x05\x06"
ZIP_CENTRAL_MAGIC = b"PK\x01\x02"
ZIP64_EOCD_MAGIC = b"PK\x06\x06"
ZIP64_LOCATOR_MAGIC = b"PK\x06\x07"
HDF5_SIGNATURE = b"\x89HDF\r\n\x1a\n"

EOCD_SEARCH_WINDOW = 66 * 1024
# Cap on the central directory's declared entry count.
MAX_ENTRIES = 1_000_000
DEFAULT_ENTRY_CAP = 256 * 1024 * 1024
# Cap on a model-config JSON read, from an HDF5 attribute or a config.json member.
CONFIG_CAP = 64 * 1024 * 1024
_H5_MARKER = b"model_config"
_H5_GAP_CAP = 64 * 1024
# First read of an HDF5 config window or marker search; both double from here.
_FIRST_WINDOW = 4 * 1024
# A decode error this close to the end of a window may be a token cut short
# (``-Infinit``, ``\ud800\udc``): read a bigger window before giving up.
_TRUNCATION_TAIL = 16
# After a window cut short, the NUL that ends an HDF5 config is searched for
# up to this many times the window's size past the brace.
_NUL_LOOKAHEAD = 16
_UTF8_BOM = b"\xef\xbb\xbf"
_CD_SIZE_CAP = 512 * 1024 * 1024
_CHUNK = 4 * 1024 * 1024
_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE


class FormatError(Exception):
    # Where reading stopped, for an error inside an HDF5 config candidate:
    # the next candidate is searched for from there.
    end_offset: int | None = None

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    @property
    def kind(self) -> str:
        return type(self).__name__


class NoCentralDirectory(FormatError):
    def __init__(self):
        super().__init__("no ZIP end-of-central-directory record found")


class CorruptHeader(FormatError):
    def __init__(self, offset: int, detail: str):
        super().__init__(f"corrupt header at offset {offset}: {detail}")
        self.offset = offset


class UnsupportedMethod(FormatError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"entry {path!r}: {detail}")
        self.path = path


class SizeMismatch(FormatError):
    def __init__(self, path: str, declared: int, actual: int):
        super().__init__(f"entry {path!r}: declared {declared} bytes, got {actual}")
        self.declared = declared
        self.actual = actual


class InflateError(FormatError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"entry {path!r}: inflate failed: {detail}")
        self.path = path


class CapExceeded(FormatError):
    def __init__(self, measured: str, cap: int, end_offset: int | None = None):
        # ``measured`` names what went over the cap, with its size.
        super().__init__(f"{measured} exceeds cap {cap}")
        self.cap = cap
        self.end_offset = end_offset


class NotHdf5(FormatError):
    def __init__(self):
        super().__init__("file does not start with the HDF5 signature")


class ConfigNotFound(FormatError):
    def __init__(self):
        super().__init__("no model_config attribute found")


class UnbalancedJson(FormatError):
    def __init__(self, start_offset: int, end_offset: int, detail: str):
        super().__init__(f"{detail} starting at offset {start_offset}")
        self.start_offset = start_offset
        self.end_offset = end_offset


@dataclass(frozen=True)
class ArchiveEntry:
    """One central-directory entry, as declared (paths are data, not fs)."""

    path: str
    compressed_size: int
    uncompressed_size: int
    method: str  # "stored", "deflate", or "unsupported(N)"
    offset: int  # byte position of the local header
    encrypted: bool = False
    suspicious_path: bool = False


@dataclass(frozen=True)
class ExtractedConfig:
    json_text: str
    byte_range: tuple[int, int]
    config: object  # json_text, parsed


def is_path_suspicious(path: str) -> bool:
    """Absolute roots, drive letters, or ``..`` segments in an archive name."""
    if not path:
        return True
    if path.startswith(("/", "\\")):
        return True
    if len(path) >= 2 and path[1] == ":" and path[0].isalpha():
        return True
    segments = path.replace("\\", "/").split("/")
    return ".." in segments


def _file_size(handle: BinaryIO) -> int:
    handle.seek(0, io.SEEK_END)
    return handle.tell()


def _find_eocd(handle: BinaryIO, size: int) -> tuple[int, bytes]:
    window = min(size, EOCD_SEARCH_WINDOW)
    handle.seek(size - window)
    tail = handle.read(window)
    at = tail.rfind(ZIP_EOCD_MAGIC)
    while at >= 0:
        if at + 22 <= len(tail):
            return size - window + at, tail[at : at + 22]
        at = tail.rfind(ZIP_EOCD_MAGIC, 0, at)
    raise NoCentralDirectory()


def _read_zip64_sizes(handle: BinaryIO, eocd_offset: int) -> tuple[int, int, int] | None:
    """Return (entry_count, cd_size, cd_offset) from the ZIP64 records, if present."""
    locator_at = eocd_offset - 20
    if locator_at < 0:
        return None
    handle.seek(locator_at)
    locator = handle.read(20)
    if locator[:4] != ZIP64_LOCATOR_MAGIC:
        return None
    (zip64_eocd_offset,) = struct.unpack("<Q", locator[8:16])
    handle.seek(zip64_eocd_offset)
    record = handle.read(56)
    if record[:4] != ZIP64_EOCD_MAGIC:
        raise CorruptHeader(zip64_eocd_offset, "bad ZIP64 end-of-central-directory signature")
    total_entries, cd_size, cd_offset = struct.unpack("<QQQ", record[32:56])
    return total_entries, cd_size, cd_offset


def _zip64_extra(extra: bytes, needed: list[str], values: dict[str, int]) -> dict[str, int]:
    """Patch 0xFFFFFFFF/0xFFFF placeholders from the ZIP64 extra field."""
    pos = 0
    while pos + 4 <= len(extra):
        header_id, data_size = struct.unpack("<HH", extra[pos : pos + 4])
        data = extra[pos + 4 : pos + 4 + data_size]
        if header_id == 0x0001:
            cursor = 0
            for field_name in needed:
                if cursor + 8 > len(data):
                    break
                values[field_name] = struct.unpack("<Q", data[cursor : cursor + 8])[0]
                cursor += 8
            break
        pos += 4 + data_size
    return values


def list_entries(handle: BinaryIO) -> list[ArchiveEntry]:
    """Read the central directory; order preserved, nothing decompressed."""
    size = _file_size(handle)
    if size < 22:
        raise NoCentralDirectory()
    eocd_offset, eocd = _find_eocd(handle, size)
    total_entries, cd_size, cd_offset = struct.unpack("<HII", eocd[10:20])
    if total_entries == 0xFFFF or cd_size == 0xFFFFFFFF or cd_offset == 0xFFFFFFFF:
        zip64 = _read_zip64_sizes(handle, eocd_offset)
        if zip64 is not None:
            total_entries, cd_size, cd_offset = zip64
    if cd_size > _CD_SIZE_CAP:
        raise CorruptHeader(cd_offset, f"central directory size {cd_size} too large")
    if total_entries > MAX_ENTRIES:
        raise CorruptHeader(cd_offset, f"entry count {total_entries} too large")
    handle.seek(cd_offset)
    directory = handle.read(cd_size)
    entries: list[ArchiveEntry] = []
    pos = 0
    for _ in range(total_entries):
        if pos + 46 > len(directory):
            raise CorruptHeader(cd_offset + pos, "central directory truncated")
        header = directory[pos : pos + 46]
        if header[:4] != ZIP_CENTRAL_MAGIC:
            raise CorruptHeader(cd_offset + pos, "bad central file header signature")
        flags, method_code = struct.unpack("<HH", header[8:12])
        comp_size, uncomp_size = struct.unpack("<II", header[20:28])
        name_len, extra_len, comment_len = struct.unpack("<HHH", header[28:34])
        (local_offset,) = struct.unpack("<I", header[42:46])
        name_raw = directory[pos + 46 : pos + 46 + name_len]
        extra = directory[pos + 46 + name_len : pos + 46 + name_len + extra_len]
        pos += 46 + name_len + extra_len + comment_len
        encoding = "utf-8" if flags & 0x800 else "cp437"
        path = name_raw.decode(encoding, "replace")
        sizes = {
            "uncompressed_size": uncomp_size,
            "compressed_size": comp_size,
            "local_offset": local_offset,
        }
        needed = []
        if uncomp_size == 0xFFFFFFFF:
            needed.append("uncompressed_size")
        if comp_size == 0xFFFFFFFF:
            needed.append("compressed_size")
        if local_offset == 0xFFFFFFFF:
            needed.append("local_offset")
        if needed:
            sizes = _zip64_extra(extra, needed, sizes)
        if method_code == 0:
            method = "stored"
        elif method_code == 8:
            method = "deflate"
        else:
            method = f"unsupported({method_code})"
        entries.append(
            ArchiveEntry(
                path=path,
                compressed_size=sizes["compressed_size"],
                uncompressed_size=sizes["uncompressed_size"],
                method=method,
                offset=sizes["local_offset"],
                encrypted=bool(flags & 0x1),
                suspicious_path=is_path_suspicious(path),
            )
        )
    return entries


def _entry_data_start(handle: BinaryIO, entry: ArchiveEntry) -> int:
    handle.seek(entry.offset)
    local = handle.read(30)
    if len(local) != 30 or local[:4] != ZIP_LOCAL_MAGIC:
        raise CorruptHeader(entry.offset, "bad local file header signature")
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    return entry.offset + 30 + name_len + extra_len


def _member_head(handle: BinaryIO, entry: ArchiveEntry, limit: int) -> bytes:
    """The member's first ``limit`` bytes, stored or inflated; fewer if it
    is shorter.  This is the one inflate loop: whole reads and sniffs share it."""
    handle.seek(_entry_data_start(handle, entry))
    if entry.method == "stored":
        return handle.read(min(limit, entry.uncompressed_size))
    decompressor = zlib.decompressobj(-15)
    remaining = entry.compressed_size
    chunks: list[bytes] = []
    produced = 0
    try:
        while remaining > 0 and produced < limit:
            piece = handle.read(min(remaining, 64 * 1024))
            if not piece:
                break
            remaining -= len(piece)
            # Bounded output per call; the input left over is fed back in.
            while piece and produced < limit:
                out = decompressor.decompress(piece, min(limit - produced, 1 << 20))
                if not out:
                    break
                produced += len(out)
                chunks.append(out)
                piece = decompressor.unconsumed_tail
        if produced < limit:
            # Output zlib still holds once the input is used up: a few bytes.
            chunks.append(decompressor.flush()[: limit - produced])
    except zlib.error as exc:
        raise InflateError(entry.path, str(exc)) from None
    return b"".join(chunks)


def read_entry(handle: BinaryIO, entry: ArchiveEntry, cap: int = DEFAULT_ENTRY_CAP) -> bytes:
    """Return exactly the entry's declared bytes, bounded by ``cap``."""
    if entry.encrypted:
        raise UnsupportedMethod(entry.path, "encrypted entry")
    if entry.method not in ("stored", "deflate"):
        raise UnsupportedMethod(entry.path, f"compression {entry.method}")
    if entry.uncompressed_size > cap:
        raise CapExceeded(f"declared size {entry.uncompressed_size}", cap)
    data = _member_head(handle, entry, cap + 1)
    if len(data) > cap:
        # Inflating stopped one byte past the cap.
        raise CapExceeded(
            f"inflated size of at least {len(data)} (declared {entry.uncompressed_size})", cap
        )
    if len(data) != entry.uncompressed_size:
        raise SizeMismatch(entry.path, entry.uncompressed_size, len(data))
    return data


def read_entry_head(handle: BinaryIO, entry: ArchiveEntry, n: int) -> bytes:
    """Best-effort first ``n`` decompressed bytes, for content sniffing."""
    if entry.encrypted or entry.method not in ("stored", "deflate"):
        return b""
    try:
        return _member_head(handle, entry, n)
    except FormatError:
        return b""


def find_pickle_payloads(
    entries: list[ArchiveEntry],
    handle: BinaryIO,
    cap: int = DEFAULT_ENTRY_CAP,
    errors: list[tuple[ArchiveEntry, FormatError]] | None = None,
) -> list[tuple[ArchiveEntry, bytes]]:
    """Locate every entry a deserializing loader would feed to pickle.

    Selection: a ``.pkl`` path suffix, or content that plausibly starts a
    pickle stream.  In a torch-layout archive, one with a
    ``<prefix>/data.pkl`` member, the members under ``<prefix>/data/`` are
    tensor storage that the loader reads as raw bytes, so their content is
    not sniffed.  Per-entry read failures are appended to ``errors`` (when
    given) as ``(entry, error)`` pairs, without aborting the remaining
    entries.
    """
    storage_dirs = tuple(
        entry.path[: -len("data.pkl")] + "data/"
        for entry in entries
        if entry.path == "data.pkl" or entry.path.endswith("/data.pkl")
    )
    hits: list[tuple[ArchiveEntry, bytes]] = []
    for entry in entries:
        if entry.path.endswith("/"):
            continue
        by_extension = entry.path.endswith(".pkl")
        if not by_extension:
            if entry.uncompressed_size == 0 or entry.path.startswith(storage_dirs):
                continue
            head = read_entry_head(handle, entry, SNIFF_BYTES)
            complete = entry.uncompressed_size <= SNIFF_BYTES
            if not plausible_pickle_prefix(head, complete=complete):
                continue
        try:
            hits.append((entry, read_entry(handle, entry, cap)))
        except FormatError as exc:
            if errors is not None:
                errors.append((entry, exc))
    return hits


def _scan_for(handle: BinaryIO, marker: bytes, start: int, stop: int | None = None) -> int:
    """Chunked search for ``marker`` within ``[start, stop)``, by default up
    to the end of the file; -1 when absent.

    Without ``stop``, chunks start at ``_FIRST_WINDOW`` bytes and double up
    to ``_CHUNK``, so a marker close to ``start`` costs a small read, not a
    full chunk.  A bounded range is read in chunks of up to ``_CHUNK``.
    """
    overlap = len(marker) - 1
    pos = start
    carry = b""
    chunk_size = _FIRST_WINDOW if stop is None else _CHUNK
    handle.seek(start)
    while stop is None or pos < stop:
        chunk = handle.read(chunk_size if stop is None else min(chunk_size, stop - pos))
        if not chunk:
            break
        buffer = carry + chunk
        found = buffer.find(marker)
        if found >= 0:
            return pos - len(carry) + found
        carry = buffer[-overlap:] if overlap else b""
        pos += len(chunk)
        chunk_size = min(2 * chunk_size, _CHUNK)
    return -1


def decode_config(
    data: bytes, offset: int = 0, asked: int | None = None
) -> ExtractedConfig | None:
    """Decode the model config at the start of ``data``, read from ``offset``.

    This is the one model-config decoder: a ``config.json`` member and an
    HDF5 attribute go through the same rules.  After one UTF-8 byte-order
    mark, which ``json.loads`` of the same bytes strips, and any leading JSON
    whitespace, the config is one JSON value, decoded by
    ``json.JSONDecoder.raw_decode``; bytes after it are not read.  Its
    bytes must be strict UTF-8 and at most ``CONFIG_CAP`` long.  Nesting
    deeper than the decoder recurses is ``UnbalancedJson`` ending just past
    the first byte, so that a search for the next candidate resumes there.

    ``asked`` is the size of the read when ``data`` is a window of a longer
    file.  A window that came back full may end inside the value: when
    more bytes could turn a decode error into a success, the result is
    None, and the caller reads a bigger window.
    """
    cap = CONFIG_CAP
    if data.startswith(_UTF8_BOM):
        data = data[len(_UTF8_BOM) :]
        offset += len(_UTF8_BOM)
    text = data.decode("utf-8", "surrogateescape")
    got = len(data)
    del data  # one copy of the window in memory while it is parsed
    begin = _WHITESPACE.match(text).end()  # ASCII: as many bytes as characters
    start = offset + begin
    try:
        config, end = _DECODER.raw_decode(text, begin)
    except RecursionError:
        raise UnbalancedJson(start, start + 1, "JSON object nested too deeply") from None
    except json.JSONDecodeError as exc:
        cut_short = exc.pos + _TRUNCATION_TAIL >= len(text) or exc.msg.startswith(
            "Unterminated string"
        )
        if asked is None or got < asked or not cut_short:
            stop = offset + len(text[: exc.pos].encode("utf-8", "surrogateescape"))
            raise UnbalancedJson(start, stop, f"extracted text is not valid JSON: {exc}") from None
        if got > cap:
            raise CapExceeded(f"config still open after {got} bytes", cap, offset + got) from None
        return None
    json_text = text[begin:end]
    del text
    # Back to the bytes read, where a byte that is not UTF-8 fails a strict decode.
    consumed = json_text.encode("utf-8", "surrogateescape")
    stop = start + len(consumed)
    if len(consumed) > cap:
        raise CapExceeded(f"config size {len(consumed)}", cap, stop)
    try:
        consumed.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnbalancedJson(start, stop, f"extracted text is not valid JSON: {exc}") from None
    return ExtractedConfig(json_text=json_text, byte_range=(start, stop), config=config)


def extract_h5_model_config(handle: BinaryIO, start: int = 0) -> ExtractedConfig:
    """Recover the first model-config JSON at or after ``start`` in an HDF5 file.

    Scans for the attribute name bytes ``model_config`` and decodes the JSON
    object that opens within ``_H5_GAP_CAP`` bytes after it (a marker with
    no object there is skipped) with ``decode_config``.  This sidesteps a
    full HDF5 object-header parse; files written by the mainstream saver
    place the config exactly this way.  A file may hold several candidates
    (a decoy before the real attribute): call again from ``byte_range[1]``,
    or from a failed candidate's ``end_offset``, until ``ConfigNotFound``.

    The first window read for the decoder is ``_FIRST_WINDOW`` bytes.  Each
    time a window's decode error could be a truncation, a NUL byte is
    searched for after it, up to ``_NUL_LOOKAHEAD`` times the window's size
    from the brace.  If there is one, the next window ends just past it and
    is the last one decoded: JSON text holds no raw NUL, so the value ends
    before that NUL, and bytes after it cannot change the decode.  Savers
    NUL-pad the fixed-length string attribute, so a config is decoded
    about once.  Without such a NUL the window doubles, up to
    ``CONFIG_CAP`` + 1 bytes.  Either way the outcome is the one doubling
    alone gives, and work and memory stay proportional to the config, not
    to the file.
    """
    handle.seek(0)
    if handle.read(8) != HDF5_SIGNATURE:
        raise NotHdf5()
    pos = max(start, 8)
    while True:
        marker_at = _scan_for(handle, _H5_MARKER, pos)
        if marker_at < 0:
            raise ConfigNotFound()
        search_start = marker_at + len(_H5_MARKER)
        brace_at = _scan_for(handle, b"{", search_start)
        if brace_at < 0:
            raise ConfigNotFound()
        if brace_at - search_start < _H5_GAP_CAP:
            break
        # Too far.  ``brace_at`` is also the first brace after every later
        # marker that ends before it, so only a marker that ends within the
        # gap before it can open a candidate: skip the rest in one step.
        pos = brace_at - len(_H5_MARKER) - _H5_GAP_CAP + 1
    # A NUL this close to the cap is left to the doubling: there the
    # ``CONFIG_CAP`` + 1 window could still end within ``_TRUNCATION_TAIL``
    # characters (of up to 4 bytes each) of the decode error, which doubling
    # reports as ``CapExceeded``.
    nul_stop = brace_at + CONFIG_CAP + 1 - 4 * _TRUNCATION_TAIL
    searched = brace_at
    size = _FIRST_WINDOW
    while True:
        want = min(size, CONFIG_CAP + 1)
        handle.seek(brace_at)
        # Passed straight in, so the decoder frees the bytes before it parses (3.11+).
        extracted = decode_config(handle.read(want), brace_at, want)
        if extracted is not None:
            return extracted
        # Cut short: look ahead a fixed multiple of the bytes the value fills.
        stop = min(brace_at + _NUL_LOOKAHEAD * want, nul_stop)
        nul_at = _scan_for(handle, b"\x00", max(searched, brace_at + want), stop)
        if nul_at >= 0:
            # A complete window: bytes past the NUL cannot change the decode.
            handle.seek(brace_at)
            return decode_config(handle.read(nul_at + 1 - brace_at), brace_at)
        searched = stop
        size *= 2
