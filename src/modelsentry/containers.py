"""Read-only parsers for the containers that wrap model files.

Two formats are recognized: ZIP archives (PyTorch-style checkpoints and
Keras archive files) read via their central directory, and HDF5 files whose
embedded model-config JSON is recovered by a bounded byte-level heuristic
rather than a full B-tree walk.  A model config from either goes through
the one decoder, ``decode_config``, which also hands over the objects in it
that hold a ``layers`` or a ``layer`` key, so that the scanner walks only a
config that can report.

Nothing here writes, extracts to disk, or resolves member paths against the
filesystem.  Decompression is capped so that a hostile archive cannot
balloon memory.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from typing import BinaryIO, NamedTuple

from .absvm import SNIFF_BYTES, Record, is_pickle, set_field
from .disasm import Fault
from .kerascfg import note_holders

try:
    import bz2
except ImportError:  # an interpreter built without it: its members stay unsupported
    bz2 = None
try:
    import lzma
except ImportError:
    lzma = None

ZIP_LOCAL_MAGIC = b"PK\x03\x04"
ZIP_EOCD_MAGIC = b"PK\x05\x06"
ZIP_CENTRAL_MAGIC = b"PK\x01\x02"
ZIP64_EOCD_MAGIC = b"PK\x06\x06"
ZIP64_LOCATOR_MAGIC = b"PK\x06\x07"
HDF5_SIGNATURE = b"\x89HDF\r\n\x1a\n"

EOCD_SEARCH_WINDOW = 66 * 1024
# Cap on the entries listed from the central directory.
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
_WHITESPACE = json.decoder.WHITESPACE
# The 46-byte central file header, keeping the signature, flags, method,
# CRC-32, sizes, name/extra/comment lengths and local header offset.
_CENTRAL_HEADER = struct.Struct("<4s4xHH4xIIIHHH8xI")
# The compression methods a member can be read in, by code: bzip2 and LZMA
# where the interpreter has their modules.
_METHODS = {0: "stored", 8: "deflate"}
if bz2 is not None:
    _METHODS[12] = "bzip2"
if lzma is not None:
    _METHODS[14] = "lzma"
_READABLE = frozenset(_METHODS.values())
# What a bad stream raises: zlib.error, bz2's OSError, lzma.LZMAError.
_DECOMPRESS_ERRORS = (zlib.error, OSError, getattr(lzma, "LZMAError", zlib.error))


class FormatError(Fault):
    # Where reading stopped, for an error inside an HDF5 config candidate:
    # the next candidate is searched for from there.
    end_offset: int | None = None


class NoCentralDirectory(FormatError):
    def __init__(self):
        super().__init__(None, "no ZIP end-of-central-directory record found")


class CorruptHeader(FormatError):
    def __init__(self, offset: int, detail: str):
        super().__init__(None, f"corrupt header at offset {offset}: {detail}")


class UnsupportedMethod(FormatError):
    def __init__(self, path: str, detail: str):
        super().__init__(None, f"entry {path!r}: {detail}")


class CrcMismatch(FormatError):
    def __init__(self, path: str, declared: int, actual: int):
        super().__init__(None, f"entry {path!r}: declared CRC-32 {declared:08x}, got {actual:08x}")


class InflateError(FormatError):
    def __init__(self, path: str, detail: str):
        super().__init__(None, f"entry {path!r}: inflate failed: {detail}")


class CapExceeded(FormatError):
    def __init__(self, measured: str, cap: int, end_offset: int | None = None):
        # ``measured`` names what went over the cap, with its size.
        super().__init__(None, f"{measured} exceeds cap {cap}")
        self.end_offset = end_offset


class NotHdf5(FormatError):
    def __init__(self):
        super().__init__(None, "file does not start with the HDF5 signature")


class ConfigNotFound(FormatError):
    def __init__(self):
        super().__init__(None, "no model_config attribute found")


class UnbalancedJson(FormatError):
    def __init__(self, start_offset: int, end_offset: int, detail: str):
        super().__init__(None, f"{detail} starting at offset {start_offset}")
        self.end_offset = end_offset


class ArchiveEntry(NamedTuple):
    """One central-directory entry, as declared (paths are data, not fs)."""

    path: str
    compressed_size: int
    uncompressed_size: int
    method: str  # "stored", "deflate", "bzip2", "lzma", or "unsupported(N)"
    offset: int  # byte position of the local header
    encrypted: bool = False
    suspicious_path: bool = False
    crc: int = 0  # the CRC-32 declared for the member's uncompressed bytes

    @property
    def readable(self) -> bool:
        """Not encrypted, and stored or compressed in a method read here."""
        return not self.encrypted and self.method in _READABLE


class ExtractedConfig(Record, frozen=True):
    __slots__ = ("byte_range", "config", "holders")

    def __init__(self, byte_range: tuple[int, int], config: object, holders: list[dict]):
        set_field(self, "byte_range", byte_range)  # of the config's JSON text, in the bytes read
        set_field(self, "config", config)  # that text, parsed
        # Every object of it holding a "layers" or a "layer" key, innermost
        # first: the only ones ``kerascfg.walk_layers`` reports from.
        set_field(self, "holders", holders)


def is_path_suspicious(path: str) -> bool:
    """Absolute roots, drive letters, or ``..`` segments in an archive name."""
    if not path:
        return True
    if path.startswith(("/", "\\")):
        return True
    if len(path) >= 2 and path[1] == ":" and path[0].isalpha():
        return True
    # Only a name holding ".." can have a ".." segment.
    return ".." in path and ".." in path.replace("\\", "/").split("/")


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


def _read_zip64_sizes(handle: BinaryIO, eocd_offset: int) -> tuple[int, int] | None:
    """Return (cd_size, cd_offset) from the ZIP64 end record, read where
    ``zipfile`` reads it: just before the locator that just precedes the
    end record.  None when either record is not there."""
    records_at = eocd_offset - 56 - 20
    if records_at < 0:
        return None
    handle.seek(records_at)
    records = handle.read(56 + 20)
    if records[:4] != ZIP64_EOCD_MAGIC or records[56:60] != ZIP64_LOCATOR_MAGIC:
        return None
    return struct.unpack("<QQ", records[40:56])


def _zip64_extra(extra: bytes, values: list[int]) -> list[int]:
    """Patch the 0xFFFFFFFF placeholders among ``values`` (uncompressed
    size, compressed size, local header offset: the ZIP64 field order)
    from the ZIP64 extra field."""
    pos = 0
    while pos + 4 <= len(extra):
        header_id, data_size = struct.unpack_from("<HH", extra, pos)
        data = extra[pos + 4 : pos + 4 + data_size]
        if header_id == 0x0001:
            cursor = 0
            for index, value in enumerate(values):
                if value != 0xFFFFFFFF:
                    continue
                if cursor + 8 > len(data):
                    break
                (values[index],) = struct.unpack_from("<Q", data, cursor)
                cursor += 8
            break
        pos += 4 + data_size
    return values


def list_entries(handle: BinaryIO) -> list[ArchiveEntry]:
    """Read the central directory; order preserved, nothing decompressed.

    As ``zipfile`` does, the directory's size and offset come from the
    ZIP64 records whenever their locator precedes the end record, and
    central headers are read while that size lasts.  No entry count is
    read, so a count that is wrong hides no member.  ``MAX_ENTRIES``
    bounds the entries listed."""
    eocd_offset, eocd = _find_eocd(handle, _file_size(handle))
    cd_size, cd_offset = _read_zip64_sizes(handle, eocd_offset) or struct.unpack("<II", eocd[12:20])
    if cd_size > _CD_SIZE_CAP:
        raise CorruptHeader(cd_offset, f"central directory size {cd_size} too large")
    handle.seek(cd_offset)
    directory = handle.read(cd_size)
    entries: list[ArchiveEntry] = []
    pos = 0
    while pos < cd_size:
        if pos + 46 > len(directory):
            raise CorruptHeader(cd_offset + pos, "central directory truncated")
        (
            magic, flags, method_code, crc, comp_size, uncomp_size, name_len, extra_len, comment_len,
            local_offset,
        ) = _CENTRAL_HEADER.unpack_from(directory, pos)
        if magic != ZIP_CENTRAL_MAGIC:
            raise CorruptHeader(cd_offset + pos, "bad central file header signature")
        name_end = pos + 46 + name_len
        path = directory[pos + 46 : name_end].decode("utf-8" if flags & 0x800 else "cp437", "replace")
        if 0xFFFFFFFF in (uncomp_size, comp_size, local_offset):
            uncomp_size, comp_size, local_offset = _zip64_extra(
                directory[name_end : name_end + extra_len], [uncomp_size, comp_size, local_offset]
            )
        pos = name_end + extra_len + comment_len
        method = _METHODS.get(method_code) or f"unsupported({method_code})"
        entries.append(
            ArchiveEntry(
                path, comp_size, uncomp_size, method, local_offset, bool(flags & 0x1),
                is_path_suspicious(path), crc,
            )
        )
        if len(entries) > MAX_ENTRIES:
            raise CorruptHeader(cd_offset, f"entry count {len(entries)} too large")
    return entries


def _entry_data_start(handle: BinaryIO, entry: ArchiveEntry) -> int:
    handle.seek(entry.offset)
    local = handle.read(30)
    if len(local) != 30 or local[:4] != ZIP_LOCAL_MAGIC:
        raise CorruptHeader(entry.offset, "bad local file header signature")
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    return entry.offset + 30 + name_len + extra_len


class _Deflate:
    """Raw deflate with the interface of the bz2 and lzma decompressors:
    input past a call's ``max_length`` of output is held back, and
    ``needs_input`` says when it is used up."""

    def __init__(self):
        self._zlib = zlib.decompressobj(-15)

    @property
    def needs_input(self) -> bool:
        return not self._zlib.unconsumed_tail

    @property
    def eof(self) -> bool:
        return self._zlib.eof

    def decompress(self, data: bytes, max_length: int) -> bytes:
        return self._zlib.decompress(self._zlib.unconsumed_tail + data, max_length)


def _lzma_decompressor(handle: BinaryIO, path: str, limit: int):
    """Read an LZMA member's header as ``zipfile`` reads it (a version, the
    size of the properties, then LZMA1 properties) and return the raw
    decoder of the data after it.  Its dictionary is held to ``limit``
    bytes: no match in the first ``limit`` bytes of output reaches back
    further, and a hostile header's 4 GiB would be allocated for nothing."""
    header = handle.read(4)
    if len(header) < 4:
        raise InflateError(path, "LZMA header cut short")
    properties = handle.read(int.from_bytes(header[2:4], "little"))
    try:
        lzma1 = lzma._decode_filter_properties(lzma.FILTER_LZMA1, properties)
        lzma1["dict_size"] = min(lzma1["dict_size"], limit)
        return lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=[lzma1])
    except lzma.LZMAError as exc:
        raise InflateError(path, str(exc)) from None


def _member_head(handle: BinaryIO, entry: ArchiveEntry, limit: int) -> bytes:
    """The member's first ``limit`` bytes, as ``zipfile`` yields them: output
    stops at the declared uncompressed size, and a stored member's read also
    at its compressed size; fewer if the data ends first.  This is the one
    decompression loop, for every method: whole reads and sniffs share it,
    and it refuses any member not ``readable``.  Each call's output is
    bounded, and input is read only when the decompressor has used up what
    it holds."""
    if not entry.readable:
        detail = "encrypted entry" if entry.encrypted else f"compression {entry.method}"
        raise UnsupportedMethod(entry.path, detail)
    limit = min(limit, entry.uncompressed_size)
    start = _entry_data_start(handle, entry)
    handle.seek(start)
    if entry.method == "stored":
        return handle.read(min(limit, entry.compressed_size))
    if entry.method == "deflate":
        decompressor = _Deflate()
    elif entry.method == "bzip2":
        decompressor = bz2.BZ2Decompressor()
    else:
        decompressor = _lzma_decompressor(handle, entry.path, limit)
    remaining = entry.compressed_size - (handle.tell() - start)
    chunks: list[bytes] = []
    produced = 0
    while produced < limit and not decompressor.eof:
        piece = b""
        if decompressor.needs_input and remaining > 0:
            piece = handle.read(min(remaining, 64 * 1024))
            remaining -= len(piece)
        try:
            out = decompressor.decompress(piece, min(limit - produced, 1 << 20))
        except _DECOMPRESS_ERRORS as exc:
            raise InflateError(entry.path, str(exc)) from None
        if not out and not piece:
            break  # the input is used up, and so is what it held
        produced += len(out)
        chunks.append(out)
    return b"".join(chunks)


def read_entry(
    handle: BinaryIO,
    entry: ArchiveEntry,
    cap: int = DEFAULT_ENTRY_CAP,
    *,
    errors: list[tuple[ArchiveEntry, FormatError]],
) -> bytes:
    """Return the bytes ``zipfile.ZipFile.read`` returns for the entry,
    bounded by ``cap``: ``CapExceeded`` once more than ``cap`` come out.

    The bytes are checked against the declared CRC-32, and a mismatch is
    appended to ``errors`` as ``(entry, CrcMismatch)``.  The bytes are
    returned all the same: a loader that skips the check reads them."""
    data = _member_head(handle, entry, cap + 1)
    if len(data) > cap:
        # Inflating stopped one byte past the cap.
        raise CapExceeded(
            f"inflated size of at least {len(data)} (declared {entry.uncompressed_size})", cap
        )
    actual = zlib.crc32(data)
    if actual != entry.crc:
        errors.append((entry, CrcMismatch(entry.path, entry.crc, actual)))
    return data


def read_entry_head(handle: BinaryIO, entry: ArchiveEntry, n: int) -> bytes:
    """Best-effort first ``n`` decompressed bytes, for content sniffing."""
    try:
        return _member_head(handle, entry, n)
    except FormatError:
        return b""


def find_pickle_payloads(
    entries: list[ArchiveEntry],
    handle: BinaryIO,
    cap: int = DEFAULT_ENTRY_CAP,
    *,
    errors: list[tuple[ArchiveEntry, FormatError]],
) -> list[tuple[ArchiveEntry, bytes]]:
    """Read every entry a deserializing loader may feed to pickle.

    Selection: ``is_pickle`` of the member's path and of its first
    ``SNIFF_BYTES`` bytes, unless that rules the member out.  A member
    whose head leaves it undecided is read too; the scan of its bytes
    decides.  In a torch-layout archive, one with a ``<prefix>/data.pkl``
    member, the members under ``<prefix>/data/`` are tensor storage that
    the loader reads as raw bytes, so their content is not read.  Only
    those, directories, and encrypted or unsupported members not named
    ``.pkl`` are passed over without a read.  Per-entry
    read failures and CRC-32 mismatches are appended to ``errors`` as
    ``(entry, error)`` pairs, without aborting the remaining entries; a
    member that fails its CRC-32 is returned too.
    """
    storage_dirs = tuple(
        entry.path[: -len("data.pkl")] + "data/"
        for entry in entries
        if entry.path == "data.pkl" or entry.path.endswith("/data.pkl")
    )
    hits: list[tuple[ArchiveEntry, bytes]] = []
    for entry in entries:
        if not entry.path.endswith(".pkl"):
            # Directories and storage are not pickles; the scanner flags a
            # member that is not readable.
            if entry.path.endswith("/") or entry.path.startswith(storage_dirs):
                continue
            if not entry.readable:
                continue
            # A head that could not be read is empty: unless the member is
            # empty too, that decides nothing, and the whole read reports it.
            head = read_entry_head(handle, entry, SNIFF_BYTES)
            if is_pickle(entry.path, head, entry.uncompressed_size <= len(head)) is False:
                continue
        try:
            hits.append((entry, read_entry(handle, entry, cap, errors=errors)))
        except FormatError as exc:
            # Detached, the error pins no frame of the read and none of its bytes.
            errors.append((entry, exc.detach()))
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
    data: bytes, offset: int = 0, asked: int | None = None, whole: bool = False
) -> ExtractedConfig | None:
    """Decode the model config at the start of ``data``, read from ``offset``.

    This is the one model-config decoder: a ``config.json`` member and an
    HDF5 attribute go through the same rules.  After one UTF-8 byte-order
    mark, which ``json.loads`` of the same bytes strips, and any leading JSON
    whitespace, the config is one JSON value, decoded by
    ``json.JSONDecoder.raw_decode``; bytes after it are not read.  Its
    bytes must be UTF-8 and at most ``CONFIG_CAP`` long; as in
    ``json.loads(bytes)``, an encoded surrogate code point is accepted
    (``surrogatepass``) and decodes to that code point.  Nesting
    deeper than the decoder recurses is ``UnbalancedJson`` ending just past
    the first byte, so that a search for the next candidate resumes there.
    While it builds the config, the decoder lists its ``holders``
    (``kerascfg.note_holders``), which ``kerascfg.may_report`` reads to
    tell whether the config needs a walk.

    ``whole`` says that ``data`` is a whole ``config.json`` member, which
    Keras reads with ``json.loads(bytes)``: a member that codec detection
    (``json.detect_encoding``) takes for UTF-16 or UTF-32 is decoded in
    that codec and re-encoded as UTF-8 first, so its byte range
    and cap count UTF-8 bytes.  An HDF5 window is always UTF-8.

    ``asked`` is the size of the read when ``data`` is a window of a longer
    file.  A window that came back full may end inside the value: when
    more bytes could turn a decode error into a success, the result is
    None, and the caller reads a bigger window.
    """
    cap = CONFIG_CAP
    if data.startswith(_UTF8_BOM):
        data = data[len(_UTF8_BOM) :]
        offset += len(_UTF8_BOM)
    elif whole and (encoding := json.detect_encoding(data)) != "utf-8":
        try:
            data = data.decode(encoding, "surrogatepass").encode("utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            stop = offset + exc.end
            raise UnbalancedJson(offset, stop, f"config is not {encoding}: {exc}") from None
    text = data.decode("utf-8", "surrogateescape")
    got = len(data)
    del data  # one copy of the window in memory while it is parsed
    begin = _WHITESPACE.match(text).end()  # ASCII: as many bytes as characters
    start = offset + begin
    holders: list[dict] = []
    try:
        config, end = json.JSONDecoder(object_hook=note_holders(holders)).raw_decode(text, begin)
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
    if text.isascii():
        # Each byte read is one character and valid UTF-8: nothing to re-check.
        size = end - begin
        if size > cap:
            raise CapExceeded(f"config size {size}", cap, start + size)
        return ExtractedConfig((start, start + size), config, holders)
    config_text = text[begin:end]
    del text
    # Back to the bytes read, where a byte that is not UTF-8 fails the decode.
    consumed = config_text.encode("utf-8", "surrogateescape")
    stop = start + len(consumed)
    if len(consumed) > cap:
        raise CapExceeded(f"config size {len(consumed)}", cap, stop)
    try:
        loaded_text = consumed.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise UnbalancedJson(start, stop, f"extracted text is not valid JSON: {exc}") from None
    if len(loaded_text) != len(config_text):
        # An encoded surrogate, which the first decode held as one escape
        # per byte: decode the text json.loads(bytes) would read.
        holders = []
        config = json.JSONDecoder(object_hook=note_holders(holders)).decode(loaded_text)
    return ExtractedConfig((start, stop), config, holders)


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
