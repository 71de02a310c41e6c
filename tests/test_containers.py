"""Container parsing, cross-checked against the stdlib zipfile module.

zipfile writes every archive used here and doubles as the independent
reader the entry listings and contents are compared against.
"""

from __future__ import annotations

import base64
import io
import json
import struct
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelsentry.containers as containers_module
from modelsentry.containers import (
    HDF5_SIGNATURE,
    CapExceeded,
    ConfigNotFound,
    CorruptHeader,
    InflateError,
    NoCentralDirectory,
    NotHdf5,
    SizeMismatch,
    UnbalancedJson,
    UnsupportedMethod,
    ArchiveEntry,
    ExtractedConfig,
    FormatError,
    decode_config,
    extract_h5_model_config,
    find_pickle_payloads,
    is_path_suspicious,
    list_entries,
    read_entry,
    read_entry_head,
)
from modelsentry.forge import (
    emit_keras_h5,
    emit_keras_lambda_config,
    emit_reduce_payload_pickle,
    emit_torch_like_zip,
)


def make_zip(members: dict[str, bytes], compress: bool = False) -> io.BytesIO:
    buffer = io.BytesIO()
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with zipfile.ZipFile(buffer, "w", method) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    buffer.seek(0)
    return buffer


def test_entries_match_zipfile_listing():
    members = {"a.txt": b"alpha", "dir/b.bin": b"\x00" * 100, "c.pkl": b"N."}
    handle = make_zip(members, compress=True)
    entries = list_entries(handle)
    with zipfile.ZipFile(handle) as reference:
        infos = reference.infolist()
    assert [e.path for e in entries] == [i.filename for i in infos]
    assert [e.uncompressed_size for e in entries] == [i.file_size for i in infos]
    assert [e.compressed_size for e in entries] == [i.compress_size for i in infos]
    assert [e.offset for e in entries] == [i.header_offset for i in infos]


@pytest.mark.parametrize("compress", [False, True])
def test_read_entry_matches_zipfile_read(compress):
    members = {"x.bin": bytes(range(256)) * 40, "tiny": b"hello"}
    handle = make_zip(members, compress=compress)
    entries = list_entries(handle)
    with zipfile.ZipFile(handle) as reference:
        for entry in entries:
            assert read_entry(handle, entry) == reference.read(entry.path)


@pytest.mark.parametrize("compress", [False, True])
def test_head_read_is_a_prefix_of_the_full_read(compress):
    data = bytes(range(256)) * 300 + b"\x00" * 200_000
    handle = make_zip({"m.bin": data}, compress=compress)
    (entry,) = list_entries(handle)
    full = read_entry(handle, entry)
    assert full == data
    for n in (0, 1, len(data) - 1, len(data), len(data) + 1):
        assert read_entry_head(handle, entry, n) == full[:n]


def test_corrupt_deflate_stream_is_empty_head_and_inflate_error():
    handle = make_zip({"m.bin": b"payload " * 1000}, compress=True)
    (entry,) = list_entries(handle)
    blob = bytearray(handle.getvalue())
    name_len, extra_len = struct.unpack("<HH", blob[entry.offset + 26 : entry.offset + 30])
    blob[entry.offset + 30 + name_len + extra_len] = 0xFF  # a reserved block type
    corrupt = io.BytesIO(bytes(blob))
    assert read_entry_head(corrupt, entry, 512) == b""
    with pytest.raises(InflateError):
        read_entry(corrupt, entry)


def test_stored_five_bytes():
    handle = make_zip({"greeting": b"hello"})
    (entry,) = list_entries(handle)
    assert entry.method == "stored"
    assert read_entry(handle, entry) == b"hello"


def test_empty_zip_lists_nothing():
    handle = make_zip({})
    data = handle.getvalue()
    assert len(data) == 22  # bare end-of-central-directory record
    assert list_entries(io.BytesIO(data)) == []


def test_random_bytes_is_no_central_directory():
    with pytest.raises(NoCentralDirectory):
        list_entries(io.BytesIO(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"))


def test_declared_size_over_cap():
    handle = make_zip({"big": b"z" * 4096})
    (entry,) = list_entries(handle)
    with pytest.raises(CapExceeded) as raised:
        read_entry(handle, entry, cap=1024)
    assert raised.value.message == "declared size 4096 exceeds cap 1024"


def test_decompression_bomb_hits_cap_even_when_size_lies():
    # declared sizes come from the central directory; forge a lying one
    honest = make_zip({"boom": b"\x00" * (4 << 20)}, compress=True)
    entries = list_entries(honest)
    (entry,) = entries
    liar = ArchiveEntry(
        path=entry.path,
        compressed_size=entry.compressed_size,
        uncompressed_size=100,  # claims small, inflates to 4 MiB
        method=entry.method,
        offset=entry.offset,
    )
    with pytest.raises(CapExceeded) as raised:
        read_entry(honest, liar, cap=1 << 20)
    # Inflating stops one byte past the cap: the message says so, not "declared".
    assert raised.value.message == (
        f"inflated size of at least {(1 << 20) + 1} (declared 100) exceeds cap {1 << 20}"
    )


def test_truncated_stored_entry_is_size_mismatch():
    handle = make_zip({"cut.bin": b"A" * 1000})
    (entry,) = list_entries(handle)
    truncated = io.BytesIO(handle.getvalue()[: entry.offset + 40])
    with pytest.raises((SizeMismatch, CorruptHeader)):
        read_entry(truncated, entry)


def test_encrypted_and_exotic_methods_are_unsupported():
    handle = make_zip({"e": b"x"})
    (entry,) = list_entries(handle)
    encrypted = ArchiveEntry(entry.path, 1, 1, "stored", entry.offset, encrypted=True)
    with pytest.raises(UnsupportedMethod):
        read_entry(handle, encrypted)
    exotic = ArchiveEntry(entry.path, 1, 1, "unsupported(14)", entry.offset)
    with pytest.raises(UnsupportedMethod):
        read_entry(handle, exotic)


def test_zip64_records_supported():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        with archive.open(zipfile.ZipInfo("big64"), "w", force_zip64=True) as member:
            member.write(b"payload-bytes")
    buffer.seek(0)
    (entry,) = list_entries(buffer)
    assert entry.uncompressed_size == len(b"payload-bytes")
    assert read_entry(buffer, entry) == b"payload-bytes"


@pytest.mark.parametrize(
    "path,flagged",
    [
        ("model/data.pkl", False),
        ("../evil.sh", True),
        ("a/../../b", True),
        ("/etc/passwd", True),
        ("C:evil", True),
        ("nested/ok/file", False),
        ("", True),
    ],
)
def test_path_traversal_flagging(path, flagged):
    assert is_path_suspicious(path) is flagged


def test_traversal_paths_surface_in_listing_without_resolution(tmp_path):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(zipfile.ZipInfo("../escape.txt"), b"data")
    buffer.seek(0)
    (entry,) = list_entries(buffer)
    assert entry.suspicious_path
    assert not (tmp_path.parent / "escape.txt").exists()


# -- pickle payload location ---------------------------------------------------


def test_torch_like_archive_yields_exactly_the_data_pickle():
    inner = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 2)
    handle = io.BytesIO(emit_torch_like_zip(inner))
    entries = list_entries(handle)
    hits = find_pickle_payloads(entries, handle)
    assert [(entry.path) for entry, _ in hits] == ["model/data.pkl"]
    assert hits[0][1] == inner


def test_archive_with_only_config_json_has_no_payloads():
    handle = make_zip({"config.json": b'{"layers": []}'})
    entries = list_entries(handle)
    assert find_pickle_payloads(entries, handle) == []


def test_content_sniff_overrides_extension():
    inner = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 4)
    assert inner[:2] == b"\x80\x04"
    handle = make_zip({"weights.bin": inner})
    entries = list_entries(handle)
    hits = find_pickle_payloads(entries, handle)
    assert [entry.path for entry, _ in hits] == ["weights.bin"]


def test_payload_errors_collected_per_entry_without_aborting():
    good = b"N."
    handle = make_zip({"a.pkl": good, "b.pkl": b"M" * 3})
    entries = list_entries(handle)
    truncated = io.BytesIO(handle.getvalue())
    errors: list = []
    # simulate a read failure on one entry by lying about its size
    bad = ArchiveEntry("b.pkl", 3, 3000, "stored", entries[1].offset)
    hits = find_pickle_payloads([entries[0], bad], truncated, errors=errors)
    assert [entry.path for entry, _ in hits] == ["a.pkl"]
    assert len(errors) == 1


# -- HDF5 heuristic --------------------------------------------------------------


def test_h5_round_trip_three_layer_config():
    config = emit_keras_lambda_config(True)
    handle = io.BytesIO(emit_keras_h5(config))
    extracted = extract_h5_model_config(handle)
    assert extracted.json_text == config
    parsed = json.loads(extracted.json_text)
    layers = parsed["config"]["layers"]
    assert [layer["class_name"] for layer in layers] == ["Dense", "Lambda", "Dense"]


def test_h5_round_trip_empty_object():
    handle = io.BytesIO(emit_keras_h5("{}"))
    assert extract_h5_model_config(handle).json_text == "{}"


def test_h5_round_trip_braces_inside_strings():
    config = json.dumps({"name": "we{ir}d \"quoted\" \\ {{{", "layers": []})
    handle = io.BytesIO(emit_keras_h5(config))
    assert extract_h5_model_config(handle).json_text == config


def test_h5_signature_plus_padding_is_config_not_found():
    handle = io.BytesIO(b"\x89HDF\r\n\x1a\n" + b"\x00" * 512)
    with pytest.raises(ConfigNotFound):
        extract_h5_model_config(handle)


def test_zip_magic_is_not_hdf5():
    with pytest.raises(NotHdf5):
        extract_h5_model_config(io.BytesIO(b"PK\x03\x04" + b"\x00" * 64))


def test_unbalanced_json_is_structured():
    body = b"\x89HDF\r\n\x1a\n" + b"model_config" + b'{"never": "closed"'
    with pytest.raises(UnbalancedJson):
        extract_h5_model_config(io.BytesIO(body))


def test_config_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(containers_module, "CONFIG_CAP", 64)
    big = json.dumps({"k": "v" * 200})
    with pytest.raises(CapExceeded) as raised:
        extract_h5_model_config(io.BytesIO(emit_keras_h5(big)))
    assert raised.value.message == "config still open after 65 bytes exceeds cap 64"


def test_config_cap_is_exact(monkeypatch):
    config = json.dumps({"k": "v" * 200})
    monkeypatch.setattr(containers_module, "CONFIG_CAP", len(config))
    assert extract_h5_model_config(io.BytesIO(emit_keras_h5(config))).json_text == config
    monkeypatch.setattr(containers_module, "CONFIG_CAP", len(config) - 1)
    with pytest.raises(CapExceeded) as raised:
        extract_h5_model_config(io.BytesIO(emit_keras_h5(config)))
    assert raised.value.message == f"config size {len(config)} exceeds cap {len(config) - 1}"


def test_byte_range_points_at_the_json():
    config = emit_keras_lambda_config(False)
    blob = emit_keras_h5(config)
    handle = io.BytesIO(blob)
    extracted = extract_h5_model_config(handle)
    start, end = extracted.byte_range
    assert blob[start:end].decode("utf-8") == config


def test_decode_config_skips_one_byte_order_mark():
    """``json.loads`` of bytes strips one UTF-8 BOM, and so does the decoder;
    the byte range starts after it."""
    extracted = decode_config(b"\xef\xbb\xbf \n{}", 10)
    assert (extracted.json_text, extracted.byte_range, extracted.config) == ("{}", (15, 17), {})
    with pytest.raises(UnbalancedJson):
        decode_config(b"\xef\xbb\xbf" * 2 + b"{}")


def _brace_count_extract(blob: bytes, cap: int) -> ExtractedConfig:
    """The per-byte brace counter the extractor used before ``raw_decode``,
    kept as its oracle: find the balanced object (respecting JSON string
    escapes), then check that it is strict UTF-8 and valid JSON."""
    marker_at = blob.find(b"model_config", 8)
    if marker_at < 0:
        raise ConfigNotFound()
    search_start = marker_at + len(b"model_config")
    brace_at = blob.find(b"{", search_start, search_start + 64 * 1024)
    if brace_at < 0:
        raise ConfigNotFound()
    depth = 0
    in_string = False
    escaped = False
    end = brace_at
    while True:
        if end >= len(blob):
            raise UnbalancedJson(brace_at, end, "end of file inside JSON object")
        if end + 1 - brace_at > cap:
            raise CapExceeded(end + 1 - brace_at, cap)
        byte = blob[end]
        end += 1
        if in_string:
            if escaped:
                escaped = False
            elif byte == 0x5C:  # backslash
                escaped = True
            elif byte == 0x22:  # double quote
                in_string = False
            continue
        if byte == 0x22:
            in_string = True
        elif byte == 0x7B:  # {
            depth += 1
        elif byte == 0x7D:  # }
            depth -= 1
            if depth == 0:
                break
    try:
        json_text = blob[brace_at:end].decode("utf-8")
        config = json.loads(json_text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UnbalancedJson(brace_at, end, f"extracted text is not valid JSON: {exc}") from None
    return ExtractedConfig(json_text, (brace_at, end), config)


def _outcome(extract, blob: bytes):
    try:
        extracted = extract(blob)
    except (CapExceeded, UnbalancedJson) as exc:
        return type(exc)
    return extracted.json_text, extracted.byte_range, extracted.config


# U+E000 in a generated string marks where an invalid UTF-8 byte goes.
_BAD_BYTE_MARK = "\ue000"
_TEXT = st.text(
    alphabet=st.sampled_from(list('ab{}[]"\\:,\u00e9\u4e2d\U0001f600 ') + [_BAD_BYTE_MARK]),
    max_size=40,
)
# Long enough to cross the first read windows of the extractor.
_LONG = st.integers(0, 9000).map(
    lambda size: base64.b64encode(bytes(i * 37 % 256 for i in range(size))).decode("ascii")
)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(10**12), 10**12), _TEXT, _LONG),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def _h5_blobs(draw):
    config = json.dumps({"config": draw(_VALUES)}, ensure_ascii=False).encode("utf-8")
    if draw(st.booleans()):
        config = config.replace(_BAD_BYTE_MARK.encode("utf-8"), b"\xff")
    if draw(st.booleans()):
        config = config[: draw(st.integers(1, len(config)))]  # the file ends inside it
    else:
        config += draw(st.binary(max_size=64))
    gap = draw(st.binary(max_size=16).filter(lambda raw: b"{" not in raw))
    return HDF5_SIGNATURE + b"\x00" * 8 + b"model_config" + gap + config


@settings(max_examples=300, deadline=None)
@given(_h5_blobs(), st.one_of(st.just(64 * 1024 * 1024), st.integers(2, 40_000)))
def test_h5_extraction_matches_the_brace_counter(blob, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(containers_module, "CONFIG_CAP", cap)
        got = _outcome(lambda data: extract_h5_model_config(io.BytesIO(data)), blob)
    assert got == _outcome(lambda data: _brace_count_extract(data, cap), blob)


class _CountingReads(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes: list[int] = []

    def read(self, size: int | None = -1) -> bytes:
        data = super().read(size)
        self.sizes.append(len(data))
        return data


def test_h5_extraction_reads_the_config_not_the_file():
    config = json.dumps({"class_name": "Sequential", "pad": "x" * 2000})
    handle = _CountingReads(emit_keras_h5(config) + b"\xff" * (8 * 1024 * 1024))
    assert extract_h5_model_config(handle).json_text == config
    assert sum(handle.sizes) < 10 * len(config)


def _doubling_extract(blob: bytes) -> ExtractedConfig:
    """The window loop the extractor ran before it looked for the NUL that
    ends a config, kept as its oracle: decode a window from the brace that
    doubles while the decode error could be a truncation."""
    marker_at = blob.find(b"model_config", 8)
    if marker_at < 0:
        raise ConfigNotFound()
    search_start = marker_at + len(b"model_config")
    brace_at = blob.find(b"{", search_start, search_start + 64 * 1024)
    if brace_at < 0:
        raise ConfigNotFound()
    handle = io.BytesIO(blob)
    size = containers_module._FIRST_WINDOW
    while True:
        want = min(size, containers_module.CONFIG_CAP + 1)
        handle.seek(brace_at)
        extracted = decode_config(handle.read(want), brace_at, want)
        if extracted is not None:
            return extracted
        size *= 2


def _full_outcome(extract, blob: bytes):
    try:
        extracted = extract(blob)
    except FormatError as exc:
        return type(exc), exc.message, exc.end_offset
    return extracted.json_text, extracted.byte_range, extracted.config


# A JSON ending in ``"pad": ""}``: padding goes between the quotes.
_PADDED = st.builds(lambda value: {"config": value, "pad": ""}, _VALUES)


@st.composite
def _window_edge_blobs(draw):
    """A config that ends within 20 bytes of a read-window edge, with or
    without a NUL inside it or after it, and a cap that may sit just past
    the first NUL."""
    window = containers_module._FIRST_WINDOW
    base = json.dumps(draw(_PADDED), ensure_ascii=False).encode("utf-8")
    target = (window << draw(st.integers(0, 5))) + draw(st.integers(-20, 20))
    pad = max(0, target - len(base))
    config = base[:-2] + b"x" * pad + base[-2:]
    mark = draw(st.sampled_from([None, b"\xff", b"\x00"]))
    if mark is not None:
        config = config.replace(_BAD_BYTE_MARK.encode("utf-8"), mark)
    if pad and draw(st.booleans()):  # a NUL inside the padding string
        at = len(base) - 2 + draw(st.integers(0, pad - 1))
        config = config[:at] + b"\x00" + config[at + 1 :]
    config = config[: len(config) - draw(st.integers(0, min(20, len(config) - 1)))]
    tail = draw(
        st.one_of(
            st.just(b""),  # the file ends here
            st.integers(1, 64).map(lambda n: b"\x00" * n),  # NUL padding
            st.builds(  # a NUL-free run, maybe past the lookahead, then maybe NULs
                lambda byte, n, nuls: byte * n + b"\x00" * nuls,
                st.sampled_from([b"a", b" ", b"\xff", b"}", b'"']),
                st.integers(1, 140_000),
                st.sampled_from([0, 1, 8]),
            ),
        )
    )
    blob = HDF5_SIGNATURE + b"\x00" * 8 + b"model_config" + b"\x00" * 4 + config + tail
    brace_at = blob.index(b"{")
    caps = [st.just(64 * 1024 * 1024), st.integers(2, 140_000)]
    nul_at = blob.find(b"\x00", brace_at)
    if nul_at >= 0:
        caps.append(st.integers(0, 20).map(lambda before: nul_at - brace_at + before))
    return blob, draw(st.one_of(caps))


@settings(max_examples=300, deadline=None)
@given(_window_edge_blobs())
def test_h5_extraction_matches_the_doubling_windows(blob_and_cap):
    """Ending the window at a NUL changes no outcome: the config, its text
    and byte range, or the error's kind, message and end offset."""
    blob, cap = blob_and_cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(containers_module, "CONFIG_CAP", cap)
        got = _full_outcome(lambda data: extract_h5_model_config(io.BytesIO(data)), blob)
        assert got == _full_outcome(_doubling_extract, blob)


def test_h5_nul_padded_config_is_decoded_about_once(monkeypatch):
    config = json.dumps({"class_name": "Sequential", "pad": "x" * 2_000_000})
    decoded: list[int] = []

    def spy(data, *args):
        decoded.append(len(data))
        return decode_config(data, *args)

    monkeypatch.setattr(containers_module, "decode_config", spy)
    assert extract_h5_model_config(io.BytesIO(emit_keras_h5(config))).json_text == config
    assert sum(decoded) <= 1.25 * len(config) + 64 * 1024


def test_h5_candidates_resume_after_each_object_and_error():
    first = json.dumps({"decoy": "model_config{}"})
    body = (
        HDF5_SIGNATURE + b"model_config" + first.encode()
        + b"model_config" + b'{"bad": }'
        + b"model_config" + b"{}"
    )
    handle = io.BytesIO(body)
    extracted = extract_h5_model_config(handle)
    assert extracted.json_text == first
    with pytest.raises(UnbalancedJson) as failed:
        extract_h5_model_config(handle, extracted.byte_range[1])
    assert body[failed.value.end_offset : failed.value.end_offset + 1] == b"}"
    last = extract_h5_model_config(handle, failed.value.end_offset)
    assert (last.json_text, last.config) == ("{}", {})
    with pytest.raises(ConfigNotFound):
        extract_h5_model_config(handle, last.byte_range[1])


@pytest.mark.parametrize("between", [b"", b"{"])
def test_h5_marker_without_an_object_is_skipped(between):
    config = emit_keras_lambda_config(True)
    body = (
        HDF5_SIGNATURE + b"model_config" + b"\x00" * (70 * 1024)
        + between + b"model_config" + b"\x00" * 10 + config.encode()
    )
    assert extract_h5_model_config(io.BytesIO(body)).json_text == config
