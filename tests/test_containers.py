"""Container parsing, cross-checked against the stdlib zipfile module.

zipfile writes every archive used here and doubles as the independent
reader the entry listings and contents are compared against.
"""

from __future__ import annotations

import base64
import io
import json
import struct
import tracemalloc
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CENTRAL_FIELDS, reference_holders, with_central_field, with_entry_count
import modelsentry.containers as containers_module
from modelsentry.containers import (
    HDF5_SIGNATURE,
    CapExceeded,
    ConfigNotFound,
    CorruptHeader,
    CrcMismatch,
    InflateError,
    NoCentralDirectory,
    NotHdf5,
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


@pytest.mark.parametrize("zip64_limit", [None, 64], ids=["plain", "zip64-records"])
def test_thousand_members_list_as_zipfile_lists_them(monkeypatch, zip64_limit):
    """1,000 stored and deflated members, some with non-ASCII names.  Under
    a lowered ``zipfile.ZIP64_LIMIT`` the writer puts the 0xFFFFFFFF
    placeholder in every size and offset over 64 and the true value in the
    ZIP64 extra field, and ZIP64 end records in front of the directory."""
    if zip64_limit is not None:
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", zip64_limit)
    handle = io.BytesIO()
    with zipfile.ZipFile(handle, "w") as archive:
        for index in range(1000):
            name = f"dir{index % 7}/member_{index}" + ("_\u00e9" if index % 5 == 0 else "")
            method = zipfile.ZIP_DEFLATED if index % 2 else zipfile.ZIP_STORED
            archive.writestr(zipfile.ZipInfo(name), bytes(index % 200) * (1 + index % 3), method)
    monkeypatch.undo()
    entries = list_entries(handle)
    with zipfile.ZipFile(handle) as reference:
        infos = reference.infolist()
    methods = {zipfile.ZIP_STORED: "stored", zipfile.ZIP_DEFLATED: "deflate"}
    assert [(e.path, e.uncompressed_size, e.compressed_size, e.offset, e.method) for e in entries] == [
        (i.filename, i.file_size, i.compress_size, i.header_offset, methods[i.compress_type]) for i in infos
    ]
    if zip64_limit is not None:
        assert handle.getvalue().count(b"\xff\xff\xff\xff") > 1000


@pytest.mark.parametrize("shift", [None, 0, 5], ids=["count-0", "true-count", "count-plus-5"])
def test_listing_follows_the_directory_size_not_the_entry_count(corpus_dir, shift):
    """Each of the forged corpus's archives with its end record's entry
    counts set to 0, to the true count or to 5 more: ``zipfile`` reads no
    count, and the listing names the same members at the same offsets with
    the same sizes."""
    archives = sorted(path for path in corpus_dir.iterdir() if path.read_bytes()[:4] == b"PK\x03\x04")
    assert len(archives) == 6
    for path in archives:
        data = path.read_bytes()
        with zipfile.ZipFile(io.BytesIO(data)) as reference:
            count = 0 if shift is None else len(reference.infolist()) + shift
        forged = io.BytesIO(with_entry_count(data, count))
        with zipfile.ZipFile(forged) as reference:
            infos = reference.infolist()
        assert [(e.path, e.offset, e.compressed_size, e.uncompressed_size) for e in list_entries(forged)] == [
            (i.filename, i.header_offset, i.compress_size, i.file_size) for i in infos
        ]


@pytest.mark.parametrize("compress", [False, True])
def test_read_entry_matches_zipfile_read(compress):
    members = {"x.bin": bytes(range(256)) * 40, "tiny": b"hello"}
    handle = make_zip(members, compress=compress)
    entries = list_entries(handle)
    with zipfile.ZipFile(handle) as reference:
        for entry in entries:
            assert read_entry(handle, entry, errors=[]) == reference.read(entry.path)


@pytest.mark.parametrize("compress", [False, True])
def test_head_read_is_a_prefix_of_the_full_read(compress):
    data = bytes(range(256)) * 300 + b"\x00" * 200_000
    handle = make_zip({"m.bin": data}, compress=compress)
    (entry,) = list_entries(handle)
    full = read_entry(handle, entry, errors=[])
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
        read_entry(corrupt, entry, errors=[])


def test_stored_five_bytes():
    handle = make_zip({"greeting": b"hello"})
    (entry,) = list_entries(handle)
    assert entry.method == "stored"
    assert read_entry(handle, entry, errors=[]) == b"hello"


def test_empty_zip_lists_nothing():
    handle = make_zip({})
    data = handle.getvalue()
    assert len(data) == 22  # bare end-of-central-directory record
    assert list_entries(io.BytesIO(data)) == []


def test_random_bytes_is_no_central_directory():
    with pytest.raises(NoCentralDirectory):
        list_entries(io.BytesIO(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"))


def test_a_file_too_short_for_an_end_record_has_no_central_directory():
    """No 22-byte end record fits: zeros, or an end record cut short at
    offset 0 or 5."""
    record = make_zip({}).getvalue()
    for size in range(22):
        for data in (b"\x00" * size, record[:size], (b"\x00" * 5 + record)[:size]):
            with pytest.raises(NoCentralDirectory):
                list_entries(io.BytesIO(data))


def test_declared_size_over_cap():
    handle = make_zip({"big": b"z" * 4096})
    (entry,) = list_entries(handle)
    with pytest.raises(CapExceeded) as raised:
        read_entry(handle, entry, cap=1024, errors=[])
    assert raised.value.message == "inflated size of at least 1025 (declared 4096) exceeds cap 1024"


def test_decompression_bomb_hits_cap_even_when_size_lies():
    """4 MiB of zeros that declares 100 bytes yields its first 100, as
    ``zipfile`` does; declared as it is, over the cap, it stops one byte
    past the cap."""
    honest = make_zip({"boom": b"\x00" * (4 << 20)}, compress=True).getvalue()
    liar = with_central_field(honest, "boom", "uncompressed_size", 100)
    liar = with_central_field(liar, "boom", "crc", zlib.crc32(bytes(100)))
    (entry,) = list_entries(io.BytesIO(liar))
    errors: list = []
    with zipfile.ZipFile(io.BytesIO(liar)) as reference:
        assert read_entry(io.BytesIO(liar), entry, cap=1 << 20, errors=errors) == reference.read("boom")
    assert errors == []
    (entry,) = list_entries(io.BytesIO(honest))
    with pytest.raises(CapExceeded) as raised:
        read_entry(io.BytesIO(honest), entry, cap=1 << 20, errors=[])
    assert raised.value.message == (
        f"inflated size of at least {(1 << 20) + 1} (declared {4 << 20}) exceeds cap {1 << 20}"
    )


def test_a_truncated_stored_entry_is_what_is_there_with_a_crc_mismatch():
    """The file ends 40 bytes into the member's data: ``zipfile`` runs out
    of bytes, and the read returns those 40 with a ``CrcMismatch``."""
    handle = make_zip({"cut.bin": b"A" * 1000})
    (entry,) = list_entries(handle)
    with zipfile.ZipFile(handle) as reference, reference.open("cut.bin") as member:
        handle.truncate(entry.offset + 30 + len(entry.path) + 40)
        with pytest.raises(EOFError):
            member.read()
    errors: list = []
    assert read_entry(handle, entry, errors=errors) == b"A" * 40
    assert [type(exc) for _, exc in errors] == [CrcMismatch]


def test_encrypted_and_exotic_methods_are_unsupported():
    handle = make_zip({"e": b"x"})
    (entry,) = list_entries(handle)
    encrypted = ArchiveEntry(entry.path, 1, 1, "stored", entry.offset, encrypted=True)
    with pytest.raises(UnsupportedMethod):
        read_entry(handle, encrypted, errors=[])
    exotic = ArchiveEntry(entry.path, 1, 1, "unsupported(14)", entry.offset)
    with pytest.raises(UnsupportedMethod):
        read_entry(handle, exotic, errors=[])
    # The refusal comes first, whatever the declared size.
    for unreadable in (encrypted, exotic):
        with pytest.raises(UnsupportedMethod):
            read_entry(handle, unreadable._replace(uncompressed_size=1 << 40), cap=16, errors=[])


def test_an_encrypted_or_exotic_member_has_an_empty_head():
    """The sniff reads nothing of a member it cannot decode: the stored
    bytes of an encrypted member are not its content."""
    handle = make_zip({"e": b"x"})
    (entry,) = list_entries(handle)
    assert read_entry_head(handle, entry, 16) == b"x"
    for unreadable in (entry._replace(encrypted=True), entry._replace(method="unsupported(14)")):
        assert read_entry_head(handle, unreadable, 16) == b""


_PACKED = pytest.mark.parametrize(
    "method, name", [(zipfile.ZIP_BZIP2, "bzip2"), (zipfile.ZIP_LZMA, "lzma")], ids=["bzip2", "lzma"]
)


def _packed(members: dict[str, bytes], method: int) -> io.BytesIO:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", method) as archive:
        for path, data in members.items():
            archive.writestr(path, data)
    return buffer


@_PACKED
def test_bzip2_and_lzma_members_read_as_zipfile_reads_them(method, name):
    data = bytes(range(256)) * 300 + b"\x00" * 200_000
    handle = _packed({"m.bin": data, "tiny": b"hello", "empty": b""}, method)
    entries = list_entries(handle)
    assert [entry.method for entry in entries] == [name] * 3
    with zipfile.ZipFile(handle) as reference:
        for entry in entries:
            assert read_entry(handle, entry, errors=[]) == reference.read(entry.path)
    for n in (0, 1, 512, len(data) - 1, len(data), len(data) + 1):
        assert read_entry_head(handle, entries[0], n) == data[:n]


@_PACKED
def test_bzip2_and_lzma_members_past_the_cap_stop_there(method, name):
    """16 MiB of zeros, declared as such: decompression stops one byte past
    the 1 MiB cap, and holds about that much while it runs."""
    handle = _packed({"boom": bytes(16 << 20)}, method)
    (entry,) = list_entries(handle)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as raised:
            read_entry(handle, entry, cap=1 << 20, errors=[])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raised.value.message == (
        f"inflated size of at least {(1 << 20) + 1} (declared {16 << 20}) exceeds cap {1 << 20}"
    )
    assert peak < 4 << 20


@_PACKED
def test_corrupt_bzip2_and_lzma_streams_are_inflate_errors(method, name):
    handle = _packed({"m.bin": b"payload " * 1000}, method)
    (entry,) = list_entries(handle)
    blob = bytearray(handle.getvalue())
    name_len, extra_len = struct.unpack("<HH", blob[entry.offset + 26 : entry.offset + 30])
    start = entry.offset + 30 + name_len + extra_len
    # bzip2: the block magic after "BZh9".  LZMA: past the 9-byte header, the
    # range coder's first byte, which must be 0.
    blob[start + (4 if name == "bzip2" else 9)] ^= 0xFF
    corrupt = io.BytesIO(bytes(blob))
    assert read_entry_head(corrupt, entry, 512) == b""
    with pytest.raises(InflateError):
        read_entry(corrupt, entry, errors=[])


@pytest.mark.parametrize(
    "header",
    [b"\x09\x04", b"\x09\x04\x05\x00\x5d\x00", b"\x09\x04\x05\x00\xff\x00\x00\x80\x00"],
    ids=["cut-header", "cut-properties", "bad-properties"],
)
def test_bad_lzma_header_is_an_inflate_error(header):
    handle = _packed({"m.bin": b"payload"}, zipfile.ZIP_LZMA)
    (entry,) = list_entries(handle)
    blob = handle.getvalue()
    start = entry.offset + 30 + len(entry.path)
    # The member's compressed bytes are replaced by the header alone.
    short = blob[:start] + header
    bad = entry._replace(compressed_size=len(header))
    with pytest.raises(InflateError):
        read_entry(io.BytesIO(short), bad, errors=[])


_MEMBER_DATA = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda unit, times: unit * times, st.binary(min_size=1, max_size=16), st.integers(1, 400)),
)
_ZIP_METHODS = [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_member_whose_central_header_misstates_a_field_reads_as_zipfile_reads_it(data):
    """``zipfile`` writes up to three members, then one central-header field
    of one of them (CRC-32, compressed or uncompressed size) is replaced: one
    bit flipped, moved by up to 50, or redrawn.  Each member ``zipfile``
    reads is read here to the same bytes with no error; each member it
    refuses is refused, or read with a ``CrcMismatch``."""
    members = data.draw(
        st.lists(st.tuples(_MEMBER_DATA, st.sampled_from(_ZIP_METHODS)), min_size=1, max_size=3)
    )
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for index, (content, method) in enumerate(members):
            archive.writestr(f"m{index}", content, compress_type=method)
    index = data.draw(st.integers(0, len(members) - 1))
    field = data.draw(st.sampled_from(sorted(CENTRAL_FIELDS)))
    old = getattr(list_entries(buffer)[index], field)
    new = data.draw(
        st.one_of(
            st.integers(0, 31).map(lambda bit: old ^ (1 << bit)),
            st.integers(-50, 50).filter(bool).map(lambda delta: (old + delta) & 0xFFFFFFFF),
            st.integers(0, 0xFFFFFFFE),
        ).filter(lambda value: value != 0xFFFFFFFF)
    )
    blob = with_central_field(buffer.getvalue(), f"m{index}", field, new)
    handle = io.BytesIO(blob)
    with zipfile.ZipFile(io.BytesIO(blob)) as reference:
        for entry, info in zip(list_entries(handle), reference.infolist(), strict=True):
            try:
                expected = reference.read(info)
            except Exception:
                expected = None
            errors: list = []
            try:
                got = read_entry(handle, entry, errors=errors)
            except FormatError:
                assert expected is None
                continue
            if expected is None:
                assert [type(exc) for _, exc in errors] == [CrcMismatch]
            else:
                assert (got, errors) == (expected, [])


def test_zip64_records_supported():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        with archive.open(zipfile.ZipInfo("big64"), "w", force_zip64=True) as member:
            member.write(b"payload-bytes")
    buffer.seek(0)
    (entry,) = list_entries(buffer)
    assert entry.uncompressed_size == len(b"payload-bytes")
    assert read_entry(buffer, entry, errors=[]) == b"payload-bytes"


def test_a_zip64_locator_with_no_record_before_it_is_ignored():
    """The last central header's comment ends in what reads as a ZIP64
    locator, with no ZIP64 end record before it: ``zipfile`` falls back to
    the 32-bit end record, and so does the listing."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        info = zipfile.ZipInfo("config.json")
        info.comment = b"PK\x06\x07" + bytes(16)
        archive.writestr(info, b"{}")
    data = buffer.getvalue()
    assert data[-42:-22] == info.comment
    with zipfile.ZipFile(io.BytesIO(data)) as reference:
        infos = reference.infolist()
    assert [(e.path, e.offset, e.uncompressed_size) for e in list_entries(io.BytesIO(data))] == [
        (i.filename, i.header_offset, i.file_size) for i in infos
    ]


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
    hits = find_pickle_payloads(entries, handle, errors=[])
    assert [(entry.path) for entry, _ in hits] == ["model/data.pkl"]
    assert hits[0][1] == inner


def test_archive_with_only_config_json_has_no_payloads():
    handle = make_zip({"config.json": b'{"layers": []}'})
    entries = list_entries(handle)
    assert find_pickle_payloads(entries, handle, errors=[]) == []


def test_content_sniff_overrides_extension():
    inner = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 4)
    assert inner[:2] == b"\x80\x04"
    handle = make_zip({"weights.bin": inner})
    entries = list_entries(handle)
    hits = find_pickle_payloads(entries, handle, errors=[])
    assert [entry.path for entry, _ in hits] == ["weights.bin"]


def test_payload_errors_collected_per_entry_without_aborting():
    good = b"N."
    handle = make_zip({"a.pkl": good, "b.pkl": b"M" * 3})
    entries = list_entries(handle)
    errors: list = []
    # A read failure on one entry: its local header has a bad signature.
    blob = bytearray(handle.getvalue())
    blob[entries[1].offset] ^= 0xFF
    hits = find_pickle_payloads(entries, io.BytesIO(bytes(blob)), errors=errors)
    assert [entry.path for entry, _ in hits] == ["a.pkl"]
    assert [(entry.path, type(exc)) for entry, exc in errors] == [("b.pkl", CorruptHeader)]


def _frames(exc: BaseException):
    """Every frame a kept error reaches: its traceback's and those of the
    errors it was raised from or during."""
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            yield tb.tb_frame
            tb = tb.tb_next
        exc = exc.__cause__ or exc.__context__


def test_kept_payload_errors_pin_no_frame_of_the_read():
    """A member that inflates past the cap, and one that does not inflate:
    the kept errors must not hold ``read_entry``'s frame, and with it the
    ``cap + 1`` bytes inflated there, while the other members are scanned."""
    honest = make_zip({"bomb.pkl": b"\x00" * (4 << 20), "broken.pkl": b"N." * 4096}, compress=True)
    bomb, broken = list_entries(honest)
    data = bytearray(honest.getvalue())
    start = broken.offset + 30 + len(broken.path)
    data[start:start + 8] = b"\xff" * 8  # not a deflate stream
    errors: list = []
    hits = find_pickle_payloads([bomb, broken], io.BytesIO(data), cap=1 << 20, errors=errors)
    assert hits == []
    assert [(entry.path, type(exc)) for entry, exc in errors] == [
        ("bomb.pkl", CapExceeded),
        ("broken.pkl", InflateError),
    ]
    reached = {frame.f_code.co_name for _, exc in errors for frame in _frames(exc)}
    assert not reached & {"read_entry", "_member_head"}


# -- HDF5 heuristic --------------------------------------------------------------


def _config_text(blob: bytes, extracted: ExtractedConfig) -> str:
    """The config's JSON text, read back from the blob at its byte range."""
    start, stop = extracted.byte_range
    return blob[start:stop].decode("utf-8", "surrogatepass")


def test_h5_round_trip_three_layer_config():
    config = emit_keras_lambda_config(True)
    blob = emit_keras_h5(config)
    extracted = extract_h5_model_config(io.BytesIO(blob))
    assert _config_text(blob, extracted) == config
    layers = extracted.config["config"]["layers"]
    assert [layer["class_name"] for layer in layers] == ["Dense", "Lambda", "Dense"]


def test_h5_round_trip_empty_object():
    blob = emit_keras_h5("{}")
    assert _config_text(blob, extract_h5_model_config(io.BytesIO(blob))) == "{}"


def test_h5_round_trip_braces_inside_strings():
    config = json.dumps({"name": "we{ir}d \"quoted\" \\ {{{", "layers": []})
    blob = emit_keras_h5(config)
    assert _config_text(blob, extract_h5_model_config(io.BytesIO(blob))) == config


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
    blob = emit_keras_h5(config)
    assert _config_text(blob, extract_h5_model_config(io.BytesIO(blob))) == config
    monkeypatch.setattr(containers_module, "CONFIG_CAP", len(config) - 1)
    with pytest.raises(CapExceeded) as raised:
        extract_h5_model_config(io.BytesIO(emit_keras_h5(config)))
    assert raised.value.message == f"config size {len(config)} exceeds cap {len(config) - 1}"


def test_config_cap_counts_the_bytes_of_a_non_ascii_config(monkeypatch):
    """One UTF-8 byte over the cap: the size is counted in bytes, not in
    characters."""
    config = json.dumps({"k": "\u00e9" + "v" * 200}, ensure_ascii=False)
    size = len(config.encode("utf-8"))
    assert size == len(config) + 1
    monkeypatch.setattr(containers_module, "CONFIG_CAP", size - 1)
    with pytest.raises(CapExceeded) as raised:
        extract_h5_model_config(io.BytesIO(emit_keras_h5(config)))
    assert raised.value.message == f"config size {size} exceeds cap {size - 1}"


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
    assert (extracted.byte_range, extracted.config) == ((15, 17), {})
    with pytest.raises(UnbalancedJson):
        decode_config(b"\xef\xbb\xbf" * 2 + b"{}")


def _brace_count_extract(blob: bytes, cap: int) -> ExtractedConfig:
    """The per-byte brace counter the extractor used before ``raw_decode``,
    kept as its oracle: find the balanced object (respecting JSON string
    escapes), then check that it is UTF-8 (an encoded surrogate allowed, as
    ``json.loads`` of bytes allows it) and valid JSON."""
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
        config = json.loads(blob[brace_at:end].decode("utf-8", "surrogatepass"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UnbalancedJson(brace_at, end, f"extracted text is not valid JSON: {exc}") from None
    return ExtractedConfig((brace_at, end), config, reference_holders(config))


def _outcome(extract, blob: bytes):
    try:
        extracted = extract(blob)
    except (CapExceeded, UnbalancedJson) as exc:
        return type(exc)
    return extracted.byte_range, extracted.config


# U+E000 in a generated string marks where an invalid UTF-8 byte goes, and
# U+E001 where the UTF-8 encoding of a lone surrogate goes.
_BAD_BYTE_MARK = "\ue000"
_SURROGATE_MARK = "\ue001"
_TEXT = st.text(
    alphabet=st.sampled_from(
        list('ab{}[]"\\:,\u00e9\u4e2d\U0001f600 ') + [_BAD_BYTE_MARK, _SURROGATE_MARK]
    ),
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
        config = config.replace(_SURROGATE_MARK.encode("utf-8"), b"\xed\xa0\x80")  # U+D800
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
    blob = emit_keras_h5(config)
    handle = _CountingReads(blob + b"\xff" * (8 * 1024 * 1024))
    assert _config_text(blob, extract_h5_model_config(handle)) == config
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
    return extracted.byte_range, extracted.config


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
    blob = emit_keras_h5(config)
    assert _config_text(blob, extract_h5_model_config(io.BytesIO(blob))) == config
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
    assert _config_text(body, extracted) == first
    with pytest.raises(UnbalancedJson) as failed:
        extract_h5_model_config(handle, extracted.byte_range[1])
    assert body[failed.value.end_offset : failed.value.end_offset + 1] == b"}"
    last = extract_h5_model_config(handle, failed.value.end_offset)
    assert (_config_text(body, last), last.config) == ("{}", {})
    with pytest.raises(ConfigNotFound):
        extract_h5_model_config(handle, last.byte_range[1])


@pytest.mark.parametrize("between", [b"", b"{"])
def test_h5_marker_without_an_object_is_skipped(between):
    config = emit_keras_lambda_config(True)
    body = (
        HDF5_SIGNATURE + b"model_config" + b"\x00" * (70 * 1024)
        + between + b"model_config" + b"\x00" * 10 + config.encode()
    )
    assert _config_text(body, extract_h5_model_config(io.BytesIO(body))) == config
