"""Ground-truth fixture generation: inert attack files plus benign twins.

The attack fixtures reproduce the two published model-file vectors with
marker payloads: a ``__reduce__``-shaped call graph (a shell-capable global
applied to a command string) and a stream-injection variant that hides the
payload in front of a valid root object.  Keras fixtures embed a Lambda
layer in both the HDF5 wrapper and the archive form.  Every payload command
is an inert marker; nothing references a network location or a real binary.

Pickle attack streams are assembled opcode by opcode so the fixture side
stays independent of the interpreter's own pickler; benign plain-value
fixtures use the real pickler, which is exactly the producer their
real-world counterparts come from.  The benign array fixture is assembled
by hand in the shape the array library's own reducer writes, so generating
fixtures needs no third-party package.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle
import random
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from .containers import HDF5_SIGNATURE

DEFAULT_MARKER = "true # FIXTURE-MARKER"

_FIXED_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


class ForgeError(Exception):
    pass


class UnsupportedProtocol(ForgeError):
    def __init__(self, protocol: int):
        super().__init__(f"protocol {protocol} is outside 0-5")
        self.protocol = protocol


class UnsupportedValue(ForgeError):
    pass


@dataclass(frozen=True)
class ExpectedFinding:
    rule_id: str
    min_severity: str


@dataclass
class CorpusManifest:
    fixtures: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"fixtures": self.fixtures}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Hand-assembled pickle streams


def _encode_long(value: int) -> bytes:
    if value == 0:
        return b""
    length = (value.bit_length() + 8) // 8
    return value.to_bytes(length, "little", signed=True)


class _PickleWriter:
    """Emits a minimal, loader-valid opcode sequence for one protocol."""

    def __init__(self, protocol: int):
        if not 0 <= protocol <= 5:
            raise UnsupportedProtocol(protocol)
        self.protocol = protocol
        self.body = bytearray()

    def raw(self, data: bytes) -> None:
        self.body += data

    def put_none(self) -> None:
        self.raw(b"N")

    def put_bool(self, value: bool) -> None:
        if self.protocol >= 2:
            self.raw(b"\x88" if value else b"\x89")
        else:
            self.raw(b"I01\n" if value else b"I00\n")

    def put_int(self, value: int) -> None:
        if self.protocol == 0:
            self.raw(b"I%d\n" % value)
        elif self.protocol == 1 and not -(2**31) <= value < 2**31:
            self.raw(b"L%dL\n" % value)
        elif 0 <= value < 256:
            self.raw(b"K" + bytes([value]))
        elif 0 <= value < 65536:
            self.raw(b"M" + struct.pack("<H", value))
        elif -(2**31) <= value < 2**31:
            self.raw(b"J" + struct.pack("<i", value))
        else:
            payload = _encode_long(value)
            self.raw(b"\x8a" + bytes([len(payload)]) + payload)

    def put_float(self, value: float) -> None:
        if self.protocol == 0:
            self.raw(b"F" + repr(value).encode("ascii") + b"\n")
        else:
            self.raw(b"G" + struct.pack(">d", value))

    def put_str(self, value: str) -> None:
        if self.protocol == 0:
            escaped = (
                value.replace("\\", "\\u005c")
                .replace("\x00", "\\u0000")
                .replace("\n", "\\u000a")
                .replace("\r", "\\u000d")
                .replace("\x1a", "\\u001a")
            )
            self.raw(b"V" + escaped.encode("raw-unicode-escape") + b"\n")
            return
        data = value.encode("utf-8")
        if self.protocol >= 4 and len(data) < 256:
            self.raw(b"\x8c" + bytes([len(data)]) + data)
        else:
            self.raw(b"X" + struct.pack("<I", len(data)) + data)

    def put_bytes(self, value: bytes) -> None:
        if self.protocol < 3:
            # No bytes opcodes yet: the real pickler writes _codecs.encode(text, "latin1").
            self.put_global("_codecs", "encode")
            self.put_value((value.decode("latin-1"), "latin1"))
            self.raw(b"R")
        elif len(value) < 256:
            self.raw(b"C" + bytes([len(value)]) + value)
        else:
            self.raw(b"B" + struct.pack("<I", len(value)) + value)

    def put_global(self, module: str, name: str) -> None:
        if self.protocol >= 4:
            self.put_str(module)
            self.put_str(name)
            self.raw(b"\x93\x94")  # STACK_GLOBAL MEMOIZE
            return
        for part in (module, name):
            if "\n" in part or not part.isascii():
                raise UnsupportedValue(f"global name {part!r} is not a plain line")
        self.raw(b"c" + module.encode("ascii") + b"\n" + name.encode("ascii") + b"\n")

    def put_value(self, value: object) -> None:
        if value is None:
            self.put_none()
        elif isinstance(value, bool):
            self.put_bool(value)
        elif isinstance(value, int):
            self.put_int(value)
        elif isinstance(value, float):
            self.put_float(value)
        elif isinstance(value, str):
            self.put_str(value)
        elif isinstance(value, bytes):
            self.put_bytes(value)
        elif isinstance(value, list):
            if self.protocol == 0:
                self.raw(b"(l")
                for item in value:
                    self.put_value(item)
                    self.raw(b"a")
            else:
                self.raw(b"]")
                if value:
                    self.raw(b"(")
                    for item in value:
                        self.put_value(item)
                    self.raw(b"e")
        elif isinstance(value, tuple):
            if self.protocol >= 2 and len(value) == 0:
                self.raw(b")")
            elif self.protocol >= 2 and len(value) <= 3:
                for item in value:
                    self.put_value(item)
                self.raw((b"\x85", b"\x86", b"\x87")[len(value) - 1])
            else:
                self.raw(b"(")
                for item in value:
                    self.put_value(item)
                self.raw(b"t")
        elif isinstance(value, dict):
            if self.protocol == 0:
                self.raw(b"(d")
                for key, item in value.items():
                    self.put_value(key)
                    self.put_value(item)
                    self.raw(b"s")
            else:
                self.raw(b"}")
                if value:
                    self.raw(b"(")
                    for key, item in value.items():
                        self.put_value(key)
                        self.put_value(item)
                    self.raw(b"u")
        else:
            raise UnsupportedValue(f"unsupported value type {type(value).__name__}")

    def put_call_payload(self, module: str, name: str, command: str) -> None:
        """callable(command) as a REDUCE graph: the published attack shape."""
        self.put_global(module, name)
        if self.protocol >= 2:
            self.put_str(command)
            self.raw(b"\x85")  # TUPLE1
        else:
            self.raw(b"(")
            self.put_str(command)
            self.raw(b"t")
        self.raw(b"R")
        if self.protocol >= 4:
            self.raw(b"\x94")

    def finish(self) -> bytes:
        body = bytes(self.body) + b"."
        if self.protocol >= 4:
            return (
                b"\x80"
                + bytes([self.protocol])
                + b"\x95"
                + struct.pack("<Q", len(body))
                + body
            )
        if self.protocol >= 2:
            return b"\x80" + bytes([self.protocol]) + body
        return body


def emit_reduce_payload_pickle(command: str, protocol: int) -> bytes:
    """Stream whose load would call a shell-capable global on ``command``."""
    if not command:
        raise UnsupportedValue("command must be non-empty")
    writer = _PickleWriter(protocol)
    writer.put_call_payload("os", "system", command)
    return writer.finish()


def emit_injected_pickle(benign_root: object, command: str, protocol: int) -> bytes:
    """Payload graph first, then the benign root, then a single STOP.

    A reference loader returns only the benign root; the payload object is
    built, triggered, and then silently discarded off the stack.
    """
    if not command:
        raise UnsupportedValue("command must be non-empty")
    writer = _PickleWriter(protocol)
    writer.put_call_payload("os", "system", command)
    writer.put_value(benign_root)
    return writer.finish()


def emit_dynamic_global_pickle(protocol: int = 4) -> bytes:
    """STACK_GLOBAL whose module operand is not a literal string."""
    if protocol < 4:
        raise UnsupportedProtocol(protocol)
    writer = _PickleWriter(protocol)
    writer.raw(b")")  # module operand: an empty tuple, not a string
    writer.put_str("system")
    writer.raw(b"\x93")
    return writer.finish()


def benign_state_dict_pickle() -> bytes:
    """A clean checkpoint-shaped stream referencing only allowlisted globals."""
    writer = _PickleWriter(2)
    writer.put_global("collections", "OrderedDict")
    writer.raw(b")R")  # OrderedDict()
    writer.raw(b"q\x00")  # BINPUT 0
    writer.raw(b"(")
    writer.put_str("conv.weight")
    writer.put_global("torch._utils", "_rebuild_tensor_v2")
    writer.raw(b"(")  # args tuple
    writer.raw(b"(")  # persistent id tuple
    writer.put_str("storage")
    writer.put_global("torch", "FloatStorage")
    writer.put_str("0")
    writer.put_str("cpu")
    writer.put_int(16)
    writer.raw(b"tQ")  # TUPLE BINPERSID
    writer.put_int(0)
    writer.put_value((4, 4))
    writer.put_value((4, 1))
    writer.put_bool(False)
    writer.raw(b"]")
    writer.raw(b"tR")
    writer.put_str("epochs")
    writer.put_int(10)
    writer.raw(b"u")  # SETITEMS into the OrderedDict
    return writer.finish()


# ---------------------------------------------------------------------------
# Containers


def _write_zip(entries: list[tuple[str, bytes]], compress: bool = False) -> bytes:
    buffer = io.BytesIO()
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with zipfile.ZipFile(buffer, "w", method) as archive:
        for name, data in entries:
            info = zipfile.ZipInfo(name, date_time=_FIXED_ZIP_DATE)
            info.compress_type = method
            archive.writestr(info, data)
    return buffer.getvalue()


def emit_torch_like_zip(inner_pickle: bytes, weight_bytes: bytes = b"\x00" * 64) -> bytes:
    """Checkpoint-shaped archive: data.pkl plus byteorder, version and a
    weight blob, as torch.save writes them."""
    return _write_zip(
        [
            ("model/data.pkl", inner_pickle),
            ("model/byteorder", b"little"),
            ("model/data/0", weight_bytes),
            ("model/version", b"3\n"),
        ]
    )


def lambda_payload_bytes(marker: str = DEFAULT_MARKER) -> bytes:
    """Opaque stand-in for marshalled lambda code, tagged as a fixture."""
    return b"FIXTURE-MARSHALLED-LAMBDA\x00" + marker.encode("utf-8")


def _sequential_config(*middle: dict) -> str:
    """Config JSON for Sequential([Dense(10), *middle, Dense(1)])."""
    first = {
        "class_name": "Dense",
        "config": {
            "name": "dense",
            "units": 10,
            "activation": "relu",
            "batch_input_shape": [None, 20],
        },
    }
    last = {
        "class_name": "Dense",
        "config": {"name": "dense_1", "units": 1, "activation": "sigmoid"},
    }
    config = {
        "class_name": "Sequential",
        "config": {"name": "sequential", "layers": [first, *middle, last]},
    }
    return json.dumps(config)


def emit_keras_lambda_config(
    with_payload: bool, marker: str = DEFAULT_MARKER
) -> str:
    """Config JSON for Sequential([Dense(10), Lambda, Dense(1)])."""
    if with_payload:
        function: object = [
            base64.b64encode(lambda_payload_bytes(marker)).decode("ascii"),
            None,
            None,
        ]
        function_type = "lambda"
    else:
        function = "fixture_passthrough"
        function_type = "function"
    return _sequential_config(
        {
            "class_name": "Lambda",
            "config": {
                "name": "lambda",
                "function": function,
                "function_type": function_type,
                "output_shape": None,
                "arguments": {},
            },
        }
    )


def emit_dense_only_config() -> str:
    """A clean two-layer config with no custom computation."""
    return _sequential_config()


def emit_keras_h5(config_json: str) -> bytes:
    """Scanner-grade HDF5 wrapper: signature, attribute name, config JSON.

    Good enough for the heuristic extractor by construction; not a
    loader-grade HDF5 object tree.
    """
    json.loads(config_json)  # precondition: must be valid JSON
    return (
        HDF5_SIGNATURE
        + b"\x00" * 56
        + b"model_config"
        + b"\x00\x00\x00\x00"
        + config_json.encode("utf-8")
        + b"\x00" * 32
    )


def emit_keras_zip(config_json: str) -> bytes:
    """Keras archive form: config.json beside a metadata stub."""
    json.loads(config_json)
    metadata = json.dumps({"keras_version": "3.4.0"})
    return _write_zip(
        [("metadata.json", metadata.encode()), ("config.json", config_json.encode())]
    )


# ---------------------------------------------------------------------------
# Corpus


_REDUCE_EXPECTED = [
    ExpectedFinding("PICKLE_DANGEROUS_GLOBAL", "CRITICAL"),
    ExpectedFinding("PICKLE_CALL", "CRITICAL"),
]
_INJECTED_EXPECTED = _REDUCE_EXPECTED + [ExpectedFinding("PICKLE_RESIDUAL_STACK", "HIGH")]

_BENIGN_VALUES: list[object] = [
    {"weights": [1.5, -2.25, 3.0], "bias": 7},
    [[1, 2], [3, 4], None, True],
    "hello model zoo",
    {"layers": ({"units": 10}, {"units": 1}), "name": "net"},
    [0, -128, 255, 65535, 1099511627776, -1099511627776],
]


def benign_array_pickle(protocol: int) -> bytes:
    """``{"weight": arange(12, dtype=float32).reshape(3, 4), "shape": (3, 4)}``
    with the array in the reduce/build shape its library's pickler writes."""
    writer = _PickleWriter(protocol)
    writer.raw(b"}(")  # EMPTY_DICT MARK
    writer.put_str("weight")
    writer.put_global("numpy._core.multiarray", "_reconstruct")
    writer.put_global("numpy", "ndarray")
    writer.put_value((0,))
    writer.put_bytes(b"b")
    writer.raw(b"\x87R(")  # TUPLE3 REDUCE MARK: the empty array, then its state
    writer.put_value(1)
    writer.put_value((3, 4))
    writer.put_global("numpy", "dtype")
    writer.put_value(("f4", False, True))
    writer.raw(b"R")
    writer.put_value((3, "<", None, None, None, -1, -1, 0))
    writer.raw(b"b")  # BUILD the dtype
    writer.put_bool(False)
    writer.put_bytes(struct.pack("<12f", *range(12)))
    writer.raw(b"tb")  # TUPLE BUILD the array
    writer.put_str("shape")
    writer.put_value((3, 4))
    writer.raw(b"u")  # SETITEMS
    return writer.finish()


def _expected_to_json(expected: list[ExpectedFinding]) -> list[dict]:
    return [{"rule_id": e.rule_id, "min_severity": e.min_severity} for e in expected]


def _write_file(directory: Path, name: str, data: bytes) -> None:
    final = directory / name
    tmp = directory / (name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, final)


def emit_corpus(
    output_dir: str | Path,
    seed: int = 0,
    payload_marker: str = DEFAULT_MARKER,
) -> CorpusManifest:
    """Write the full fixture corpus plus its manifest; deterministic per seed."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    manifest = CorpusManifest()

    def add(
        fixture_id: str,
        name: str,
        data: bytes,
        kind: str,
        protocol: int | None,
        expected: list[ExpectedFinding],
        marker: str | None = None,
        benign_root: object = None,
    ) -> None:
        _write_file(directory, name, data)
        record: dict = {
            "id": fixture_id,
            "path": name,
            "kind": kind,
            "protocol": protocol,
            "expected": _expected_to_json(expected),
        }
        if marker is not None:
            record["payload_marker"] = marker
        if benign_root is not None:
            record["benign_root"] = benign_root
        manifest.fixtures.append(record)

    # Attack fixtures.
    for proto in (0, 2, 4):
        add(
            f"mal_reduce_p{proto}",
            f"mal_reduce_p{proto}.pkl",
            emit_reduce_payload_pickle(payload_marker, proto),
            "reduce_payload",
            proto,
            _REDUCE_EXPECTED,
            marker=payload_marker,
        )
    injected_roots: list[tuple[int, object]] = [
        (0, [1, 2, 3]),
        (2, {"a": 1, "b": "x"}),
        (4, "benign result"),
    ]
    for proto, root in injected_roots:
        add(
            f"mal_injected_p{proto}",
            f"mal_injected_p{proto}.pkl",
            emit_injected_pickle(root, payload_marker, proto),
            "injected_stream",
            proto,
            _INJECTED_EXPECTED,
            marker=payload_marker,
            benign_root=root,
        )
    add(
        "mal_torch_zip",
        "mal_torch.pt",
        emit_torch_like_zip(emit_reduce_payload_pickle(payload_marker, 2)),
        "torch_like_zip",
        2,
        _REDUCE_EXPECTED,
        marker=payload_marker,
    )
    add(
        "mal_keras_h5",
        "mal_lambda.h5",
        emit_keras_h5(emit_keras_lambda_config(True, payload_marker)),
        "keras_h5_lambda",
        None,
        [ExpectedFinding("KERAS_LAMBDA_CODE", "HIGH")],
        marker=payload_marker,
    )
    add(
        "mal_keras_h5_ref",
        "mal_lambda_ref.h5",
        emit_keras_h5(emit_keras_lambda_config(False)),
        "keras_h5_lambda",
        None,
        [ExpectedFinding("KERAS_LAMBDA_REF", "MEDIUM")],
    )
    add(
        "mal_keras_zip",
        "mal_lambda.keras",
        emit_keras_zip(emit_keras_lambda_config(True, payload_marker)),
        "keras_zip_lambda",
        None,
        [ExpectedFinding("KERAS_LAMBDA_CODE", "HIGH")],
        marker=payload_marker,
    )
    add(
        "mal_dynamic_p4",
        "mal_dynamic_p4.pkl",
        emit_dynamic_global_pickle(4),
        "stack_global_dynamic",
        4,
        [ExpectedFinding("PICKLE_DYNAMIC_GLOBAL", "HIGH")],
    )

    # Benign fixtures: plain pickles from the real producer.
    for index, value in enumerate(_BENIGN_VALUES, start=1):
        for proto in (0, 2, 4):
            add(
                f"ben_pickle_{index}_p{proto}",
                f"ben_pickle_{index}_p{proto}.pkl",
                pickle.dumps(value, protocol=proto),
                "benign_pickle",
                proto,
                [],
            )
    add(
        "ben_bytearray_p5",
        "ben_bytearray_p5.pkl",
        pickle.dumps({"buf": bytearray(b"\x00\x01\x02fixture"), "raw": b"bytes"}, 5),
        "benign_pickle",
        5,
        [],
    )
    add("ben_set_p2", "ben_set_p2.pkl", pickle.dumps({1, 2, 3, 5, 8}, 2), "benign_pickle", 2, [])
    add(
        "ben_frozenset_p4",
        "ben_frozenset_p4.pkl",
        pickle.dumps(frozenset({2, 3, 5}), 4),
        "benign_pickle",
        4,
        [],
    )
    for proto in (2, 4):
        add(
            f"ben_numpy_p{proto}",
            f"ben_numpy_p{proto}.pkl",
            benign_array_pickle(proto),
            "benign_pickle",
            proto,
            [],
        )
    add(
        "ben_torch_zip_1",
        "ben_state_dict.pt",
        emit_torch_like_zip(benign_state_dict_pickle(), rng.randbytes(256)),
        "benign_zip",
        2,
        [],
    )
    add(
        "ben_torch_zip_2",
        "ben_metrics.pt",
        emit_torch_like_zip(pickle.dumps({"epoch": 10, "acc": 0.93}, 2), rng.randbytes(128)),
        "benign_zip",
        2,
        [],
    )
    add(
        "ben_plain_zip",
        "ben_plain.zip",
        _write_zip(
            [("readme.txt", b"Model fixture archive with no serialized payloads.\n" * 20)],
            compress=True,
        ),
        "benign_zip",
        None,
        [],
    )
    add("ben_keras_h5", "ben_dense.h5", emit_keras_h5(emit_dense_only_config()), "benign_h5", None, [])
    add(
        "ben_keras_zip",
        "ben_dense.keras",
        emit_keras_zip(emit_dense_only_config()),
        "benign_zip",
        None,
        [],
    )

    _write_file(directory, "corpus_manifest.json", manifest.to_json().encode("utf-8"))
    return manifest
