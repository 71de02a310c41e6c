"""Traversal of Keras model-config JSON for custom-computation layers.

Walks every ``layers`` array in a config (including nested inner models and
wrapper layers that embed a single ``layer``), records each layer of a
flagged class (Lambda, or one a policy names), and pulls serialized code
payloads out of those layers.  Payload
bytes are decoded as Keras decodes them (base64, or the text's
``raw_unicode_escape`` bytes) so they can be measured and hashed, but they
are never unmarshalled, compiled, or executed.

Most configs hold no such layer and nothing malformed.  ``may_report``
tells so from the layer-holding objects the JSON decoder listed while it
built the config, so that the scanner walks only a config that can report.
"""

from __future__ import annotations

import base64
import hashlib
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from .absvm import Record, clip, set_field


class CodePayload(Record, frozen=True):
    __slots__ = ("encoding", "decoded_length", "digest", "preview")

    def __init__(self, encoding: str, decoded_length: int, digest: str, preview: str):
        # "base64-marshalled-code", "raw-unicode-escape-marshalled-code",
        # "plain-source", or "reference-by-name"
        set_field(self, "encoding", encoding)
        set_field(self, "decoded_length", decoded_length)  # 0 for reference-by-name
        # sha256 hex of the decoded bytes (or of the reference name)
        set_field(self, "digest", digest)
        set_field(self, "preview", preview)  # first 64 bytes, rendered printable


class LayerRecord(NamedTuple):
    class_name: str
    layer_name: str
    json_path: str
    payload: CodePayload | None = None


class ConfigAnomaly(Record, frozen=True):
    __slots__ = ("kind", "json_path", "message")

    def __init__(self, kind: str, json_path: str, message: str):
        set_field(self, "kind", kind)  # "MalformedConfig" or "Base64Error"
        set_field(self, "json_path", json_path)
        set_field(self, "message", message)


def _safe_preview(data: bytes, limit: int = 64) -> str:
    head = data[:limit]
    return "".join(chr(b) if 0x20 <= b < 0x7F else f"\\x{b:02x}" for b in head)


def extract_code_payload(
    layer: dict, json_path: str, anomalies: list[ConfigAnomaly]
) -> CodePayload | None:
    """Inspect a layer's ``config.function`` field without evaluating it.

    Four on-disk encodings are handled: a list whose first element is
    marshalled code, in base64 as Keras's ``func_dump`` writes it or as
    the ``raw_unicode_escape`` text ``func_load`` falls back to; a Keras 3
    ``{"class_name": "__lambda__", "config": {"code": ...}}`` dict holding
    the same; a bare string naming a registered function; and any other
    string as plain source.  Anything else is appended to ``anomalies``,
    never silently passed.
    """
    config = layer.get("config")
    if not isinstance(config, dict):
        return None
    function = config.get("function")
    if function is None:
        return None
    field_path = f"{json_path}.config.function" if json_path else "config.function"
    if isinstance(function, str):
        data = function.encode("utf-8")
        # A dotted identifier names a registered function; anything else is
        # code written straight into the config.
        is_name = bool(function) and all(part.isidentifier() for part in function.split("."))
        return CodePayload(
            encoding="reference-by-name" if is_name else "plain-source",
            decoded_length=0 if is_name else len(data),
            digest=hashlib.sha256(data).hexdigest(),
            preview=_safe_preview(data),
        )
    code = None
    if isinstance(function, list) and function:
        code = function[0]
    elif isinstance(function, dict) and function.get("class_name") == "__lambda__":
        inner = function.get("config")
        code = inner.get("code") if isinstance(inner, dict) else None
    if isinstance(code, str):
        encoding = "base64-marshalled-code"
        try:
            # As Keras's func_load decodes it: the MIME codec skips the
            # newline func_dump writes every 76 characters.
            decoded = base64.decodebytes(code.encode("ascii"))
        except ValueError as exc:  # binascii.Error, UnicodeEncodeError
            # func_load then unmarshals the text's raw_unicode_escape bytes:
            # code if they open with marshal's code type, with or without
            # its reference flag.
            decoded = code.encode("raw_unicode_escape")
            encoding = "raw-unicode-escape-marshalled-code"
            if decoded[:1] not in (b"c", b"\xe3"):
                anomalies.append(
                    ConfigAnomaly("Base64Error", field_path, f"undecodable payload: {exc}")
                )
                return None
        return CodePayload(
            encoding=encoding,
            decoded_length=len(decoded),
            digest=hashlib.sha256(decoded).hexdigest(),
            preview=_safe_preview(decoded),
        )
    anomalies.append(
        ConfigAnomaly(
            "MalformedConfig",
            field_path,
            f"unrecognized function encoding ({type(function).__name__})",
        )
    )
    return None


def _layer_name(layer: dict) -> str:
    config = layer.get("config")
    if isinstance(config, dict) and isinstance(config.get("name"), str):
        return clip(config["name"])
    if isinstance(layer.get("name"), str):
        return clip(layer["name"])
    return ""


def _render(link: tuple | None) -> str:
    """The JSON path a ``(parent, key)`` link chain stands for: ``.key`` for
    an object member (no dot while the path is still empty), ``[index]`` for
    an array element.  JSON object keys are strings, each cut by ``clip``,
    and array indices ints."""
    keys = []
    while link is not None:
        link, key = link
        keys.append(key)
    pieces = []
    started = False  # whether the pieces so far hold a character
    for key in reversed(keys):
        if type(key) is int:
            piece = f"[{key}]"
        else:
            piece = f".{clip(key)}" if started else clip(key)
        pieces.append(piece)
        started = started or bool(piece)
    return "".join(pieces)


def note_holders(holders: list[dict]) -> Callable[[dict], dict]:
    """A ``json`` object hook that appends each object holding a ``layers``
    or a ``layer`` key to ``holders``, and returns the object unchanged."""
    append = holders.append

    def note(obj: dict) -> dict:
        if "layers" in obj or "layer" in obj:
            append(obj)
        return obj

    return note


def may_report(config: object, holders: Iterable[dict], classes: Collection[str]) -> bool:
    """Whether ``walk_layers(config, anomalies, classes)`` may append a
    record or an anomaly, judged from ``holders``: the objects
    ``note_holders`` listed while the JSON decoder built ``config``, the
    only ones the walk reports from.  True when the root is not an object,
    a ``layers`` value is not an array, or a holder's layer entry is
    malformed or of a class in ``classes``; so False means the walk would
    find nothing.  A holder that a duplicate key dropped from ``config``
    counts too, although the walk never reaches it.
    """
    if type(config) is not dict:
        return True
    for holder in holders:
        if "layers" in holder:
            layers = holder["layers"]
            if type(layers) is not list:
                return True
            for layer in layers:
                if type(layer) is not dict:
                    return True
                name = layer.get("class_name")
                if type(name) is not str or name in classes:
                    return True
        layer = holder.get("layer")
        if type(layer) is dict and "class_name" in layer:
            name = layer["class_name"]
            if type(name) is not str or name in classes:
                return True
    return False


def walk_layers(
    config: object,
    anomalies: list[ConfigAnomaly],
    classes: Collection[str] = frozenset({"Lambda"}),
) -> list[LayerRecord]:
    """Collect a LayerRecord, in document order, for every layer whose class
    is in ``classes``, with its code payload extracted.

    A layer is any element of a ``layers`` array and any wrapper-embedded
    ``layer`` object, however deeply nested; layers of other classes are
    walked but not recorded.  Malformed layer entries of any class and other
    malformed nodes are appended to ``anomalies`` and traversal continues
    elsewhere.  Every JSON value is visited once, in one loop without
    recursion, which holds only the open containers of the current path.
    A path is carried as a ``(parent, key)`` link and rendered to its string
    only for a record or an anomaly.
    """
    records: list[LayerRecord] = []

    def note(kind: str, link: tuple | None, message: str) -> None:
        anomalies.append(ConfigAnomaly(kind, _render(link), message))

    def check_layer(layer: object, link: tuple) -> None:
        if type(layer) is not dict or type(layer.get("class_name")) is not str:
            note("MalformedConfig", link, "layer entry is not an object with class_name")
        elif layer["class_name"] in classes:
            path = _render(link)
            payload = extract_code_payload(layer, path, anomalies)
            records.append(LayerRecord(layer["class_name"], _layer_name(layer), path, payload))

    def members(node: dict, link: tuple | None) -> Iterator[tuple[str, object]]:
        # The pairs of an object, checked as each is reached: a "layers"
        # value that is not an array is reported and not walked, and a
        # wrapper's embedded layer is checked before it is walked.
        for key, value in node.items():
            if key == "layers" and type(value) is not list:
                note("MalformedConfig", (link, key), "layers node is not an array")
                continue
            if key == "layer" and type(value) is dict and "class_name" in value:
                check_layer(value, (link, key))
            yield key, value

    if not isinstance(config, dict):
        note("MalformedConfig", None, "config root is not a JSON object")
        return records
    # The open container: an iterator over its pairs, its link, and whether
    # it is a layers array (each element checked as a layer); enclosing ones
    # wait on the stack.  members() lets only an array through under the key
    # "layers".  A scalar costs one step of its parent's loop.  The config
    # comes from the JSON decoder, so exact type tests suffice.
    items, link, layers = members(config, None), None, False
    stack = []
    while True:
        for key, value in items:
            if layers:
                check_layer(value, (link, key))
            if type(value) is dict:
                stack.append((items, link, layers))
                link, layers = (link, key), False
                # Only an object holding either key can start a layer.
                if "layers" in value or "layer" in value:
                    items = members(value, link)
                else:
                    items = iter(value.items())
                break
            if type(value) is list:
                stack.append((items, link, layers))
                items, link, layers = enumerate(value), (link, key), key == "layers"
                break
        else:
            if not stack:
                return records
            items, link, layers = stack.pop()
