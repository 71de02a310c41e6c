"""Seeded generator for the scan benchmark's three workloads.

Each workload is a list of ``Item``: a file name, its bytes, and the ground
truth the oracle checks (the exit verdict of a one-file report and the rule
ids that must be present).  The seed picks contents only -- names, float
values, markers, which dangerous global a recipe calls, where a Lambda sits
-- while file counts and sizes follow a fixed schedule, so runs with
different seeds measure the same amount of work.

Nothing here ever unpickles a generated stream.
"""

from __future__ import annotations

import base64
import io
import json
import pickle  # only ever dumps benign values
import random
import shutil
import struct
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from modelsentry import forge
from modelsentry.containers import HDF5_SIGNATURE

WORKLOADS = ("pickle_bulk", "model_hub", "hostile")

CLEAN, FINDINGS = 0, 3  # report.exit_code verdicts a file can be expected to get

_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_DANGEROUS = [("os", "system"), ("posix", "system"), ("subprocess", "call"), ("builtins", "eval")]
_CALL_RULES = [
    {"rule_id": "PICKLE_DANGEROUS_GLOBAL", "min_severity": "CRITICAL"},
    {"rule_id": "PICKLE_CALL", "min_severity": "CRITICAL"},
]


@dataclass
class Item:
    name: str
    data: bytes
    verdict: int
    rules: list[dict] = field(default_factory=list)
    recipe: str = ""


# ---------------------------------------------------------------------------
# Pickle opcodes, assembled by hand so that no callable is ever resolved


def _unicode(text: str) -> bytes:
    raw = text.encode("utf-8")
    return b"X" + struct.pack("<I", len(raw)) + raw  # BINUNICODE


def _global(module: str, name: str) -> bytes:
    return b"c" + f"{module}\n{name}\n".encode("ascii")


def _put(index: int) -> bytes:
    return b"q" + bytes([index]) if index < 256 else b"r" + struct.pack("<I", index)


def _get(index: int) -> bytes:
    return b"h" + bytes([index]) if index < 256 else b"j" + struct.pack("<I", index)


def _int(value: int) -> bytes:
    if value < 256:
        return b"K" + bytes([value])
    if value < 65536:
        return b"M" + struct.pack("<H", value)
    return b"J" + struct.pack("<i", value)


def _tuple(items: list[bytes]) -> bytes:
    if len(items) == 1:
        return items[0] + b"\x85"
    if len(items) == 2:
        return b"".join(items) + b"\x86"
    return b"(" + b"".join(items) + b"t"


def _zip(entries: list[tuple[str, bytes, int]]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data, method in entries:
            info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
            info.compress_type = method
            archive.writestr(info, data)
    return buffer.getvalue()


def _floats(rng: random.Random, count: int, sigma: float) -> bytes:
    return struct.pack(f"<{count}f", *[rng.gauss(0.0, sigma) for _ in range(count)])


# ---------------------------------------------------------------------------
# pickle_bulk: large benign state dicts, string keys mapped to 8-float lists

_BULK_FILES = 4
_BULK_KEYS = 5000
_KEY_PARTS = ["encoder", "decoder", "block", "attn", "mlp", "norm", "proj", "embed", "head"]


def _state_dict(rng: random.Random) -> dict[str, list[float]]:
    state: dict[str, list[float]] = {}
    for index in range(_BULK_KEYS):
        key = f"{rng.choice(_KEY_PARTS)}.{index}.{rng.choice(_KEY_PARTS)}.weight"
        state[key] = [rng.gauss(0.0, 0.02) for _ in range(8)]
    return state


def pickle_bulk(seed: int, scratch: Path) -> list[Item]:
    rng = random.Random(seed)
    return [
        Item(f"state_dict_{n}_p{proto}.pkl", pickle.dumps(_state_dict(rng), protocol=proto), CLEAN)
        for n, proto in enumerate([2, 4] * (_BULK_FILES // 2))
    ]


# ---------------------------------------------------------------------------
# model_hub: torch-style checkpoints, Keras archives, HDF5 configs, forge corpus

_CHECKPOINTS = 40
_SHAPES = [(16,), (8, 8), (64,), (16, 16), (32, 8), (128,), (24, 12), (256,)]
_KERAS_ARCHIVES = 20
_KERAS_LAMBDA_EVERY = 4  # every fourth archive hides a Lambda layer
_H5_CONFIG_BYTES = [20_000, 40_000, 80_000, 160_000, 320_000, 640_000, 1_200_000, 2_000_000]
_H5_LAMBDA_SLOTS = {1, 4, 6}


def _checkpoint_pickle(keys: list[str], shapes: list[tuple[int, ...]]) -> bytes:
    """A torch-style data.pkl: one memoized _rebuild_tensor_v2 REDUCE and one
    BINPERSID per tensor, into an OrderedDict."""
    out = [b"\x80\x02", _global("collections", "OrderedDict"), _put(0), b")R", _put(1), b"("]
    for index, (key, shape) in enumerate(zip(keys, shapes)):
        numel = 1
        for dim in shape:
            numel *= dim
        strides = [1] * len(shape)
        for axis in range(len(shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * shape[axis + 1]
        rebuild = _global("torch._utils", "_rebuild_tensor_v2") + _put(2) if index == 0 else _get(2)
        storage = _global("torch", "FloatStorage") + _put(3) if index == 0 else _get(3)
        persistent_id = (
            b"(" + _unicode("storage") + storage + _unicode(str(index)) + _unicode("cpu")
            + _int(numel) + b"tQ"
        )
        args = [
            persistent_id,
            _int(0),
            _tuple([_int(dim) for dim in shape]),
            _tuple([_int(stride) for stride in strides]),
            b"\x89",
            _get(0) + b")R",
        ]
        out += [_unicode(key), rebuild, _tuple(args), b"R"]
    out += [b"u."]
    return b"".join(out)


def _checkpoint(rng: random.Random, slot: int) -> bytes:
    count = 80 + 10 * (slot % 9)
    shapes = [_SHAPES[(slot + index) % len(_SHAPES)] for index in range(count)]
    keys = [
        f"{rng.choice(_KEY_PARTS)}.{index}.{rng.choice(_KEY_PARTS)}.{rng.choice(['weight', 'bias'])}"
        for index in range(count)
    ]
    entries = [("archive/data.pkl", _checkpoint_pickle(keys, shapes), zipfile.ZIP_STORED)]
    for index, shape in enumerate(shapes):
        numel = 1
        for dim in shape:
            numel *= dim
        entries.append((f"archive/data/{index}", _floats(rng, numel, 0.02), zipfile.ZIP_STORED))
    entries += [
        ("archive/version", b"3\n", zipfile.ZIP_STORED),
        ("archive/byteorder", b"little", zipfile.ZIP_STORED),
    ]
    return _zip(entries)


def _keras_layer(rng: random.Random, index: int) -> dict:
    kind = rng.choice(["Dense", "Conv2D", "BatchNormalization", "Dropout"])
    config: dict = {"name": f"{kind.lower()}_{index}", "trainable": True, "dtype": "float32"}
    if kind == "Dense":
        config.update(units=rng.choice([32, 64, 128, 256]), activation="relu", use_bias=True)
    elif kind == "Conv2D":
        config.update(filters=rng.choice([16, 32, 64]), kernel_size=[3, 3], strides=[1, 1], padding="same")
    elif kind == "BatchNormalization":
        config.update(axis=-1, momentum=0.99, epsilon=0.001, center=True, scale=True)
    else:
        config.update(rate=round(rng.uniform(0.1, 0.5), 3), seed=rng.randrange(1 << 16))
    config["kernel_initializer"] = {"class_name": "GlorotUniform", "config": {"seed": None}}
    return {"class_name": kind, "config": config}


def _keras_config(rng: random.Random, target_bytes: int, marker: str | None) -> str:
    """A Sequential config of about ``target_bytes``; a Lambda layer carrying
    a marshalled-code stand-in sits at a seeded position when ``marker``."""
    layers: list[dict] = []
    size = 0
    while size < target_bytes:
        layer = _keras_layer(rng, len(layers))
        size += len(json.dumps(layer)) + 2
        layers.append(layer)
    if marker is not None:
        code = base64.b64encode(forge.lambda_payload_bytes(marker)).decode("ascii")
        lambda_layer = {
            "class_name": "Lambda",
            "config": {"name": "lambda", "function": [code, None, None], "function_type": "lambda"},
        }
        layers.insert(rng.randrange(len(layers) + 1), lambda_layer)
    return json.dumps({"class_name": "Sequential", "config": {"name": "sequential", "layers": layers}})


def _forge_items(seed: int, scratch: Path, malicious_only: bool) -> list[Item]:
    """The forge corpus for ``seed``; its manifest is the ground truth."""
    directory = Path(tempfile.mkdtemp(prefix="forge-", dir=scratch))
    try:
        forge.emit_corpus(directory, seed=seed)
        manifest = json.loads((directory / "corpus_manifest.json").read_text())
        items = []
        for fixture in manifest["fixtures"]:
            if malicious_only and not fixture["expected"]:
                continue
            severe = any(e["min_severity"] in ("HIGH", "CRITICAL") for e in fixture["expected"])
            items.append(
                Item(
                    "forge_" + fixture["path"],
                    (directory / fixture["path"]).read_bytes(),
                    FINDINGS if severe else CLEAN,
                    fixture["expected"],
                    recipe="forge:" + fixture["id"],
                )
            )
        return items
    finally:
        shutil.rmtree(directory)


def model_hub(seed: int, scratch: Path) -> list[Item]:
    rng = random.Random(seed)
    items = [Item(f"ckpt_{slot:02d}.pt", _checkpoint(rng, slot), CLEAN) for slot in range(_CHECKPOINTS)]
    lambda_rules = [{"rule_id": "KERAS_LAMBDA_CODE", "min_severity": "HIGH"}]
    for slot in range(_KERAS_ARCHIVES):
        marker = f"true # hub-keras-{rng.randrange(1 << 30)}" if slot % _KERAS_LAMBDA_EVERY == 1 else None
        config = _keras_config(rng, 4_000 + 2_000 * slot, marker)
        weights = HDF5_SIGNATURE + _floats(rng, 256, 0.05)
        data = _zip(
            [
                ("metadata.json", json.dumps({"keras_version": "3.4.0"}).encode(), zipfile.ZIP_DEFLATED),
                ("config.json", config.encode("utf-8"), zipfile.ZIP_DEFLATED),
                ("model.weights.h5", weights, zipfile.ZIP_STORED),
            ]
        )
        items.append(
            Item(f"model_{slot:02d}.keras", data, FINDINGS if marker else CLEAN, lambda_rules if marker else [])
        )
    h5_rule = {"rule_id": "H5_HEURISTIC_USED", "min_severity": "INFO"}
    for slot, target in enumerate(_H5_CONFIG_BYTES):
        marker = f"true # hub-h5-{rng.randrange(1 << 30)}" if slot in _H5_LAMBDA_SLOTS else None
        data = forge.emit_keras_h5(_keras_config(rng, target, marker))
        rules = [h5_rule] + (lambda_rules if marker else [])
        items.append(Item(f"model_{slot}.h5", data, FINDINGS if marker else CLEAN, rules))
    return items + _forge_items(seed, scratch, malicious_only=False)


# ---------------------------------------------------------------------------
# hostile: the known denial-of-service recipes plus the forged attacks

_MEMO_DEPTHS = (14, 16, 18)
_NEST_DEPTH = 1000
_SHARED_ELEMENTS = 10_000
_SHARED_CALLS = 300
_SEGMENTS = 20_000


def memo_blowup(module: str, name: str, marker: str, depth: int) -> bytes:
    """m[0] = marker, m[i] = (m[i-1], m[i-1]); then call the global on m[depth].

    The value is a DAG of size ``depth`` whose tree expansion has 2**depth
    leaves, so any walk that does not remember visited nodes explodes.
    """
    out = [b"\x80\x02", _global(module, name), _unicode(marker), _put(0), b"0"]
    for index in range(1, depth + 1):
        out += [_get(index - 1), _get(index - 1), b"\x86", _put(index), b"0"]
    out += [_get(depth), b"\x85R."]
    return b"".join(out)


def deep_nesting(module: str, name: str, depth: int) -> bytes:
    """``depth`` EMPTY_LISTs folded by APPENDs into one nested list, then a call on it."""
    return b"\x80\x02" + _global(module, name) + b"]" * depth + b"a" * (depth - 1) + b"\x85R."


def shared_list_calls(module: str, name: str, words: list[str], calls: int) -> bytes:
    """One memoized list, passed to the same memoized global ``calls`` times."""
    out = [b"\x80\x02", b"]", _put(0), b"("]
    out += [b"\x8c" + bytes([len(word)]) + word.encode("ascii") for word in words]  # SHORT_BINUNICODE
    out += [b"e", _global(module, name), _put(1), b"0"]  # APPENDS, memoize the global, POP
    out += [_get(1) + _get(0) + b"\x85R0"] * calls  # call, discard the result
    out += [b"."]  # the list stays as the root
    return b"".join(out)


def stop_segments(count: int, rng: random.Random) -> bytes:
    """``count`` tiny benign pickles back to back, each ended by its own STOP."""
    return b"".join(b"\x80\x02K" + bytes([rng.randrange(256)]) + b"." for _ in range(count))


def hostile(seed: int, scratch: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for depth in _MEMO_DEPTHS:
        module, name = rng.choice(_DANGEROUS)
        marker = f"true # memo-{rng.randrange(1 << 30)}"
        items.append(
            Item(f"memo_depth{depth}.pkl", memo_blowup(module, name, marker, depth), FINDINGS, _CALL_RULES, "memo")
        )
    module, name = rng.choice(_DANGEROUS)
    items.append(Item("nesting.pkl", deep_nesting(module, name, _NEST_DEPTH), FINDINGS, _CALL_RULES, "nesting"))
    module, name = rng.choice(_DANGEROUS)
    words = ["".join(rng.choice("abcdefghij") for _ in range(4)) for _ in range(_SHARED_ELEMENTS)]
    items.append(
        Item("shared_list.pkl", shared_list_calls(module, name, words, _SHARED_CALLS), FINDINGS, _CALL_RULES, "shared_list")
    )
    items.append(Item("segments.pkl", stop_segments(_SEGMENTS, rng), CLEAN, [], "segments"))
    return items + _forge_items(seed, scratch, malicious_only=True)


GENERATORS = {"pickle_bulk": pickle_bulk, "model_hub": model_hub, "hostile": hostile}


def generate(workload: str, seed: int, scratch: Path) -> list[Item]:
    return GENERATORS[workload](seed, scratch)


def write(items: list[Item], directory: Path) -> dict:
    """Write every item under ``directory/files`` and return the ground truth."""
    files = directory / "files"
    files.mkdir(parents=True)
    truth = {}
    for item in items:
        (files / item.name).write_bytes(item.data)
        truth[item.name] = {"verdict": item.verdict, "rules": list(item.rules), "recipe": item.recipe}
    return truth
