"""Layer traversal and payload extraction over model-config JSON."""

from __future__ import annotations

import base64
import codecs
import hashlib
import json
import marshal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_holders, reference_json_path, reference_walk_layers
from modelsentry.absvm import ARG_SUMMARY_CAP
from modelsentry.containers import decode_config
from modelsentry.forge import emit_keras_lambda_config, lambda_payload_bytes
from modelsentry.kerascfg import (
    ConfigAnomaly,
    _render,
    extract_code_payload,
    may_report,
    walk_layers,
)
from modelsentry.policy import FileContext, Policy, apply_keras_rules
from modelsentry.scanner import FileReport, _scan_keras_config


def test_three_layer_sequential():
    config = json.loads(emit_keras_lambda_config(True))
    records = walk_layers(config, [], {"Dense", "Lambda"})
    assert [record.class_name for record in records] == ["Dense", "Lambda", "Dense"]
    assert records[1].json_path == "config.layers[1]"
    assert records[1].layer_name == "lambda"


def test_empty_object_has_no_layers():
    assert walk_layers({}, []) == []


def test_nested_inner_model_is_traversed():
    inner = json.loads(emit_keras_lambda_config(True))
    outer = {
        "class_name": "Functional",
        "config": {"name": "outer", "layers": [
            {"class_name": "InputLayer", "config": {"name": "in"}},
            inner,
        ]},
    }
    records = walk_layers(outer, [], {"InputLayer", "Sequential", "Dense", "Lambda"})
    assert [record.class_name for record in records] == ["InputLayer", "Sequential", "Dense", "Lambda", "Dense"]
    lambdas = [record for record in records if record.class_name == "Lambda"]
    assert len(lambdas) == 1
    assert lambdas[0].json_path == "config.layers[1].config.layers[1]"


def test_wrapper_layer_with_embedded_layer_key():
    config = {
        "class_name": "Sequential",
        "config": {
            "layers": [
                {
                    "class_name": "TimeDistributed",
                    "config": {
                        "name": "td",
                        "layer": {
                            "class_name": "Lambda",
                            "config": {"name": "wrapped", "function": "by_name"},
                        },
                    },
                }
            ]
        },
    }
    records = walk_layers(config, [], {"TimeDistributed", "Lambda"})
    names = [(record.class_name, record.json_path) for record in records]
    assert ("TimeDistributed", "config.layers[0]") in names
    assert ("Lambda", "config.layers[0].config.layer") in names


def test_malformed_layers_node_recorded_and_traversal_continues():
    config = {
        "config": {
            "layers": "not-an-array",
            "inner": {"layers": [{"class_name": "Dense", "config": {"name": "d"}}]},
        }
    }
    anomalies: list[ConfigAnomaly] = []
    records = walk_layers(config, anomalies, {"Dense"})
    assert [record.class_name for record in records] == ["Dense"]
    assert any(a.kind == "MalformedConfig" and a.json_path == "config.layers" for a in anomalies)


def test_layer_entry_without_class_name_is_anomalous():
    config = {"config": {"layers": [{"weights": [1, 2]}]}}
    anomalies: list[ConfigAnomaly] = []
    assert walk_layers(config, anomalies) == []
    assert len(anomalies) == 1


def test_five_thousand_nested_wrappers_are_walked_to_the_end():
    """No depth budget: a chain of wrapper layers far deeper than the
    interpreter's recursion limit is walked to its innermost layer.  Only
    that layer is recorded, since every record renders its whole path."""
    node: dict = {"class_name": "Dense", "config": {}}
    for _ in range(5_000):
        node = {"class_name": "Wrapper", "config": {"layer": node}}
    config = {"config": {"layers": [node]}}
    anomalies: list[ConfigAnomaly] = []
    records = walk_layers(config, anomalies, {"Dense"})
    assert [(r.class_name, r.json_path) for r in records] == [
        ("Dense", "config.layers[0]" + ".config.layer" * 5_000)
    ]
    assert anomalies == []


_PATH_KEYS = st.one_of(
    st.integers(0, 10**6),
    st.sampled_from(["", "", "layers", "config", "a.b", "[0]"]),
    st.text(max_size=4),
    # At the cap and past it: cut by ``clip``.
    st.integers(ARG_SUMMARY_CAP - 1, ARG_SUMMARY_CAP + 2).map(lambda n: "k" * n),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PATH_KEYS, max_size=12))
def test_json_path_equals_the_reference_renderer(keys):
    """Empty keys, leading ones among them, and clipped keys render as the
    concatenating renderer rendered them."""
    link = None
    for key in keys:
        link = (link, key)
    assert _render(link) == reference_json_path(link)


# Payload shapes a Lambda's ``config.function`` can take, good and bad.
_MARSHALLED = marshal.dumps((lambda x: x + 1).__code__)
_FUNC_DUMP = codecs.encode(_MARSHALLED, "base64").decode("ascii")
_FUNCTIONS = [
    [base64.b64encode(b"one line").decode("ascii"), None, None],
    [_FUNC_DUMP, None, None],
    ["!!!not-base64!!!", None, None],
    ["caf\u00e9"],
    [],
    [3],
    {"class_name": "__lambda__", "config": {"code": _FUNC_DUMP, "defaults": None, "closure": None}},
    {"class_name": "__lambda__", "config": {"code": 5}},
    {"class_name": "__lambda__", "config": "code"},
    {"weird": 1},
    "registered_fn",
    "mypkg.ops.fn",
    "lambda x: x",
    "",
    7,
    None,
]
# "" too: an empty key adds no dot while the path is still empty.
_KEYS = st.sampled_from(["layers", "layer", "class_name", "config", "name", "function", "a", ""])
_SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["Dense", "Lambda", "n", ""])
_LAMBDAS = st.builds(
    lambda name, function: {"class_name": "Lambda", "config": {"name": name, "function": function}},
    st.sampled_from(["lam", "", 4]),
    st.sampled_from(_FUNCTIONS),
)


def _nested(children):
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(_KEYS, children, max_size=4)
        # a layers array whose entries may be anything, a scalar included
        | st.builds(lambda items: {"layers": items}, st.lists(children | _LAMBDAS, max_size=4))
        # a wrapper layer embedding one layer
        | st.builds(
            lambda cls, inner: {"class_name": cls, "config": {"name": "w", "layer": inner}},
            st.sampled_from(["TimeDistributed", "Lambda"]),
            children | _LAMBDAS,
        )
    )


_CONFIGS = st.recursive(_SCALARS | _LAMBDAS, _nested, max_leaves=30)


_CLASSES = st.sampled_from([{"Lambda"}, {"Lambda", "TimeDistributed"}, {"TimeDistributed"}, {"Dense"}, set()])


@settings(max_examples=300, deadline=None)
@given(_CONFIGS, _CLASSES)
def test_walk_matches_the_reference_walk(config, classes):
    """Records (as field tuples) equal the reference walk's records of the
    given classes, and anomalies equal its anomalies, in order: malformed
    layer entries of any class are reported."""
    anomalies: list[ConfigAnomaly] = []
    expected_anomalies: list[ConfigAnomaly] = []
    records = walk_layers(config, anomalies, classes)
    expected = reference_walk_layers(config, expected_anomalies, classes)
    assert [tuple(record) for record in records] == [
        (r.class_name, r.layer_name, r.json_path, r.payload) for r in expected if r.class_name in classes
    ]
    assert anomalies == expected_anomalies


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 19_999), min_size=2, max_size=2, unique=True))
def test_lambdas_among_twenty_thousand_layers_are_the_only_records(indices):
    """Two Lambdas among 20,000 Dense layers, the first drawn one wrapped in
    a TimeDistributed ``layer``: exactly those two are recorded, in document
    order, at their paths."""
    wrapped, bare = indices
    layers = [{"class_name": "Dense", "config": {"name": f"d{i}", "units": 4}} for i in range(20_000)]
    layers[bare] = {"class_name": "Lambda", "config": {"name": "bare", "function": "f"}}
    layers[wrapped] = {
        "class_name": "TimeDistributed",
        "config": {"name": "td", "layer": {"class_name": "Lambda", "config": {"name": "wrapped", "function": "g"}}},
    }
    config = {"class_name": "Sequential", "config": {"name": "s", "layers": layers}}
    anomalies: list[ConfigAnomaly] = []
    records = walk_layers(config, anomalies)
    expected = {
        bare: ("Lambda", "bare", f"config.layers[{bare}]"),
        wrapped: ("Lambda", "wrapped", f"config.layers[{wrapped}].config.layer"),
    }
    assert [(r.class_name, r.layer_name, r.json_path) for r in records] == [
        expected[index] for index in sorted(indices)
    ]
    assert anomalies == []


def test_detection_count_equals_planted_count():
    planted = 7
    layers = []
    for index in range(planted):
        layers.append(
            {"class_name": "Lambda", "config": {"name": f"l{index}", "function": "f"}}
        )
        layers.append({"class_name": "Dense", "config": {"name": f"d{index}"}})
    config = {"config": {"layers": layers}}
    records = walk_layers(config, [])
    assert sum(1 for record in records if record.class_name == "Lambda") == planted


# -- skipping the walk --------------------------------------------------------

# Configs are drawn as JSON text, so that keys can repeat and be spelled with
# escapes; each text decodes to what ``json.loads`` makes of it.
_KEY_TEXTS = st.sampled_from(
    ['"layers"', '"\\u006cayers"', '"layer"', '"l\\u0061yer"', '"class_name"', '"config"', '"name"', '"a"', '""']
)
_CLASS_TEXTS = st.sampled_from(
    ['"Dense"', '"Lambda"', '"L\\u0061mbda"', '"TimeDistributed"', '"DangerOp"', "5", "null"]
)
_SCALAR_TEXTS = st.sampled_from(["null", "true", "0", "-1", '"Dense"', '"Lambda"', '""'])
_FUNCTION_TEXTS = st.sampled_from([json.dumps(function) for function in _FUNCTIONS])


def _object(pairs) -> str:
    return "{" + ",".join(f"{key}:{value}" for key, value in pairs) + "}"


def _array(items) -> str:
    return "[" + ",".join(items) + "]"


def _layer_text(cls: str, config: str) -> str:
    return _object([('"class_name"', cls), ('"config"', config)])


_LAYER_TEXTS = st.builds(
    lambda cls, function: _layer_text(cls, _object([('"name"', '"n"'), ('"function"', function)])),
    _CLASS_TEXTS,
    _FUNCTION_TEXTS,
)


def _nested_texts(children):
    return (
        st.lists(children, max_size=4).map(_array)
        # any keys, a key repeated among them
        | st.lists(st.tuples(_KEY_TEXTS, children), max_size=4).map(_object)
        # an inner model: a layers array whose entries may be anything
        | st.builds(
            lambda cls, items: _layer_text(cls, _object([('"layers"', _array(items))])),
            st.sampled_from(['"Sequential"', '"Functional"']),
            st.lists(children | _LAYER_TEXTS, max_size=4),
        )
        # a wrapper layer embedding one layer
        | st.builds(
            lambda cls, inner: _layer_text(cls, _object([('"layer"', inner)])),
            _CLASS_TEXTS,
            children | _LAYER_TEXTS,
        )
        # a key whose first value a second one replaces
        | st.builds(
            lambda key, first, second: _object([(key, first), (key, second)]), _KEY_TEXTS, children, children
        )
    )


_CONFIG_TEXTS = st.recursive(_SCALAR_TEXTS | _LAYER_TEXTS, _nested_texts, max_leaves=30)
_POLICIES = st.sampled_from(
    [Policy(), *(Policy(extra_custom_layer_classes=(cls,)) for cls in ("DangerOp", "TimeDistributed"))]
)
_BENIGN = '{"class_name": "Sequential", "config": {"layers": [{"class_name": "Dense", "config": {}}]}}'
_HIDDEN = '{"config": {"\\u006cayers": [{"class_name": "Dense"}, {"class_name": "L\\u0061mbda"}]}}'


@settings(max_examples=400, deadline=None)
@given(_CONFIG_TEXTS, _POLICIES)
@example(_BENIGN, Policy())
@example(_HIDDEN, Policy())
@example('{"a": {"layers": 1}, "a": 2}', Policy())
def test_a_skipped_walk_hides_nothing(text, policy):
    """The scanner's findings for a decoded config are those of an
    unconditional walk, every object holding a layer key reachable from the
    config is a holder, and a config the check skips is one the reference
    walk finds nothing in."""
    extracted = decode_config(text.encode(), whole=True)
    config = extracted.config
    assert config == json.loads(text)
    classes = {"Lambda", *policy.extra_custom_layer_classes}
    ctx = FileContext("model.keras", "config.json")
    report = FileReport("model.keras", "zip")
    _scan_keras_config(extracted, ctx, policy, report)
    anomalies: list[ConfigAnomaly] = []
    records = walk_layers(config, anomalies, classes)
    assert report.findings == apply_keras_rules(records, anomalies, policy, ctx)
    held = {id(holder) for holder in extracted.holders}
    assert all(id(holder) in held for holder in reference_holders(config))
    if not may_report(config, extracted.holders, classes):
        expected_anomalies: list[ConfigAnomaly] = []
        expected = reference_walk_layers(config, expected_anomalies, classes)
        assert [r for r in expected if r.class_name in classes] == []
        assert expected_anomalies == []


def test_the_check_is_true_for_each_thing_a_walk_reports():
    """One case per way the walk reports, and the benign configs it skips."""
    lam = {"class_name": "Lambda"}
    cases = [
        ([], True),  # the root is not an object
        ({"layers": {}}, True),  # a layers value that is not an array
        ({"layers": [3]}, True),  # an entry that is not an object
        ({"layers": [{"class_name": 3}]}, True),  # a class name that is not a string
        ({"layers": [{"name": "x"}]}, True),  # no class name at all
        ({"layers": [{"class_name": "Dense"}, lam]}, True),  # a flagged class
        ({"layer": {"class_name": None}}, True),  # a wrapped layer's class name
        ({"layer": lam}, True),  # a wrapped flagged class
        ({"layers": [{"class_name": "Dense"}], "layer": {"name": "x"}}, False),
        ({"config": {"a": [1, {"b": "Lambda"}]}}, False),
    ]
    for config, expected in cases:
        assert may_report(config, reference_holders(config), {"Lambda"}) is expected, config
        anomalies: list[ConfigAnomaly] = []
        assert bool(walk_layers(config, anomalies) or anomalies) is expected, config


# -- payload extraction ------------------------------------------------------


def test_base64_payload_decoded_measured_hashed_never_run():
    payload = lambda_payload_bytes()
    config = json.loads(emit_keras_lambda_config(True))
    layer = config["config"]["layers"][1]
    record = extract_code_payload(layer, "", [])
    assert record is not None
    assert record.encoding == "base64-marshalled-code"
    assert record.decoded_length == len(payload)
    assert record.digest == hashlib.sha256(payload).hexdigest()
    assert record.preview.startswith("FIXTURE-MARSHALLED-LAMBDA")


def test_reference_by_name():
    layer = {"class_name": "Lambda", "config": {"function": "my_registered_fn"}}
    record = extract_code_payload(layer, "", [])
    assert record is not None
    assert record.encoding == "reference-by-name"
    assert record.decoded_length == 0
    assert record.preview == "my_registered_fn"


def test_plain_source_in_function_field():
    source = "lambda x: __import__('os').system('true') or x"
    layer = {"class_name": "Lambda", "config": {"function": source}}
    record = extract_code_payload(layer, "", [])
    assert record is not None
    assert record.encoding == "plain-source"
    assert record.decoded_length == len(source.encode("utf-8"))


def test_dotted_reference_is_still_a_name():
    layer = {"class_name": "Lambda", "config": {"function": "mypkg.ops.passthrough"}}
    record = extract_code_payload(layer, "", [])
    assert record.encoding == "reference-by-name"


def test_absent_function_field():
    layer = {"class_name": "Lambda", "config": {"name": "noop"}}
    assert extract_code_payload(layer, "", []) is None


def test_bad_base64_is_anomaly_not_crash():
    layer = {"class_name": "Lambda", "config": {"function": ["!!!not-base64!!!", None]}}
    anomalies: list[ConfigAnomaly] = []
    assert extract_code_payload(layer, "config.layers[0]", anomalies) is None
    assert anomalies and anomalies[0].kind == "Base64Error"


@pytest.mark.parametrize("flag", [0, 0x80], ids=["plain", "with-ref-flag"])
def test_raw_unicode_escape_payload_is_measured_and_hashed(flag):
    """Where base64 fails, Keras's func_load unmarshals the text's
    ``raw_unicode_escape`` bytes: marshalled code, type byte ``c`` with or
    without marshal's reference flag."""
    raw = marshal.dumps(compile("x + 1", "<l>", "eval"))
    raw = bytes([raw[0] & 0x7F | flag]) + raw[1:]
    layer = {"class_name": "Lambda", "config": {"function": [raw.decode("raw_unicode_escape"), None, None]}}
    anomalies: list[ConfigAnomaly] = []
    record = extract_code_payload(layer, "", anomalies)
    assert anomalies == []
    assert record.encoding == "raw-unicode-escape-marshalled-code"
    assert record.decoded_length == len(raw)
    assert record.digest == hashlib.sha256(raw).hexdigest()


def test_unknown_function_shape_is_anomaly():
    layer = {"class_name": "Lambda", "config": {"function": {"weird": 1}}}
    anomalies: list[ConfigAnomaly] = []
    assert extract_code_payload(layer, "", anomalies) is None
    assert anomalies and anomalies[0].kind == "MalformedConfig"


def test_digest_is_deterministic_for_identical_bytes():
    blob = base64.b64encode(b"same payload bytes").decode()
    layer_a = {"class_name": "Lambda", "config": {"function": [blob, None, None]}}
    layer_b = {"class_name": "Lambda", "config": {"function": [blob]}}
    assert extract_code_payload(layer_a, "", []).digest == extract_code_payload(layer_b, "", []).digest


def test_func_dump_payload_with_line_breaks_is_decoded():
    """Keras's ``func_dump`` writes ``codecs.encode(raw, "base64")``, a line
    break every 76 characters, and ``func_load`` decodes it with the same
    codec: the payload is decoded, not a Base64Error."""
    assert _FUNC_DUMP.count("\n") > 1
    layer = {"class_name": "Lambda", "config": {"function": [_FUNC_DUMP, None, None]}}
    anomalies: list[ConfigAnomaly] = []
    record = extract_code_payload(layer, "config.layers[0]", anomalies)
    assert anomalies == []
    assert record.encoding == "base64-marshalled-code"
    assert record.decoded_length == len(_MARSHALLED)
    assert record.digest == hashlib.sha256(_MARSHALLED).hexdigest()


def test_keras3_lambda_dict_carries_code():
    """Keras 3's ``Lambda.get_config`` writes a lambda as
    ``{"class_name": "__lambda__", "config": {"code": ..., ...}}``."""
    function = {"class_name": "__lambda__", "config": {"code": _FUNC_DUMP, "defaults": None, "closure": None}}
    layer = {"class_name": "Lambda", "config": {"function": function}}
    anomalies: list[ConfigAnomaly] = []
    record = extract_code_payload(layer, "config.layers[0]", anomalies)
    assert anomalies == []
    assert record.encoding == "base64-marshalled-code"
    assert record.decoded_length == len(_MARSHALLED)
    assert record.digest == hashlib.sha256(_MARSHALLED).hexdigest()


@pytest.mark.parametrize(
    "function",
    [{"class_name": "__lambda__", "config": {"code": 5}}, {"class_name": "__lambda__"}],
)
def test_keras3_lambda_dict_without_code_is_anomaly(function):
    layer = {"class_name": "Lambda", "config": {"function": function}}
    anomalies: list[ConfigAnomaly] = []
    assert extract_code_payload(layer, "", anomalies) is None
    assert anomalies == [
        ConfigAnomaly("MalformedConfig", "config.function", "unrecognized function encoding (dict)")
    ]
