"""Adversarial input structure: scans must stay fast and keep their findings.

Each recipe hides an ``os.system`` call behind a value graph that is cheap to
write but expensive to walk naively: memo sharing (a DAG with 2**depth tree
leaves), deep list nesting, and many calls over one large shared list.  One
more packs an HDF5 file with config candidates that each fail.  Every
scan runs under a wall-clock alarm, so a stall fails the test instead of
hanging the suite.
"""

from __future__ import annotations

import contextlib
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from modelsentry.absvm import (
    ARG_SUMMARY_CAP,
    CallResult,
    Container,
    GlobalRef,
    Primitive,
    render_value,
)
from modelsentry.containers import HDF5_SIGNATURE
from modelsentry.scanner import scan_file

ALARM_SECONDS = 2.0
GLOBAL = b"cos\nsystem\n"


def memo_sharing(depth: int) -> bytes:
    """m[0] = 'x', m[i] = (m[i-1], m[i-1]); then os.system(m[depth])."""
    out = [b"\x80\x02", GLOBAL, b"X\x01\x00\x00\x00x", b"q\x00", b"0"]
    for index in range(1, depth + 1):
        out += [b"h" + bytes([index - 1]), b"h" + bytes([index - 1]), b"\x86"]
        out += [b"q" + bytes([index]), b"0"]
    out += [b"h" + bytes([depth]), b"\x85R."]
    return b"".join(out)


def deep_nesting(depth: int) -> bytes:
    """``depth`` EMPTY_LISTs folded by APPENDs into one nested list, passed to the call."""
    return b"\x80\x02" + GLOBAL + b"]" * depth + b"a" * (depth - 1) + b"\x85R."


def shared_list_calls(size: int, calls: int) -> bytes:
    """One memoized ``size``-element list, passed to the memoized global ``calls`` times."""
    words = b"".join(b"\x8c\x04" + b"w%03d" % (index % 1000) for index in range(size))
    out = [b"\x80\x02]q\x00(", words, b"e", GLOBAL, b"q\x01", b"0"]
    out += [b"h\x01h\x00\x85R0" * calls, b"."]
    return b"".join(out)


class _Stalled(Exception):
    pass


def _stalled(_signum, _frame):
    raise _Stalled()


@contextlib.contextmanager
def _alarm(seconds: float):
    previous = signal.signal(signal.SIGALRM, _stalled)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _assert_reports_call(path, data: bytes, policy) -> None:
    path.write_bytes(data)
    with _alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    rules = {finding.rule_id for finding in report.findings}
    assert {"PICKLE_DANGEROUS_GLOBAL", "PICKLE_CALL"} <= rules


def test_memo_sharing_depth_22(tmp_path, policy):
    _assert_reports_call(tmp_path / "memo.pkl", memo_sharing(22), policy)


def test_deep_nesting_1000(tmp_path, policy):
    _assert_reports_call(tmp_path / "nesting.pkl", deep_nesting(1000), policy)


def test_shared_list_calls_10000_by_1000(tmp_path, policy):
    _assert_reports_call(tmp_path / "shared.pkl", shared_list_calls(10_000, 1000), policy)


def test_many_hdf5_config_candidates(tmp_path, policy):
    """Every ``model_config`` candidate is tried, each from where the last
    one's parse stopped, so 20,000 failing candidates cost linear time; the
    report holds one error for all of them, not one per candidate."""
    path = tmp_path / "candidates.h5"
    path.write_bytes(HDF5_SIGNATURE + b'model_config{"a":' * 20_000)
    with _alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert [error.kind for error in report.errors] == ["UnbalancedJson"]
    assert report.errors[0].message.endswith("(19999 more candidate(s) failed)")
    assert [f.rule_id for f in report.findings] == ["FORMAT_PARSE_ERROR"]


def test_many_hdf5_configs_keep_the_report_small(tmp_path, policy):
    path = tmp_path / "configs.h5"
    path.write_bytes(HDF5_SIGNATURE + b"model_config{}" * 20_000)
    with _alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    assert [f.rule_id for f in report.findings] == ["H5_HEURISTIC_USED"]
    assert report.findings[0].message.endswith("; 19999 more after it)")


class _CountingTuple(tuple):
    """A tuple that counts how many of its items an iteration takes."""

    visited = 0

    def __iter__(self):
        for item in super().__iter__():
            self.visited += 1
            yield item


def test_render_value_stops_at_its_budget():
    elements = _CountingTuple([Primitive("x")] * 1_000_000)
    text = render_value(Container("list", elements))
    assert len(text) <= ARG_SUMMARY_CAP + 1
    assert elements.visited <= ARG_SUMMARY_CAP
    args = _CountingTuple([Primitive("x")] * 1_000_000)
    render_value(CallResult(GlobalRef("os", "system"), args, "REDUCE"))
    assert args.visited <= ARG_SUMMARY_CAP


_RECIPES = st.one_of(
    st.integers(1, 40).map(memo_sharing),
    st.integers(1, 3_000).map(deep_nesting),
    st.tuples(st.integers(1, 20_000), st.integers(1, 500)).map(
        lambda shape: shared_list_calls(*shape)
    ),
)


@settings(max_examples=50, deadline=None)
@given(_RECIPES)
def test_generated_structure_keeps_findings_within_bound(tmp_path_factory, policy, data):
    _assert_reports_call(tmp_path_factory.getbasetemp() / "structure.pkl", data, policy)
