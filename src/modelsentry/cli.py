"""Command line entry points: scan, disasm, forge, verify."""

from __future__ import annotations

import argparse
import os
import sys

from . import containers, disasm
from .policy import IntegrityManifest, Policy, Severity, default_policy, load_policy_file
from .report import EXIT_OK, EXIT_OPERATIONAL, exit_code, render
from .scanner import ScanReport, open_regular, scan_paths, verify_paths

POLICY_ENV_VAR = "MODELSENTRY_POLICY"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelsentry",
        description="Static security scanner for serialized ML model files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan files or directory trees")
    scan.add_argument("paths", nargs="+", metavar="PATH")
    scan.add_argument("--policy", help="policy JSON file (extends the built-in defaults)")
    scan.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    scan.add_argument("--out", help="write the report here instead of stdout")
    scan.add_argument(
        "--threshold",
        default="HIGH",
        help="minimum severity that makes the exit code nonzero (default HIGH)",
    )
    scan.add_argument(
        "--max-entry-bytes",
        type=int,
        default=containers.DEFAULT_ENTRY_CAP,
        help="decompression cap per archive entry",
    )
    scan.add_argument("--follow-symlinks", action="store_true")

    dis = sub.add_parser("disasm", help="print one instruction per line")
    dis.add_argument("file", metavar="FILE")

    forge = sub.add_parser("forge", help="write the ground-truth fixture corpus")
    forge.add_argument("--out", required=True, metavar="DIR")
    forge.add_argument("--seed", type=int, default=0)
    forge.add_argument("--marker", help="inert payload command")

    verify = sub.add_parser("verify", help="check files against an integrity manifest")
    verify.add_argument("--manifest", required=True, metavar="FILE")
    verify.add_argument("paths", nargs="+", metavar="PATH")
    verify.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.add_argument("--threshold", default="HIGH")
    return parser


def _load_policy(policy_arg: str | None) -> Policy:
    path = policy_arg or os.environ.get(POLICY_ENV_VAR)
    if path:
        return load_policy_file(path)
    return default_policy()


def _emit(report: ScanReport, args: argparse.Namespace) -> int:
    """Write the report in ``args.format`` to ``args.out`` or stdout; return
    the exit code, which is operational if the report cannot be written."""
    data = render(report, args.format)
    try:
        if args.out:
            with open(args.out, "wb") as handle:
                handle.write(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
    except OSError as exc:
        print(f"modelsentry: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    return exit_code(report)


def _cmd_scan(args: argparse.Namespace) -> int:
    try:
        policy = _load_policy(args.policy)
        threshold = Severity.parse(args.threshold)
    except (OSError, ValueError) as exc:
        print(f"modelsentry: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    report = scan_paths(
        args.paths,
        policy,
        args.max_entry_bytes,
        follow_symlinks=args.follow_symlinks,
        threshold=threshold,
    )
    return _emit(report, args)


def _format_op(code: int, offset: int, arg: object) -> str:
    """One op as ``OFFSET MNEMONIC ARG``, a GLOBAL or INST name pair as two words."""
    line = f"{offset:>8} {disasm.OPCODES[code].name}"
    if arg is None:
        return line
    return f"{line} {' '.join(arg) if isinstance(arg, tuple) else repr(arg)}"


def _cmd_disasm(args: argparse.Namespace) -> int:
    try:
        with open_regular(args.file) as (handle, size):
            if size > disasm.MAX_STREAM_BYTES:  # refused before it is read, as scan_file does
                raise disasm.LimitExceeded(0, "max_stream_bytes")
            data = handle.read()
        for ops, trailing in disasm.iter_programs(data):
            for code, offset, arg, _end in ops:
                print(_format_op(code, offset, arg))
            if trailing:
                print(f"# {trailing} trailing byte(s)")
    except OSError as exc:
        print(f"modelsentry: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except disasm.ParseError as exc:
        print(f"modelsentry: parse error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    return EXIT_OK


def _cmd_forge(args: argparse.Namespace) -> int:
    # Imported here: no other command needs the fixture writers.
    from .forge import DEFAULT_MARKER, ForgeError, emit_corpus

    marker = DEFAULT_MARKER if args.marker is None else args.marker
    try:
        manifest = emit_corpus(args.out, seed=args.seed, payload_marker=marker)
    except (OSError, ForgeError) as exc:
        print(f"modelsentry: forge failed: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    print(f"wrote {len(manifest['fixtures'])} fixtures to {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        manifest = IntegrityManifest.load(args.manifest)
        threshold = Severity.parse(args.threshold)
        policy = default_policy()
    except (OSError, ValueError) as exc:
        print(f"modelsentry: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    report = verify_paths(args.paths, manifest, policy, threshold=threshold)
    return _emit(report, args)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "disasm": _cmd_disasm,
        "forge": _cmd_forge,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
