"""modelsentry: static security scanner for serialized ML model files."""

from .absvm import AbstractResult, SecurityEvent, evaluate
from .disasm import ParseError
from .policy import Finding, Policy, Severity, classify_global, default_policy
from .scanner import FileReport, ScanReport, scan_file, scan_paths, sniff

__version__ = "0.1.0"

__all__ = [
    "AbstractResult",
    "FileReport",
    "Finding",
    "ParseError",
    "Policy",
    "ScanReport",
    "SecurityEvent",
    "Severity",
    "classify_global",
    "default_policy",
    "evaluate",
    "scan_file",
    "scan_paths",
    "sniff",
    "__version__",
]
