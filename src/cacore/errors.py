"""Exception types shared across the toolchain."""

from __future__ import annotations

from pathlib import Path


class CacoreError(Exception):
    """Base class for all toolchain errors."""


class QasmSyntaxError(CacoreError):
    """OpenQASM source that cannot be read: a malformed token or statement,
    a gate outside the supported subset, or a qubit index out of range. The
    message is prefixed with ``line N:``."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DegenerateInputError(CacoreError):
    """Input too small or too large for the requested operation."""


class UnknownTopologyError(CacoreError):
    """Requested builtin topology name does not exist."""


class TopologyFormatError(CacoreError):
    """Topology file violates the JSON schema, or names more than MAX_QUBITS qubits."""

    def __init__(self, message: str, location: str = ""):
        suffix = f" (at {location})" if location else ""
        super().__init__(f"{message}{suffix}")


class UnroutableGateError(CacoreError):
    """Two-qubit gate whose endpoints lie in different topology components."""


def undecodable_byte(path: Path) -> tuple[int, int]:
    """The line, counted as text mode counts it, and the value of the first
    byte of a file that is not UTF-8; (0, 0) when every byte is."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1, data[exc.start]
    return 0, 0
