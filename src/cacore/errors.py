"""Exception types shared across the toolchain, and ``read_utf8``, the one input-file reader."""

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


def read_utf8(path: Path, error) -> str:
    """The text of a UTF-8 file as ``Path.read_text`` gives it, ``\\r\\n`` and a lone
    ``\\r`` made ``\\n``. The first byte that is not UTF-8 raises ``error(message, line)``,
    its line counted as text mode counts it."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"byte {data[exc.start]:#04x} is not valid UTF-8", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
