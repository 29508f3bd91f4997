"""Byte / FLOP / time unit constants and human-readable formatting."""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40

_SI_PREFIXES = ["", "K", "M", "G", "T", "P", "E"]


def _si_format(value: float, unit: str, base: float = 1000.0) -> str:
    value = float(value)
    if value == 0:
        return f"0 {unit}"
    magnitude = 0
    scaled = abs(value)
    while scaled >= base and magnitude < len(_SI_PREFIXES) - 1:
        scaled /= base
        magnitude += 1
    sign = "-" if value < 0 else ""
    return f"{sign}{scaled:.3g} {_SI_PREFIXES[magnitude]}{unit}"


def format_bytes(num_bytes: float) -> str:
    """Format a byte count with binary prefixes (GiB etc.)."""
    value = float(num_bytes)
    if abs(value) < 1024:
        return f"{value:.0f} B"
    for prefix, threshold in (("Ki", KIB), ("Mi", MIB), ("Gi", GIB), ("Ti", TIB)):
        if abs(value) < threshold * 1024 or prefix == "Ti":
            return f"{value / threshold:.2f} {prefix}B"
    raise AssertionError("unreachable")


def format_flops(flops: float) -> str:
    """Format a FLOP/s rate with SI prefixes (e.g. ``1.6 EFLOPS``)."""
    return _si_format(flops, "FLOPS")


def format_time(seconds: float) -> str:
    """Format a duration, switching between s/ms/us and h:m for long times."""
    seconds = float(seconds)
    if seconds < 0:
        return f"-{format_time(-seconds)}"
    if seconds >= 3600:
        hours = int(seconds // 3600)
        minutes = int((seconds % 3600) // 60)
        return f"{hours}h{minutes:02d}m"
    if seconds >= 60:
        minutes = int(seconds // 60)
        return f"{minutes}m{seconds % 60:04.1f}s"
    if seconds >= 1:
        return f"{seconds:.3g} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} us"
