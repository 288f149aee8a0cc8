"""Helpers shared by ``run.py``, its child programs and ``count_check.py``.

The benchmark runs from the root of a source checkout: ``src/`` holds the
``repro`` package, and this directory holds only benchmark code.  Child
programs (the offline worker and the traced server launcher) are started
with ``PYTHONPATH=src`` so each one imports the package from source in a
fresh interpreter, which is what set-up time measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Per-run artifacts (result records, span dumps, scratch stores).
OUT_DIR = BENCH_DIR / "out"


def have_sources() -> bool:
    """True when the checkout carries the package the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(SRC)
    )
    return env


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[int(index)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def best_quarter(values: list[float], higher_is_better: bool) -> float:
    """Median of the best quarter of ``values`` (at least one value).

    On a shared host, interference from other tenants only ever slows a
    sample down, and it comes and goes on a scale of seconds; the best
    quarter of many short samples estimates the program's own speed far more
    steadily than the median of all of them, while a change that slows every
    sample still moves it by the same share.
    """
    if not values:
        return 0.0
    ordered = sorted(values, reverse=higher_is_better)
    return statistics.median(ordered[: max(1, -(-len(ordered) // 4))])


def src_digest() -> str:
    """SHA-256 over every file under ``src/`` — identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree
    of its own (``src_digest`` still identifies the code)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def load_average() -> list[float]:
    try:
        return [round(value, 2) for value in os.getloadavg()]
    except OSError:
        return []


def run_context(seed: int) -> dict[str, object]:
    """What every result records about where and on what it ran."""
    return {
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "loadavg_start": load_average(),
    }


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the one result line."""
    print(message, file=sys.stderr, flush=True)
