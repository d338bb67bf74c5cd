"""Pieces shared by the end-to-end and the traced run: set-up, passes, tallies."""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def check_pass(self, ops, results) -> None:
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                self.record(f"{type(result).__name__}: {result}")
            else:
                self.record(op.check(result))


def import_library():
    """Import mixedres from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mixedres = importlib.import_module("mixedres")
    if Path(mixedres.__file__).resolve().parent != SRC / "mixedres":
        raise ImportError(f"mixedres was imported from outside {SRC}")
    return mixedres


def timed_setup(name: str, seed: int, tmp: Path):
    """Import the library, make the workload's inputs and build its ops."""
    t0 = time.perf_counter()
    import_library()
    import workloads

    ops = workloads.WORKLOADS[name].setup(seed, tmp)
    return time.perf_counter() - t0, ops


def run_pass(ops):
    """Time one pass over the ops; a raised exception becomes the op's result."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # counted as a failed op by the check
            results.append(exc)
    return time.perf_counter() - t0, results
