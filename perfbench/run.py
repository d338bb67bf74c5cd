#!/usr/bin/env python3
"""Benchmark driver for mixedres.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nothing is installed.  With ``--trace 0`` the
run reports the end-to-end metrics of one workload:

- ``setup_s``: median of five set-ups (import mixedres, make the inputs from
  the seed, build models and configs), four of them in fresh interpreters;
- ``pass_s``: median wall time of the passes timed for ``--seconds`` after
  one untimed warm-up pass;
- ``peak_rss_mb``: peak RSS of a fresh interpreter that sets up and runs
  one pass with the malloc mmap threshold pinned (see ``pin_malloc``).

Every op's result is checked against a reference route outside the timed
region.  With ``--trace 1`` the run reports the per-layer metrics of a
separate traced run instead (see ``traced.py``).  Human-readable
lines and a provenance record come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full record,
and in traced runs the spans, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin the BLAS thread pool before anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import ROOT, SRC, Tally, run_pass, timed_setup  # noqa: E402

TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("direct_sweep", "oracle_grid", "alloc_sweep", "monte_carlo")
# Extra set-ups, each in a fresh interpreter, besides the measuring process's own.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
# glibc mallopt parameter and the value pinned in the memory probe.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024
# End-to-end metrics of the result line; pass_s is printed and recorded beside them.
E2E_UNITS = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}
REPORT_UNITS = {**E2E_UNITS, "pass_s": "s"}


class ReferenceWork:
    """Fixed numpy and pure-Python work timed beside every pass.

    It calls no mixedres code, so a change to the library leaves its time
    alone, while load from outside the process slows it much as it slows a
    pass.  On a shared 2-vCPU host that load moved the wall time of one pass
    by up to 2x within a minute; the pass time divided by the reference time
    around it (``pass_ref``) cancels most of that drift.  The work runs in short chunks for
    a share of the last pass's time, and the median chunk time is the
    reference, so a brief stall does not move it.
    """

    MIN_CHUNKS = 5
    SHARE = 0.1

    def __init__(self):
        import numpy as np

        self._np = np
        self._vec = np.random.default_rng(0).uniform(-1.0, 1.0, 50_000)

    def _chunk(self) -> None:
        total = 0
        for i in range(20_000):
            total += i * i % 7
        self._np.arcsin(self._vec).sum()

    def __call__(self, pass_s: float) -> float:
        times = []
        deadline = time.perf_counter() + self.SHARE * pass_s
        while len(times) < self.MIN_CHUNKS or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            self._chunk()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def pin_malloc() -> bool:
    """Fix glibc's mmap threshold so freed large arrays leave the process at once.

    Under glibc's default sliding threshold, the freed memory the heap keeps
    moved the peak RSS of the same direct_sweep pass between 322 and 366 MB
    from run to run; with a fixed threshold the peak follows the live arrays.
    """
    try:
        return ctypes.CDLL("libc.so.6").mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    except (OSError, AttributeError):
        return False


def probe(kind: str, name: str, seed: int, tmp: Path) -> float:
    """Run a set-up or memory probe in a fresh interpreter and return its figure."""
    tmp.mkdir()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", name, "--seed", str(seed), "--tmp", str(tmp)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_probe(kind: str, name: str, seed: int, tmp: Path) -> float:
    """Body of a probe process: set-up time, or peak RSS (MB) after one pass.

    The measuring process checks the same ops, so the probe does not.
    """
    if kind == "setup":
        return timed_setup(name, seed, tmp)[0]
    if not pin_malloc():
        raise RuntimeError("cannot pin the malloc mmap threshold")
    run_pass(timed_setup(name, seed, tmp)[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, tmp: Path):
    """End-to-end run: set-up samples, an untimed warm-up, then timed passes."""
    # Probes run before this process imports anything large: a child's peak
    # RSS starts from the parent's at the time it is spawned.
    setups = [probe("setup", name, seed, tmp / f"setup{i}") for i in range(SETUP_PROBES)]
    peak_rss_mb = probe("memory", name, seed, tmp / "memory")
    setup_s, ops = timed_setup(name, seed, tmp)
    setups.append(setup_s)

    tally = Tally()
    reference = ReferenceWork()
    dt, results = run_pass(ops)
    tally.check_pass(ops, results)
    refs = [reference(dt)]
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        dt, results = run_pass(ops)
        times.append(dt)
        refs.append(reference(dt))
        tally.check_pass(ops, results)
    ratios = [t / ((before + after) / 2.0) for t, before, after in zip(times, refs, refs[1:])]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_ref": statistics.median(ratios),
        "peak_rss_mb": peak_rss_mb,
        "pass_s": statistics.median(times),
    }
    detail = {"setup_samples_s": setups, "pass_times_s": times, "reference_times_s": refs,
              "passes": len(times), "ops_per_pass": len(ops)}
    return metrics, tally, detail


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(name: str, args) -> dict:
    import numpy
    import scipy
    import workloads

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads_pinned": NPROC,
        "memory_probe_mmap_threshold_bytes": MMAP_THRESHOLD_BYTES,
        "git_commit": git_commit(ROOT),
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.WORKLOADS[name].params,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "memory"), default=None, help=argparse.SUPPRESS)
    parser.add_argument("--tmp", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mixedres" / "__init__.py").is_file():
        print(f"perfbench: no mixedres sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print(repr(run_probe(args.probe, args.workload, args.seed, args.tmp)))
        return 0

    tmp = TMP_DIR / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            import traced

            metrics, units, tally, detail = traced.traced_run(args.workload, args.seed, args.seconds, tmp)
        else:
            metrics, tally, detail = measure(args.workload, args.seed, args.seconds, tmp)
            units = REPORT_UNITS
        prov = provenance(args.workload, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "failures": tally.reasons,
        "detail": detail,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    for key, value in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {units[key]}")
    print(f"{args.workload} ops_attempted {tally.attempted} count")
    print(f"{args.workload} ops_failed {tally.failed} count")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: v for k, v in record["metrics"].items() if args.trace or k in E2E_UNITS},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
