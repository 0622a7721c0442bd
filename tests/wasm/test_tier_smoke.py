"""Tier-1 regression guard for the closure-threaded execution tier.

The full tiered benchmark (``benchmarks/bench_vm_throughput.py``) measures
Polybench at real problem sizes; these smoke tests are its fast tier-1
proxy: they measure the threaded tier's speedup over the reference
interpreter on one loop-dense kernel, once through the per-block closures
(metered fuel) and once through the superblocks (unmetered, the runtime
default), and fail if either drops below its floor stored in
``benchmarks/results/vm_throughput_tiered.json``. The floors are
*relative* (threaded vs interp on the same machine, same run), so the
guard is insensitive to host speed but catches regressions that
de-optimise the threaded tier — a botched fusion rule, accidental
slow-path fallbacks, superblocks no longer formed, lost code-cache
sharing.

Run just this guard with ``python benchmarks/bench_vm_throughput.py
--smoke`` or ``pytest -m smoke``.
"""

import json
import pathlib
import time

import pytest

from repro.minilang import build
from repro.wasm import instantiate

_RESULTS = (
    pathlib.Path(__file__).parents[2]
    / "benchmarks"
    / "results"
    / "vm_throughput_tiered.json"
)

#: Used when the results file is missing (fresh checkout, no bench run).
_DEFAULT_FLOORS = {"smoke_floor": 2.0, "superblock_smoke_floor": 6.0}

#: A fuel budget the kernel never exhausts: metering it runs the per-block
#: closures instead of the superblocks.
_METERED = 10**15

_KERNEL_SRC = """
export float kernel(int n) {
    float[] a = new float[n];
    for (int i = 0; i < n; i = i + 1) {
        a[i] = (float) (i % 17) / 17.0;
    }
    float acc = 0.0;
    for (int rep = 0; rep < 40; rep = rep + 1) {
        for (int i = 1; i < n - 1; i = i + 1) {
            a[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
        }
        acc = acc + a[n / 2];
    }
    return acc;
}
"""


def _stored_floor(key: str) -> float:
    if not _RESULTS.exists():
        return _DEFAULT_FLOORS[key]
    rows = json.loads(_RESULTS.read_text())
    for row in rows:
        if key in row:
            return float(row[key])
    return _DEFAULT_FLOORS[key]


def _time_tier(module, tier: str, n: int, fuel=None) -> tuple[float, int, float]:
    inst = instantiate(module, tier=tier, fuel=fuel)
    inst.invoke("kernel", 8)  # warm-up: lazy threading, allocator paths
    before = inst.instructions_executed
    start = time.perf_counter()
    result = inst.invoke("kernel", n)
    elapsed = time.perf_counter() - start
    return elapsed, inst.instructions_executed - before, result


def _assert_speedup_floor(fuel, key: str, what: str) -> None:
    module = build(_KERNEL_SRC)
    n = 600
    t_interp, instrs_i, r_interp = _time_tier(module, "interp", n)
    t_threaded, instrs_t, r_threaded = _time_tier(module, "threaded", n, fuel)
    # Semantics first: the guard is meaningless if the tiers diverge.
    assert r_threaded == r_interp
    assert instrs_t == instrs_i
    speedup = t_interp / t_threaded
    floor = _stored_floor(key)
    assert speedup >= floor, (
        f"{what} speedup {speedup:.2f}x fell below the stored "
        f"floor {floor}x (interp {t_interp * 1e3:.1f} ms, "
        f"threaded {t_threaded * 1e3:.1f} ms, {instrs_i:,} instructions)"
    )


@pytest.mark.smoke
def test_threaded_tier_speedup_floor():
    _assert_speedup_floor(_METERED, "smoke_floor", "per-block closure")


@pytest.mark.smoke
def test_superblock_speedup_floor():
    _assert_speedup_floor(None, "superblock_smoke_floor", "superblock")
