"""VM microbenchmarks: interpreter throughput and host-interface costs.

Not a paper figure — reference numbers that contextualise the Fig. 9
results: how many guest instructions/second the interpreter sustains, what
one host call costs, and what shared-region mapping costs. These are the
"substrate constants" EXPERIMENTS.md cites when explaining why absolute
Fig. 9 ratios differ from the paper's.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build

SPIN_SRC = """
export int main() {
    int acc = 0;
    for (int i = 0; i < 200000; i += 1) { acc += i; }
    return acc % 1000;
}
"""

HOSTCALL_SRC = """
extern long gettime();
export int main() {
    long t = 0;
    for (int i = 0; i < 5000; i += 1) { t = gettime(); }
    return (int) (t % 1000);
}
"""


def test_interpreter_instruction_throughput(benchmark):
    env = StandaloneEnvironment()
    faaslet = Faaslet(FunctionDefinition.build("spin", build(SPIN_SRC)), env)

    def run():
        return faaslet.invoke_export("main")

    benchmark(run)
    before = faaslet.instance.instructions_executed
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    instructions = faaslet.instance.instructions_executed - before
    rate = instructions / elapsed
    report(
        "vm_throughput",
        "VM substrate constants",
        [
            {
                "metric": "interpreter throughput",
                "value": f"{rate / 1e6:.2f} M instr/s",
            }
        ],
    )
    assert rate > 200_000, "interpreter should sustain >0.2M instr/s"


def test_host_call_cost(benchmark):
    env = StandaloneEnvironment()
    faaslet = Faaslet(FunctionDefinition.build("hc", build(HOSTCALL_SRC)), env)

    start = time.perf_counter()
    faaslet.invoke_export("main")
    elapsed = time.perf_counter() - start
    per_call_us = elapsed / 5000 * 1e6
    benchmark(lambda: faaslet.invoke_export("main"))
    report(
        "vm_hostcall",
        "Host-interface call cost",
        [{"metric": "gettime() round trip", "value": f"{per_call_us:.2f} us"}],
    )
    # Host calls are dynamic-linked thunks, not HTTP: they must be cheap.
    assert per_call_us < 100


def test_shared_region_mapping_cost(benchmark):
    env = StandaloneEnvironment()
    env.state.set_state("big", b"\x00" * (8 * 1024 * 1024))
    definition = FunctionDefinition.build("m", build("export int main() { return 0; }"))

    def map_once():
        faaslet = Faaslet(definition, env)
        return faaslet.map_state_region("big", None)

    benchmark(map_once)
    start = time.perf_counter()
    for _ in range(50):
        map_once()
    per_map_us = (time.perf_counter() - start) / 50 * 1e6
    report(
        "vm_mapping",
        "Shared-region mapping cost (8 MiB value)",
        [{"metric": "create Faaslet + map region", "value": f"{per_map_us:.0f} us"}],
    )
    # Mapping is page-table aliasing, not copying: far below a copy's cost.
    copy_time = _copy_cost_us(8 * 1024 * 1024)
    assert per_map_us < copy_time * 5  # generous bound vs memcpy of the value


def _copy_cost_us(nbytes: int) -> float:
    src = bytes(nbytes)
    start = time.perf_counter()
    bytearray(src)
    return (time.perf_counter() - start) * 1e6


# ----------------------------------------------------------------------
# Execution tiers: closure-threaded code vs the reference interpreter
# ----------------------------------------------------------------------

#: Relative floors enforced by the tier-1 smoke guards
#: (tests/wasm/test_tier_smoke.py reads them from the results JSON): the
#: per-block closures, and the superblocks, each against the interpreter.
SMOKE_FLOOR = 2.0
SUPERBLOCK_SMOKE_FLOOR = 6.0

#: Geomean Polybench speedup the per-block closures must deliver.
GEOMEAN_TARGET = 3.0

#: A fuel budget no kernel exhausts: metering it makes the threaded tier
#: run its per-block closures instead of the superblocks.
METERED = 10**15


def _time_kernel(module, tier: str, n: int, fuel=None) -> tuple[float, int, object]:
    from repro.wasm import instantiate

    inst = instantiate(module, tier=tier, fuel=fuel)
    inst.invoke("kernel", 4)  # warm-up: triggers lazy threading
    before = inst.instructions_executed
    start = time.perf_counter()
    result = inst.invoke("kernel", n)
    elapsed = time.perf_counter() - start
    return elapsed, inst.instructions_executed - before, result


def _geomean(values) -> float:
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_tiered_throughput_polybench():
    """Polybench on every execution path: the interpreter, the per-block
    closures (metered fuel) and the superblocks (unmetered, the runtime
    default). Records per-kernel speedups and the geomeans for
    EXPERIMENTS.md; the per-block geomean must meet the ≥3× target."""
    from repro.apps.kernels import KERNELS

    rows = []
    block_speedups = []
    sb_speedups = []
    for name in sorted(KERNELS):
        kernel = KERNELS[name]
        module = build(kernel.source)
        n = kernel.default_n
        t_interp, instrs, r_interp = _time_kernel(module, "interp", n)
        t_block, instrs_b, r_block = _time_kernel(module, "threaded", n, METERED)
        t_sb, instrs_s, r_sb = _time_kernel(module, "threaded", n)
        assert r_block == r_interp == r_sb, f"{name}: tier results diverge"
        assert instrs_b == instrs == instrs_s, f"{name}: instruction counts diverge"
        block_speedups.append(t_interp / t_block)
        sb_speedups.append(t_interp / t_sb)
        rows.append(
            {
                "kernel": name,
                "interp_ms": round(t_interp * 1e3, 2),
                "threaded_ms": round(t_block * 1e3, 2),
                "superblock_ms": round(t_sb * 1e3, 2),
                "interp_mips": round(instrs / t_interp / 1e6, 2),
                "threaded_mips": round(instrs / t_block / 1e6, 2),
                "superblock_mips": round(instrs / t_sb / 1e6, 2),
                "speedup": round(block_speedups[-1], 2),
                "superblock_speedup": round(sb_speedups[-1], 2),
            }
        )
    geomean = _geomean(block_speedups)
    sb_geomean = _geomean(sb_speedups)
    rows.append(
        {
            "kernel": "geomean",
            "speedup": round(geomean, 2),
            "superblock_speedup": round(sb_geomean, 2),
            "superblock_over_blocks": round(sb_geomean / geomean, 2),
            "smoke_floor": SMOKE_FLOOR,
            "superblock_smoke_floor": SUPERBLOCK_SMOKE_FLOOR,
        }
    )
    report("vm_throughput_tiered", "Execution tiers: Polybench", rows)
    assert geomean >= GEOMEAN_TARGET, (
        f"threaded tier geomean speedup {geomean:.2f}x below "
        f"{GEOMEAN_TARGET}x target"
    )
    assert sb_geomean > geomean, (
        f"superblocks ({sb_geomean:.2f}x) not faster than the per-block "
        f"closures ({geomean:.2f}x)"
    )


if __name__ == "__main__":  # pragma: no cover
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the fast tier-regression guard (the tier-1 smoke "
        "marker) instead of the full benchmark suite",
    )
    opts = parser.parse_args()
    if opts.smoke:
        target = ["-m", "smoke", "tests/wasm/test_tier_smoke.py"]
    else:
        target = [__file__]
    raise SystemExit(pytest.main(["-x", "-q", "-s", *target]))
