"""Dirty-page tracking and copy-on-write under superblocks.

Unmetered Faaslets run call-free loop nests as superblocks. Their inline
store fast path only writes pages that are already writable; a store to a
write-protected shared page or to a copy-on-write private page falls back
to the typed accessor, which faults the page exactly as before. These
tests pin that down against the per-block closures (metered fuel) and the
reference interpreter: the same dirty ranges, the same pushed bytes and
round trips, the same copy-on-write faults, and frozen snapshot pages
left untouched.
"""

import pytest

from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.minilang.stdlib import with_stdlib

#: (tier, fuel): reference interpreter, per-block closures, superblocks.
MODES = [("interp", None), ("threaded", 10**12), ("threaded", None)]

#: Weights span three pages (160000 bytes); rows write page 0 (w[0..16))
#: and page 2 (w[16384 + i]) and leave page 1 clean.
D = 20000
N = 64

HOGWILD_SRC = with_stdlib(
    f"""
export int main() {{
    int buf = read_input_buffer();
    int start = atoi(buf, 5);
    int end = atoi(buf + 5, 5);
    float[] x = farr(get_state("x", slen("x"), {N * 8}));
    float[] w = farr(get_state("w", slen("w"), {D * 8}));
    for (int i = start; i < end; i += 1) {{
        float pred = 0.0;
        for (int j = 0; j < 16; j += 1) {{ pred += w[j] * x[(i + j) % {N}]; }}
        float err = pred - 1.0;
        for (int j = 0; j < 16; j += 1) {{ w[j] -= 0.05 * err * x[(i + j) % {N}]; }}
        w[16384 + i] = pred;
    }}
    push_state("w", slen("w"));
    return 0;
}}
"""
)


def _hogwild_run(tier, fuel, monkeypatch):
    """Two co-located workers share the weights replica and push in turn;
    the second run of the first worker re-faults the re-protected pages."""
    env = StandaloneEnvironment()
    env.global_state.set_value("x", bytes(range(N)) * 8)
    env.global_state.set_value("w", bytes(D * 8))
    client = env.state.tier.client
    pushed = []
    original = client.push_ranges_versioned

    def spy(key, parts, **kwargs):
        pushed.append((key, [(s, len(view)) for s, view in parts]))
        return original(key, parts, **kwargs)

    monkeypatch.setattr(client, "push_ranges_versioned", spy)
    client.meter.reset()
    definition = FunctionDefinition.build("worker", build(HOGWILD_SRC))
    workers = [Faaslet(definition, env, fuel=fuel, tier=tier) for _ in range(2)]
    codes = []
    for faaslet, rows in ((workers[0], (0, 8)), (workers[1], (8, 20)),
                          (workers[0], (20, 32))):
        code, _ = faaslet.call(f"{rows[0]:05d}{rows[1]:05d}".encode())
        codes.append(code)
    return {
        "codes": codes,
        "pushed": pushed,
        "sent_bytes": client.meter.sent_bytes,
        "round_trips": client.meter.round_trips,
        "w": env.global_state.get_value("w"),
        "instructions": [f.instance.instructions_executed for f in workers],
    }


def test_hogwild_dirty_pages_match_per_block_path(monkeypatch):
    runs = [_hogwild_run(tier, fuel, monkeypatch) for tier, fuel in MODES]
    assert runs[0]["codes"] == [0, 0, 0]
    # Every push ships the two written pages (the last one clipped to the
    # value size), never the clean middle page.
    assert runs[0]["pushed"] == [("w", [(0, 65536), (131072, D * 8 - 131072)])] * 3
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


COW_SRC = """
global int table = 0;

export void init() {
    float[] t = new float[20000];
    for (int i = 0; i < 20000; i += 1) { t[i] = (float) i; }
    table = ptr(t);
}

export int main() {
    float[] t = farr(table);
    float acc = 0.0;
    for (int i = 0; i < 20000; i += 7) {
        t[i] = t[i] * 2.0 + 1.0;
        acc += t[i];
    }
    return (int) acc;
}
"""


def _cow_run(proto, env, tier, fuel):
    faaslet = proto.restore(env, fuel=fuel, tier=tier)
    code, _ = faaslet.call()
    mem = faaslet.instance.memory
    return {
        "code": code,
        "cow_faults": mem.cow_faults,
        "memory": mem.read(0, mem.size_bytes),
        "instructions": faaslet.instance.instructions_executed,
    }


@pytest.mark.parametrize("tier,fuel", MODES[1:])
def test_cow_private_pages_match_interpreter(tier, fuel):
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build("cow", build(COW_SRC))
    proto = ProtoFaaslet.capture(definition, env, init="init")
    reference = _cow_run(proto, env, "interp", None)
    assert reference["cow_faults"] >= 3  # the table spans three pages
    assert _cow_run(proto, env, tier, fuel) == reference
    # The stores landed in private copies: a later restore still sees the
    # snapshot's pristine table.
    assert _cow_run(proto, env, "interp", None) == reference
