"""The guest heap never hands out pages the host mapped into memory.

A warm Faaslet's bump allocator keeps growing across calls, and mapped
shared state (``get_state``) appends pages to the same linear memory. The
allocator tracks the end of the pages it grew itself, so once the heap
reaches a mapped region it continues on fresh pages past it instead of
overwriting the host's local-tier replica.
"""

import struct

from repro.minilang.stdlib import with_stdlib
from repro.runtime import FaasmCluster

PROBE_SRC = with_stdlib(
    """
export int main() {
    int[] scratch = new int[32];          // 128 bytes of heap per call
    for (int i = 0; i < 32; i += 1) { scratch[i] = 1; }
    int[] v = iarr(get_state("k", slen("k"), 8));
    output_int(v[0]);
    return 0;
}
"""
)

CLASSES, FEATURES = 4, 16

CLASSIFY_SRC = with_stdlib(
    f"""
export int main() {{
    int buf = read_input_buffer();
    float[] x = farr(buf);
    float[] w = farr(get_state("model", slen("model"), {(CLASSES * FEATURES + CLASSES) * 8}));
    int best = 0;
    float best_s = 0.0;
    for (int c = 0; c < {CLASSES}; c += 1) {{
        float s = w[{CLASSES * FEATURES} + c];
        for (int j = 0; j < {FEATURES}; j += 1) {{ s += w[c * {FEATURES} + j] * x[j]; }}
        if (c == 0) {{ best_s = s; }}
        if (s > best_s) {{ best = c; best_s = s; }}
    }}
    output_int(best);
    return 0;
}}
"""
)


def _replica(cluster, key, size):
    return cluster.instances[0].local_tier.read_local(key, 0, size)


def test_warm_heap_never_overwrites_mapped_state():
    cluster = FaasmCluster(n_hosts=1, capacity=1)
    try:
        cluster.upload("probe", PROBE_SRC)
        cluster.global_state.set_value("k", (7).to_bytes(8, "little"))
        # 5000 calls walk the heap across many pages and past the mapping.
        for call in range(5000):
            code, out = cluster.invoke("probe")
            assert (code, out) == (0, b"7"), f"call {call}"
        assert _replica(cluster, "k", 8) == cluster.global_state.get_value("k")
    finally:
        cluster.shutdown()


def test_classify_on_mapped_model_stays_correct():
    weights = [((c * 7 + j * 3) % 11 - 5) / 4.0 for c in range(CLASSES)
               for j in range(FEATURES)]
    biases = [0.5, -0.25, 0.0, 0.125]
    model = struct.pack(f"<{len(weights) + CLASSES}d", *weights, *biases)
    cluster = FaasmCluster(n_hosts=1, capacity=1)
    try:
        cluster.upload("classify", CLASSIFY_SRC)
        cluster.global_state.set_value("model", model)
        for call in range(1200):
            x = [((call * 13 + j * 5) % 17 - 8) / 8.0 for j in range(FEATURES)]
            best, best_s = 0, 0.0
            for c in range(CLASSES):  # the guest's operation order
                s = biases[c]
                for j in range(FEATURES):
                    s += weights[c * FEATURES + j] * x[j]
                if c == 0 or s > best_s:
                    best, best_s = c, s
            code, out = cluster.invoke("classify", struct.pack(f"<{FEATURES}d", *x))
            assert (code, out) == (0, str(best).encode()), f"call {call}"
        assert _replica(cluster, "model", len(model)) == model
    finally:
        cluster.shutdown()
