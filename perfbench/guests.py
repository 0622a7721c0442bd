"""Minilang guests the benchmark uploads, and their Python reference outputs.

Every guest is compiled to ``repro.wasm`` and runs inside a Faaslet; the
host side of the benchmark only generates inputs and checks replies. The
reference functions here mirror each guest's arithmetic exactly (same
operation order; integer formulas stay inside 32 bits), so a reply either
matches bit for bit or counts as a wrong output.
"""

from __future__ import annotations

import struct

from repro.minilang.stdlib import with_stdlib

# ----------------------------------------------------------------------
# serve: classify / lookup / update
# ----------------------------------------------------------------------
MODEL_KEY = "serve/model"
TABLE_KEY = "serve/table"
SLOTS_KEY = "serve/slots"

#: Classifier shape: CLASSES x FEATURES weights followed by CLASSES biases.
CLASSES = 4
FEATURES = 16
MODEL_BYTES = (CLASSES * FEATURES + CLASSES) * 8
#: Lookup table: ROWS rows of ROW_BYTES bytes (1 MiB).
ROW_BYTES = 64
ROWS = 16384
#: Update slots: SLOTS 8-byte cells.
SLOTS = 1024

CLASSIFY_SRC = with_stdlib(
    f"""
// Input: {FEATURES} float64 features. Output "<class>:<trunc(score*1e6)>".
export int main() {{
    int buf = read_input_buffer();
    float[] x = farr(buf);
    float[] w = farr(get_state("{MODEL_KEY}", slen("{MODEL_KEY}"), {MODEL_BYTES}));
    int best = 0;
    float best_s = 0.0;
    for (int c = 0; c < {CLASSES}; c += 1) {{
        float s = w[{CLASSES * FEATURES} + c];
        for (int j = 0; j < {FEATURES}; j += 1) {{
            s += w[c * {FEATURES} + j] * x[j];
        }}
        if (c == 0) {{ best_s = s; }}
        if (s > best_s) {{ best = c; best_s = s; }}
    }}
    int[] out = new int[8];
    int n = itoa(best, ptr(out));
    storeb(ptr(out) + n, 58);
    n = n + 1;
    n = n + itoa((int) (best_s * 1000000.0), ptr(out) + n);
    write_call_output(ptr(out), n);
    return 0;
}}
"""
)

LOOKUP_SRC = with_stdlib(
    f"""
// Input: decimal row index. Output: the {ROW_BYTES}-byte row.
export int main() {{
    int buf = read_input_buffer();
    int row = atoi(buf, input_size());
    int base = get_state_offset("{TABLE_KEY}", slen("{TABLE_KEY}"),
                                row * {ROW_BYTES}, {ROW_BYTES});
    if (base < 0) {{ return 1; }}
    write_call_output(base, {ROW_BYTES});
    return 0;
}}
"""
)

UPDATE_SRC = with_stdlib(
    f"""
// Input: 5-digit slot + decimal value. Writes the value as an 8-byte
// slot, pushes just that slot, and echoes the value.
export int main() {{
    int buf = read_input_buffer();
    int slot = atoi(buf, 5);
    int v = atoi(buf + 5, input_size() - 5);
    long[] cell = new long[1];
    cell[0] = (long) v;
    set_state_offset("{SLOTS_KEY}", slen("{SLOTS_KEY}"), ptr(cell), 8, slot * 8);
    push_state_offset("{SLOTS_KEY}", slen("{SLOTS_KEY}"), slot * 8, 8);
    output_int(v);
    return 0;
}}
"""
)


def classify_input(features) -> bytes:
    return struct.pack(f"<{FEATURES}d", *features)


def classify_reference(model: list[float], features) -> bytes:
    """The classify guest's reply, computed in the guest's operation order."""
    best, best_s = 0, 0.0
    for c in range(CLASSES):
        s = model[CLASSES * FEATURES + c]
        for j in range(FEATURES):
            s += model[c * FEATURES + j] * features[j]
        if c == 0:
            best_s = s
        if s > best_s:
            best, best_s = c, s
    return f"{best}:{int(best_s * 1000000.0)}".encode()


def update_input(slot: int, value: int) -> bytes:
    return f"{slot:05d}{value}".encode()


# ----------------------------------------------------------------------
# train: Listing 1 HOGWILD SGD worker, entirely in the sandbox
# ----------------------------------------------------------------------
X_KEY = "train/X"
Y_KEY = "train/y"
W_KEY = "train/w"

TRAIN_SRC = with_stdlib(
    f"""
// Input: <start:5><end:5><n:5><d:5><lr_micros:7><epochs:3>.
export int main() {{
    int buf = read_input_buffer();
    int start = atoi(buf, 5);
    int end = atoi(buf + 5, 5);
    int n = atoi(buf + 10, 5);
    int d = atoi(buf + 15, 5);
    float lr = (float) atoi(buf + 20, 7) / 1000000.0;
    int epochs = atoi(buf + 27, 3);

    // Each job publishes a fresh dataset: pull it into the host's local
    // tier, then map the replicas. Co-located workers share one weights
    // region and race on it lock-free (HOGWILD).
    pull_state("{X_KEY}", slen("{X_KEY}"));
    pull_state("{Y_KEY}", slen("{Y_KEY}"));
    pull_state("{W_KEY}", slen("{W_KEY}"));
    float[] x = farr(get_state("{X_KEY}", slen("{X_KEY}"), n * d * 8));
    float[] y = farr(get_state("{Y_KEY}", slen("{Y_KEY}"), n * 8));
    float[] w = farr(get_state("{W_KEY}", slen("{W_KEY}"), d * 8));

    for (int e = 0; e < epochs; e += 1) {{
        for (int i = start; i < end; i += 1) {{
            float pred = 0.0;
            int row = i * d;
            for (int j = 0; j < d; j += 1) {{
                pred += w[j] * x[row + j];
            }}
            float err = pred - y[i];
            for (int j = 0; j < d; j += 1) {{
                w[j] -= lr * err * x[row + j];
            }}
        }}
    }}
    push_state("{W_KEY}", slen("{W_KEY}"));
    return 0;
}}
"""
)


def train_input(start: int, end: int, n: int, d: int, lr: float, epochs: int) -> bytes:
    return f"{start:05d}{end:05d}{n:05d}{d:05d}{int(lr * 1e6):07d}{epochs:03d}".encode()


# ----------------------------------------------------------------------
# burst: init-heavy functions whose snapshots share pages
# ----------------------------------------------------------------------
#: Ints per table; two tables per function (512 KiB each).
TABLE_INTS = 131072


def burst_name(k: int) -> str:
    return f"burst_{k}"


def burst_src(k: int) -> str:
    """Function ``k``: ``init`` fills a table identical across functions
    (snapshot pages dedup) and a table private to ``k``; ``main`` replies
    with ``common[i] + private[i]``."""
    return with_stdlib(
        f"""
global int common = 0;
global int private = 0;
global int ready = 0;

export void init() {{
    int[] c = new int[{TABLE_INTS}];
    int[] p = new int[{TABLE_INTS}];
    for (int i = 0; i < {TABLE_INTS}; i += 1) {{
        c[i] = (i * 31 + 12345) % 65521;
        p[i] = (i * {7 * (k + 3)} + {1000 * k}) % 100003;
    }}
    common = ptr(c);
    private = ptr(p);
    ready = 1;
}}

export int main() {{
    if (ready == 0) {{ init(); }}
    int buf = read_input_buffer();
    int i = atoi(buf, input_size());
    int[] c = iarr(common);
    int[] p = iarr(private);
    output_int(c[i] + p[i]);
    return 0;
}}
"""
    )


def burst_reference(k: int, i: int) -> bytes:
    return str((i * 31 + 12345) % 65521 + (i * 7 * (k + 3) + 1000 * k) % 100003).encode()
