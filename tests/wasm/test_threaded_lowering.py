"""The compiled tiers generate every scalar integer operator inline, and a
function is threaded once however many threads make its first call.

Semantics are covered by the differential suites against the
interpreter; these tests pin the shape: an integer operator that starts
calling its :data:`~repro.wasm.ops.BINOPS`/``UNOPS`` function again
fails here instead of only costing time.
"""

import threading

from repro.wasm import (
    F32,
    F64,
    BlockType,
    FuncType,
    I32,
    I64,
    Instance,
    Instr,
    ModuleBuilder,
    thread_function,
    validate_module,
)
from repro.wasm import threaded
from repro.wasm.codegen import compile_module
from repro.wasm.ops import BINOPS, UNOPS

_PARAM = {"i32": 0, "i64": 2, "f32": 4, "f64": 5}

#: Every scalar integer operator, the float → int truncations included;
#: the bit reinterpretations stay calls (they need struct packing).
_INT_BINOPS = sorted(
    op for op in BINOPS if op[:4] in ("i32.", "i64.")
)
_INT_UNOPS = sorted(
    op for op in UNOPS
    if op[:4] in ("i32.", "i64.") and "reinterpret" not in op
)


def _operand(ty: str, k: int = 0) -> Instr:
    return Instr("local.get", (_PARAM[ty] + k,))


def _unop_source(op: str) -> str:
    if op.endswith("wrap_i64"):
        return "i64"
    if "_f32_" in op:
        return "f32"
    if "_f64_" in op:
        return "f64"
    if op.startswith("i64.extend_i32"):
        return "i32"
    return op[:3]


def _all_int_ops_body() -> list:
    """One loop running every integer operator: binops by a variable and
    by a constant right operand (including the trapping 0 and -1)."""
    body = []
    for op in _INT_BINOPS:
        t = op[:3]
        for rhs in ([_operand(t, 1)]
                    + [Instr(f"{t}.const", (k,)) for k in (7, 0, -1, -7)]):
            body += [_operand(t), rhs, Instr(op), Instr("drop")]
    for op in _INT_UNOPS:
        body += [_operand(_unop_source(op)), Instr(op), Instr("drop")]
    return [Instr("block", (BlockType(), [Instr("loop", (BlockType(), body))]))]


def _module(body, results=()):
    builder = ModuleBuilder()
    builder.add_function(
        "f", FuncType((I32, I32, I64, I64, F32, F64), results), [], body,
        export=True,
    )
    module = builder.build()
    validate_module(module)
    return module


def _generated_functions(tc) -> list:
    """Every generated block closure and superblock of ``tc`` (a
    superblock keeps its entry block's closure as ``_orig``)."""
    found = {}
    todo = list(tc.ops)
    while todo:
        fn = todo.pop()
        if id(fn) in found:
            continue
        found[id(fn)] = fn
        todo += [d for d in fn.__defaults__ or ()
                 if getattr(d, "__name__", "").startswith(("_blk", "_sb"))]
    return list(found.values())


def test_integer_ops_bind_no_operator_callables():
    # A bit reinterpretation stays a call: it shows the scan can see one.
    control = [_operand("f64"), Instr("i64.reinterpret_f64"), Instr("drop")]
    module = _module(control + _all_int_ops_body())
    tc = thread_function(compile_module(module)[0], module)
    assert tc.superblocks, "the loop compiles as a superblock"
    generated = _generated_functions(tc)
    assert any(fn.__name__.startswith("_sb") for fn in generated)
    assert any(fn.__name__.startswith("_blk") for fn in generated)
    callables = {id(BINOPS[op]): op for op in _INT_BINOPS}
    callables.update({id(UNOPS[op]): op for op in _INT_UNOPS})
    callables[id(UNOPS["i64.reinterpret_f64"])] = "i64.reinterpret_f64"
    bound = {
        callables[id(d)]
        for fn in generated for d in fn.__defaults__ or ()
        if id(d) in callables
    }
    assert bound == {"i64.reinterpret_f64"}


def test_first_calls_from_many_threads_thread_the_function_once(monkeypatch):
    calls = []
    real = threaded.thread_function

    def counting(fn, module):
        calls.append(fn.name)
        # Hold the first compile open so every thread reaches it.
        threading.Event().wait(0.05)
        return real(fn, module)

    monkeypatch.setattr(threaded, "thread_function", counting)
    module = _module(
        [_operand("i32"), _operand("i32", 1), Instr("i32.rem_s")], (I32,)
    )
    funcs = compile_module(module)  # fresh: not threaded yet
    n = 8
    barrier = threading.Barrier(n)
    results = []

    def first_call():
        inst = Instance(module, validated=True, precompiled=funcs,
                        tier="threaded")
        barrier.wait(timeout=30)
        results.append(inst.invoke("f", 23, 5, 0, 0, 0.0, 0.0))

    workers = [threading.Thread(target=first_call) for _ in range(n)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()
    assert results == [3] * n
    assert calls == ["f"]
    assert funcs[0].threaded is not None
