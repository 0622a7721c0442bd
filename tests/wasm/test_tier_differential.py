"""Differential testing: the threaded tier against the reference interpreter.

The closure-threaded tier (``repro.wasm.threaded``) is an aggressive
compiler — expression folding, block-level fuel batching, inlined operator
templates — and the flat tuple interpreter is retained precisely to serve
as its semantics oracle. These tests run the same programs on both tiers
and require *observational equality*: results, trap types, final linear
memory, globals, remaining fuel and ``instructions_executed`` must all
match, including on every early-exit path a fuel limit can produce.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.kernels import KERNELS
from repro.minilang import build
from repro.wasm import (
    BlockType,
    F64,
    FuncType,
    HostFunc,
    I32,
    I64,
    Instr,
    ModuleBuilder,
    OutOfFuel,
    Trap,
    ValidationError,
    instantiate,
    thread_function,
    validate_module,
)
from repro.wasm.codegen import compile_module

# ----------------------------------------------------------------------
# Random-program generator (superset of the soundness-fuzz pool: adds the
# ops the threaded tier handles specially — trapping integer division,
# conversions, rotates, float templates, br_table and call_indirect).
# ----------------------------------------------------------------------

_SIMPLE_OPS = [
    "i32.add", "i32.sub", "i32.mul", "i32.div_s", "i32.div_u", "i32.rem_s",
    "i32.rem_u", "i32.and", "i32.or", "i32.xor", "i32.shl", "i32.shr_s",
    "i32.shr_u", "i32.rotl", "i32.rotr", "i32.clz", "i32.ctz", "i32.popcnt",
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.ge_u",
    "i32.eqz",
    "f64.add", "f64.sub", "f64.mul", "f64.div", "f64.sqrt", "f64.abs",
    "f64.neg", "f64.min", "f64.max", "f64.floor", "f64.lt", "f64.eq",
    "i32.trunc_f64_s", "i32.trunc_f64_u", "f64.convert_i32_s",
    "f64.convert_i32_u", "i64.extend_i32_u", "i64.extend_i32_s",
    "i32.wrap_i64",
    "drop", "select", "nop", "unreachable", "return",
    "memory.size", "memory.grow",
    "i32.load", "i32.store", "f64.load", "f64.store", "i32.load8_u",
    "i32.load8_s", "i32.load16_u", "i32.store8", "i32.store16",
]

_instr = st.one_of(
    st.sampled_from(_SIMPLE_OPS).map(
        lambda op: Instr(op, (0,)) if "load" in op or "store" in op else Instr(op)
    ),
    st.integers(-10, 2**33).map(lambda v: Instr("i32.const", (v,))),
    st.floats(allow_nan=False).map(lambda v: Instr("f64.const", (v,))),
    st.integers(0, 4).map(lambda i: Instr("local.get", (i,))),
    st.integers(0, 4).map(lambda i: Instr("local.set", (i,))),
    st.integers(0, 4).map(lambda i: Instr("local.tee", (i,))),
    st.integers(0, 2).map(lambda i: Instr("global.get", (i,))),
    st.integers(0, 2).map(lambda i: Instr("global.set", (i,))),
    st.integers(0, 3).map(lambda d: Instr("br", (d,))),
    st.integers(0, 3).map(lambda d: Instr("br_if", (d,))),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
        lambda ds: Instr("br_table", (tuple(ds[:-1]), ds[-1]))
    ),
    st.integers(0, 2).map(lambda f: Instr("call", (f,))),
    st.just(Instr("call_indirect", (FuncType((I32,), (I32,)),))),
)


def _blocks(children):
    return st.one_of(
        st.tuples(
            st.sampled_from(["block", "loop"]), st.lists(children, max_size=5)
        ).map(lambda t: Instr(t[0], (BlockType(), t[1]))),
        st.tuples(st.lists(children, max_size=4), st.lists(children, max_size=4)).map(
            lambda t: Instr("if", (BlockType(), t[0], t[1]))
        ),
    )


_body = st.recursive(_instr, _blocks, max_leaves=25)


def _build_module(body, results):
    builder = ModuleBuilder()
    builder.add_memory(1, 2)
    builder.add_global(I32, 0, mutable=True)
    builder.add_global(F64, 1.5, mutable=True)
    helper = builder.add_function(
        "helper", FuncType((I32,), (I32,)), [], [Instr("local.get", (0,))]
    )
    builder.add_function(
        "fuzz", FuncType((I32, I32), tuple(results)), [I32, F64], body, export=True
    )
    builder.add_table(2)
    builder.add_element(0, [helper])
    module = builder.build()
    try:
        validate_module(module)
    except ValidationError:
        return None
    return module


def _observe(module, tier, fuel):
    """Run ``fuzz`` on one tier; return every observable the guest has."""
    inst = instantiate(module, validated=True, fuel=fuel, tier=tier)
    try:
        outcome = ("ok", inst.invoke("fuzz", 7, -3))
    except Trap as trap:
        outcome = ("trap", type(trap).__name__)
    memory = inst.memory.read(0, inst.memory.size_bytes) if inst.memory else b""
    return {
        "outcome": outcome,
        "memory": memory,
        "globals": [g.value for g in inst.globals],
        "fuel": inst.fuel,
        "executed": inst.instructions_executed,
    }


def _assert_tiers_agree(module, fuel):
    interp = _observe(module, "interp", fuel)
    threaded = _observe(module, "threaded", fuel)
    assert threaded == interp
    return interp


#: Fuel budget that decides whether a random program terminates. The
#: generator can build non-terminating programs (``(loop (br 0))``), which
#: never return when run unmetered, so only programs that finish within
#: this budget are also compared without a fuel limit, and the fuel sweep
#: takes its baseline under it.
_TERMINATION_FUEL = 50_000


def _terminates(observation) -> bool:
    return observation["outcome"] != ("trap", "OutOfFuel")


_SPIN = [Instr("loop", (BlockType(), [Instr("br", (0,))]))]


@given(st.lists(_body, max_size=15), st.sampled_from([(), (I32,)]))
@example(_SPIN, ())
@settings(max_examples=250, deadline=None)
def test_random_programs_observationally_equal(body, results):
    module = _build_module(body, results)
    if module is None:
        return  # validator rejected: nothing to compare
    metered = _assert_tiers_agree(module, fuel=_TERMINATION_FUEL)
    if _terminates(metered):
        _assert_tiers_agree(module, fuel=None)


@given(st.lists(_body, max_size=15), st.sampled_from([(), (I32,)]))
@example(_SPIN, ())
@settings(max_examples=60, deadline=None)
def test_random_programs_fuel_sweep(body, results):
    """Every fuel limit — including ones that cut execution mid-block —
    must leave both tiers in byte-identical states."""
    module = _build_module(body, results)
    if module is None:
        return
    baseline = _observe(module, "interp", _TERMINATION_FUEL)
    n = baseline["executed"]
    limits = sorted({0, 1, 2, 3, n // 3, n // 2, max(n - 1, 0), n, n + 1})
    for fuel in limits:
        _assert_tiers_agree(module, fuel)


# ----------------------------------------------------------------------
# Call-free loop nests: the superblock path of the threaded tier
# ----------------------------------------------------------------------

#: Locals of the loop-nest programs: two i32 params, one loop counter per
#: nesting level, then i32 / i64 / f64 accumulators.
_COUNTERS = 2
_MAX_LEVEL = 3
_X, _Y, _F = 5, 6, 7

#: Bases at and around the first page edge (accesses straddle it), and
#: around the end of memory (2 pages, 3 after a successful grow), where
#: accesses trap out of bounds.
_EDGE_BASES = [0, 8, 65472, 65520, 65528, 65529, 65530, 65532, 65533, 65535, 65536]
_END_BASES = [131000, 131064, 131068, 131072, 196600, 196608]
_bases = st.one_of(
    st.sampled_from(_EDGE_BASES), st.sampled_from(_EDGE_BASES),
    st.sampled_from(_EDGE_BASES), st.sampled_from(_END_BASES),
)


def _addr(draw, level):
    out = [Instr("i32.const", (draw(_bases),))]
    if level and draw(st.booleans()):
        k = draw(st.integers(0, level - 1))
        out += [
            Instr("local.get", (_COUNTERS + k,)),
            Instr("i32.const", (draw(st.sampled_from([1, 3, 4, 8])),)),
            Instr("i32.mul"),
            Instr("i32.add"),
        ]
    return out


def _mem_stmt(draw, level):
    off = (draw(st.sampled_from([0, 4, 8])),)
    addr = _addr(draw, level)
    kind = draw(st.sampled_from(["i32", "i64", "f64", "f32", "i32.8"]))
    if draw(st.booleans()):  # store
        value, op = {
            "i32": ([Instr("local.get", (_X,))], "i32.store"),
            "i64": ([Instr("local.get", (_Y,))], "i64.store"),
            "f64": ([Instr("local.get", (_F,))], "f64.store"),
            "f32": ([Instr("f32.const", (draw(st.floats(-1e3, 1e3)),))], "f32.store"),
            "i32.8": ([Instr("local.get", (_X,))], "i32.store8"),
        }[kind]
        return addr + value + [Instr(op, off)]
    acc, load, combine = {
        "i32": (_X, ["i32.load"], "i32.add"),
        "i64": (_Y, ["i64.load"], "i64.xor"),
        "f64": (_F, ["f64.load"], "f64.add"),
        "f32": (_F, ["f32.load", "f64.promote_f32"], "f64.add"),
        "i32.8": (_X, ["i32.load8_s"], "i32.xor"),
    }[kind]
    return (
        [Instr("local.get", (acc,))] + addr + [Instr(load[0], off)]
        + [Instr(op) for op in load[1:]]
        + [Instr(combine), Instr("local.set", (acc,))]
    )


def _counter_is(draw, level):
    k = draw(st.integers(0, level - 1))
    return [
        Instr("local.get", (_COUNTERS + k,)),
        Instr("i32.const", (draw(st.integers(0, 3)),)),
        Instr("i32.eq"),
    ]


def _exit_stmt(draw, labels, level):
    """Leave to any enclosing label, the function included, when a counter
    hits a value: ``br_if`` for labels without a value, else ``if ... br``
    (or ``return``) carrying the i32 accumulator."""
    kinds = tuple(reversed(labels))  # depth 0 is the innermost label
    d = draw(st.integers(0, len(kinds)))  # len(kinds): the function
    cond = _counter_is(draw, level)
    carries = d == len(kinds) or kinds[d] == "value"
    if not carries and draw(st.booleans()):
        return cond + [Instr("br_if", (d,))]
    jump = [Instr("local.get", (_X,))] if carries else []
    if carries and draw(st.booleans()):
        jump.append(Instr("return"))
    else:
        jump.append(Instr("br", (d + 1,)))  # + 1: from inside the `if`
    return cond + [Instr("if", (BlockType(), jump, []))]


def _loop_nest(draw, labels, level):
    """A counted loop; the counter decrements at the head, so ``br`` to
    the loop (continue) always makes progress."""
    c = _COUNTERS + level
    inner = labels + ("block", "loop")
    body = [
        Instr("local.get", (c,)),
        Instr("i32.eqz"),
        Instr("br_if", (1,)),
        Instr("local.get", (c,)),
        Instr("i32.const", (1,)),
        Instr("i32.sub"),
        Instr("local.set", (c,)),
        *_stmts(draw, inner, level + 1),
    ]
    if level + 1 < _MAX_LEVEL and draw(st.booleans()):
        body += _loop_nest(draw, inner, level + 1) + _stmts(draw, inner, level + 1)
    if draw(st.booleans()):
        body.append(Instr("br", (0,)))
    else:  # loop while the counter is non-zero, leaving through the end
        body += [Instr("local.get", (c,)), Instr("br_if", (0,))]
    return [
        Instr("i32.const", (draw(st.integers(0, 8)),)),
        Instr("local.set", (c,)),
        Instr("block", (BlockType(), [Instr("loop", (BlockType(), body))])),
    ]


_ARITH_BINOPS = ["add", "mul", "xor", "rotl", "rotr", "shr_s",
                 "div_s", "div_u", "rem_s", "rem_u"]
_ARITH_UNOPS = ["clz", "ctz", "popcnt"]
#: Constant right operands at the edges of division: 0 traps, -1 traps
#: ``div_s`` of INT_MIN, INT_MIN divides only itself.
_EDGE_DIVISORS = {
    "i32": [0, 1, -1, 10, 65521, -(2**31)],
    "i64": [0, 1, -1, 10, 65521, -(2**63)],
}


def _arith_stmt(draw, level):
    """Update the i32 (``_X``) or i64 (``_Y``) accumulator with an integer
    operator whose right operand is an edge constant or a loop counter.
    A counter reaches 0 on its loop's last iteration, where division
    traps, optionally after storing the accumulator in the same
    iteration."""
    t = draw(st.sampled_from(["i32", "i64"]))
    acc = _X if t == "i32" else _Y
    op = draw(st.sampled_from(_ARITH_BINOPS + _ARITH_UNOPS))
    if op in _ARITH_UNOPS:
        update = [Instr("local.get", (acc,)), Instr(f"{t}.{op}"),
                  Instr("local.get", (acc,)), Instr(f"{t}.add")]
    else:
        pre = []
        if draw(st.booleans()):
            rhs = [Instr(f"{t}.const", (draw(st.sampled_from(_EDGE_DIVISORS[t])),))]
        else:
            src = (_COUNTERS + draw(st.integers(0, level - 1)) if level
                   else draw(st.sampled_from([0, 1])))
            rhs = [Instr("local.get", (src,))]
            if t == "i64":
                rhs.append(Instr("i64.extend_i32_s"))
            if draw(st.booleans()):
                pre = [Instr("i32.const", (16,)), Instr("local.get", (acc,)),
                       Instr(f"{t}.store", (0,))]
        update = pre + [Instr("local.get", (acc,))] + rhs + [Instr(f"{t}.{op}")]
    if t == "i64":
        return update + [Instr("local.set", (_Y,))]
    return update + [
        Instr("local.tee", (_X,)),
        Instr("i64.extend_i32_u"),
        Instr("local.get", (_Y,)),
        Instr("i64.add"),
        Instr("local.set", (_Y,)),
    ]


def _stmt(draw, labels, level):
    choices = ["mem", "mem", "arith", "global", "grow", "if"]
    if level:
        choices += ["exit", "exit", "exit", "trap"]
    if level < _MAX_LEVEL:
        choices += ["loop", "loop"]
    kind = draw(st.sampled_from(choices))
    if kind == "mem":
        return _mem_stmt(draw, level)
    if kind == "arith":
        return _arith_stmt(draw, level)
    if kind == "global":
        return [
            Instr("global.get", (0,)),
            Instr("local.get", (_X,)),
            Instr("i32.add"),
            Instr("global.set", (0,)),
        ]
    if kind == "grow":
        # Grow (fails past the maximum), then store at the new last word:
        # the inline fast path must see the pages memory.grow added.
        return [
            Instr("i32.const", (1,)),
            Instr("memory.grow"),
            Instr("local.get", (_X,)),
            Instr("i32.add"),
            Instr("local.set", (_X,)),
            Instr("memory.size"),
            Instr("i32.const", (16,)),
            Instr("i32.shl"),
            Instr("i32.const", (8,)),
            Instr("i32.sub"),
            Instr("local.get", (_Y,)),
            Instr("i64.store", (0,)),
        ]
    if kind == "if":
        cond = _counter_is(draw, level) if level else [Instr("local.get", (_X,))]
        inner = labels + ("if",)
        return cond + [
            Instr("if", (BlockType(), _stmts(draw, inner, level),
                         _stmts(draw, inner, level)))
        ]
    if kind == "exit":
        return _exit_stmt(draw, labels, level)
    if kind == "trap":  # traps on the loop's last iteration
        k = _COUNTERS + draw(st.integers(0, level - 1))
        if draw(st.booleans()):
            return [
                Instr("local.get", (k,)),
                Instr("i32.eqz"),
                Instr("if", (BlockType(), [Instr("unreachable")], [])),
            ]
        return [
            Instr("i32.const", (1000,)),
            Instr("local.get", (k,)),
            Instr("i32.div_u"),
            Instr("local.set", (_X,)),
        ]
    return _loop_nest(draw, labels, level)


def _stmts(draw, labels, level):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        out += _stmt(draw, labels, level)
    return out


@st.composite
def _loop_programs(draw):
    """A function body whose loop nests are call-free. The nests sit in a
    void block (exit target) inside an i32 block (exit target carrying a
    value); with a leading call the outer blocks stay per-block code and
    every nest is a superblock exiting to labels outside itself."""
    labels = ("value", "exit")
    inner = _loop_nest(draw, labels, 0) + _stmts(draw, labels, 0)
    if draw(st.booleans()):
        inner = [Instr("i32.const", (5,)), Instr("call", (0,)), Instr("drop")] + inner
    # Code between the two labels' ends, so exits to the wrong one show.
    count = [
        Instr("global.get", (0,)),
        Instr("i32.const", (1,)),
        Instr("i32.add"),
        Instr("global.set", (0,)),
    ]
    return [
        Instr(
            "block",
            (
                BlockType((), (I32,)),
                [Instr("block", (BlockType(), inner)), *count,
                 Instr("local.get", (_X,))],
            ),
        ),
        Instr("local.get", (_Y,)),
        Instr("i32.wrap_i64"),
        Instr("i32.add"),
    ]


def _build_loop_module(body):
    builder = ModuleBuilder()
    builder.add_memory(2, 3)
    builder.add_global(I32, 0, mutable=True)
    builder.add_function(
        "helper", FuncType((I32,), (I32,)), [], [Instr("local.get", (0,))]
    )
    builder.add_function(
        "fuzz", FuncType((I32, I32), (I32,)),
        [I32] * _MAX_LEVEL + [I32, I64, F64], body, export=True,
    )
    module = builder.build()
    validate_module(module)  # the generator only builds valid programs
    return module


def _superblocks(module):
    fuzz = compile_module(module)[1]
    return thread_function(fuzz, module).superblocks


@given(_loop_programs())
@settings(deadline=None)
def test_loop_nests_observationally_equal(body):
    """Unmetered runs take the superblocks; results, traps, memory,
    globals and ``instructions_executed`` must match the interpreter."""
    module = _build_loop_module(body)
    assert _superblocks(module), "every generated loop nest is eligible"
    _assert_tiers_agree(module, fuel=None)


@given(_loop_programs())
@settings(deadline=None)
def test_loop_nests_fuel_sweep(body):
    """Metered runs fall back to the per-block closures inside the same
    regions: OutOfFuel must fire at the same instruction as in interp."""
    module = _build_loop_module(body)
    n = _observe(module, "interp", None)["executed"]
    for fuel in sorted({0, 1, 5, n // 3, n // 2, max(n - 1, 0), n, n + 1}):
        _assert_tiers_agree(module, fuel)


def test_too_deeply_nested_loop_keeps_per_block_closures():
    """A nest deeper than Python can express stays per-block code."""
    inner = [Instr("local.get", (_X,)), Instr("i32.const", (1,)), Instr("i32.add"),
             Instr("local.set", (_X,))]
    for _ in range(120):
        inner = [Instr("local.get", (0,)), Instr("if", (BlockType(), inner, []))]
    body = [
        Instr("i32.const", (50,)),
        Instr("local.set", (_COUNTERS,)),
        Instr("block", (BlockType(), [Instr("loop", (BlockType(), [
            Instr("local.get", (_COUNTERS,)),
            Instr("i32.eqz"),
            Instr("br_if", (1,)),
            Instr("local.get", (_COUNTERS,)),
            Instr("i32.const", (1,)),
            Instr("i32.sub"),
            Instr("local.set", (_COUNTERS,)),
            *inner,
            Instr("br", (0,)),
        ]))])),
        Instr("local.get", (_X,)),
    ]
    module = _build_loop_module(body)
    assert not _superblocks(module)
    _assert_tiers_agree(module, fuel=None)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_polybench_kernels_identical(name):
    """Polybench kernels: same checksum, same instruction count, same fuel
    accounting on both tiers (small problem sizes keep this tier-1 fast)."""
    kernel = KERNELS[name]
    module = build(kernel.source)
    n = max(4, kernel.default_n // 8)
    per_tier = {}
    for tier in ("interp", "threaded"):
        inst = instantiate(module, tier=tier, fuel=50_000_000)
        result = inst.invoke("kernel", n)
        per_tier[tier] = (result, inst.instructions_executed, inst.fuel)
    assert per_tier["threaded"] == per_tier["interp"]
    # Unmetered, the kernel's loop nests run as superblocks.
    inst = instantiate(module, tier="threaded")
    result = inst.invoke("kernel", n)
    assert (result, inst.instructions_executed) == per_tier["interp"][:2]


def test_guest_interpreter_identical():
    """The Brainfuck interpreter (the paper's dynamic-runtime analogue) is
    the most control-flow-dense guest in the tree; both tiers must agree
    on outputs and CPU accounting for every sample program."""
    from repro.apps.guest_interpreter import (
        ADD_DIGITS,
        CAT,
        HELLO_WORLD,
        build_interpreter_definition,
        run_program,
    )
    from repro.faaslet import Faaslet
    from repro.host.environment import StandaloneEnvironment

    programs = [
        (HELLO_WORLD, b""),
        (CAT, b"threaded tier"),
        (ADD_DIGITS, b"47"),
    ]
    definition = build_interpreter_definition()
    per_tier = {}
    for tier in ("interp", "threaded"):
        env = StandaloneEnvironment()
        faaslet = Faaslet(definition, env)
        # The tier switch is consulted per call, so flipping it on a live
        # instance is the cleanest way to pin a Faaslet to one tier.
        faaslet.instance.tier = tier
        outputs = [run_program(faaslet, prog, stdin) for prog, stdin in programs]
        per_tier[tier] = (outputs, faaslet.instance.instructions_executed)
    assert per_tier["threaded"] == per_tier["interp"]
    assert per_tier["threaded"][0][0] == b"Hello World!\n"


def test_host_refuel_reentry():
    """A host function may add fuel mid-call (the cgroup quantum refill
    path); the threaded tier's frame must pick the new allowance up exactly
    like the interpreter does."""

    builder = ModuleBuilder()
    host_type = FuncType((), (I32,))
    builder.import_func("env", "refuel", host_type)
    body = [
        Instr("call", (0,)),
        Instr("drop"),
        # Burn a deterministic amount of fuel after the refill.
        Instr("i32.const", (25,)),
        Instr("local.set", (0,)),
        Instr(
            "loop",
            (
                BlockType(),
                [
                    Instr("local.get", (0,)),
                    Instr("i32.const", (1,)),
                    Instr("i32.sub"),
                    Instr("local.tee", (0,)),
                    Instr("br_if", (0,)),
                ],
            ),
        ),
        Instr("local.get", (0,)),
    ]
    builder.add_function("main", FuncType((), (I32,)), [I32], body, export=True)
    module = builder.build()
    per_tier = {}
    for tier in ("interp", "threaded"):
        refills = []

        def refuel(inst):
            refills.append(inst.fuel)
            inst.add_fuel(1_000)
            return 0

        imports = [
            HostFunc("env", "refuel", host_type, refuel, pass_instance=True)
        ]
        # fuel=2 covers only the call itself: without the mid-call refill
        # the loop below would run out, so finishing proves the refill
        # reached the running frame.
        inst = instantiate(module, imports, fuel=2, tier=tier)
        result = inst.invoke("main")
        per_tier[tier] = (result, refills, inst.fuel, inst.instructions_executed)
    assert per_tier["threaded"] == per_tier["interp"]
    result, refills, fuel, _executed = per_tier["threaded"]
    assert result == 0
    assert refills == [1]  # call itself cost 1 of the original 2


@pytest.mark.parametrize("tier", ["interp", "threaded"])
def test_out_of_fuel_is_resumable(tier):
    """After OutOfFuel, adding fuel and re-invoking must work on both
    tiers (the fair-scheduling suspend/resume pattern)."""
    module = build(
        """
        export int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
        """
    )
    inst = instantiate(module, tier=tier, fuel=10)
    with pytest.raises(OutOfFuel):
        inst.invoke("kernel", 1000)
    assert inst.fuel == 0
    inst.add_fuel(10_000_000)
    assert inst.invoke("kernel", 100) == 4950
