"""Tier-2 execution: closure-threaded basic blocks with fuel batching.

This is the repo's stand-in for WAVM's ahead-of-time code generation
(§3.4): instead of dispatching one ``(op, ...)`` tuple at a time through
the reference interpreter's ``if/elif`` chain, each
:class:`~repro.wasm.codegen.CompiledFunction` is lowered **once** into a
list of pre-bound Python closures — one per basic block — and executed by
a trivial dispatch loop::

    while pc >= 0:
        pc = ops[pc](stack, locals_, frame)

Four techniques carry the speedup:

* **Closure threading** — every block closure captures its immediates,
  operator callables (from :data:`~repro.wasm.ops.BINOPS`/``UNOPS``),
  float constants and typed single-page memory accessors (the struct
  packers from :mod:`repro.wasm.memory`) as pre-bound default arguments,
  so the hot path performs no dict lookups, no opcode tests and no
  immediate decoding.

* **Superinstruction fusion, generalised** — within a block the compiler
  runs a symbolic operand stack: ``local.get``/``const``/pure-operator
  results stay as Python *expressions* and are folded into their
  consumers, so ``local.get local.get i32.mul local.get i32.add i32.const
  i32.shl i32.add f64.load`` collapses into a single bound statement
  ``t0 = LD(mem, L[a] + (((L[i] * L[n] + L[j]) << 3) & M))`` with no
  operand-stack traffic at all. Anything that can trap or touch shared
  state (loads, stores, div/rem, float→int truncation, globals,
  ``memory.*``) is materialised eagerly, in flat-code order, so the
  sequence of observable effects and the trap points are identical to the
  reference tier. Every scalar integer operator is generated inline:
  div/rem by a constant that cannot trap is a pure expression, and
  div/rem by anything else and the float→int truncations raise their
  traps from inline guards.

* **Block-level fuel batching** — a prologue in each block closure charges
  the whole block's flat instruction count against the fuel budget in one
  step. When the remaining fuel cannot cover the block, it falls back to
  per-instruction metering over single-op closures so ``OutOfFuel`` fires
  at exactly the same instruction — with the same partial side effects and
  the same ``instructions_executed`` — as the reference tier.

* **Superblocks** — every outermost call-free loop nest is additionally
  compiled into one Python function installed in its entry block's slot:
  wasm loops become ``while True:`` loops, locals live in Python locals,
  and 32/64/128-bit loads and stores inline their single-page fast path.
  A superblock runs only when fuel is unmetered; with metered fuel it
  hands the region to the per-block closures above (see
  :class:`_SuperblockCompiler`).

Threaded code depends only on the *module* (function types for calls),
never on instance state: memory, globals, table and fuel arrive through
the per-call :class:`Frame`. One threaded body is therefore shared by
every instance of the module — the property the cluster-wide compiled
module cache relies on.

Trap semantics note: the reference interpreter does **not** flush its
local fuel/instruction counters when a trap propagates (only ``OutOfFuel``
and call boundaries flush). The threaded tier reproduces this exactly by
keeping counters in the frame and flushing only at the OutOfFuel path,
call boundaries and normal function exit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial

from .errors import (
    IndirectCallTypeMismatch,
    IntegerDivideByZero,
    IntegerOverflow,
    InvalidConversion,
    OutOfBoundsTableAccess,
    UndefinedElement,
    UnreachableExecuted,
)
from .futex import atomic_notify, atomic_wait32
from .instructions import (
    ATOMIC_CMPXCHG_OPS,
    ATOMIC_RMW_OPS,
    CONST_OPS,
    LOAD_OPS,
    STORE_OPS,
)
from .memory import PAGE_ACCESS, TYPED_LOADS, TYPED_STORES
from .ops import BINOPS, UNOPS
from .simd import SIMD_EXTRACT_OPS, SIMD_REPLACE_OPS
from .values import MASK32


class Frame:
    """Per-call execution state handed to every threaded closure.

    Pure arithmetic never touches the frame; memory/global/control code
    reaches instance state through it, which is what keeps the threaded
    code itself instance-independent and shareable.
    """

    __slots__ = ("inst", "mem", "glb", "labels", "depth", "fuel", "executed")

    def __init__(self, inst, depth: int):
        self.inst = inst
        self.mem = inst.memory
        self.glb = inst.globals
        self.labels = []
        self.depth = depth
        self.fuel = inst._fuel
        self.executed = 0


@dataclass
class ThreadedCode:
    """One function's closure-threaded form."""

    #: One closure per basic block; index = threaded pc. Entry is pc 0.
    ops: list
    #: Flat-instruction count charged by each block's fuel prologue.
    costs: list
    #: ``blk@<flat_start>+<n>`` labels (profiling / debugging aid).
    mnemonics: list
    #: Number of flat instructions this code was threaded from.
    n_flat: int
    #: Threaded pc -> ``loop@<flat_start>+<n>`` for every block whose slot
    #: holds a superblock (a whole call-free loop nest in one function).
    superblocks: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Static control-flow analysis over flat code
# ----------------------------------------------------------------------


def _static_branch_targets(code) -> dict:
    """Resolve every br/br_if/br_table to its static flat-pc target(s).

    The label a branch refers to is fixed by the nesting of block/loop/if
    around it, so a single linear scan with a control stack resolves all
    targets (-1 = branch out of the function, i.e. return).
    """
    ctrl: list[int] = []
    targets: dict[int, tuple] = {}
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == "block":
            ctrl.append(ins[1] + 1)
        elif op == "loop":
            ctrl.append(ins[1])
        elif op == "if":
            ctrl.append(ins[2] + 1)
        elif op == "end":
            ctrl.pop()
        elif op == "br" or op == "br_if":
            d = ins[1]
            targets[pc] = (ctrl[-1 - d] if d < len(ctrl) else -1,)
        elif op == "br_table":
            depths, default = ins[1], ins[2]
            targets[pc] = tuple(
                ctrl[-1 - d] if d < len(ctrl) else -1
                for d in tuple(depths) + (default,)
            )
    return targets


#: Opcodes that may divert control or re-enter the runtime; they always
#: terminate the basic block they appear in (the instruction after them
#: is a leader), so a block's pre-charged fuel never covers skipped code
#: and fuel is always synced to the instance around calls.
_BLOCK_ENDERS = frozenset(
    ["if", "else", "br", "br_if", "br_table", "call", "call_indirect",
     "return", "unreachable",
     # wait32 can suspend the guest thread and re-enter the scheduler, so
     # it gets the same fuel-handshake treatment as a call.
     "memory.atomic.wait32"]
)


def _find_leaders(code, targets: dict) -> set:
    n = len(code)
    leaders = {0}
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == "block":
            leaders.add(ins[1] + 1)
        elif op == "loop":
            leaders.add(ins[1])
        elif op == "if":
            leaders.add(ins[1])
            leaders.add(ins[2] + 1)
        elif op == "else":
            leaders.add(ins[1])
        elif op in ("br", "br_if", "br_table"):
            for t in targets.get(pc, ()):
                if t >= 0:
                    leaders.add(t)
        if op in _BLOCK_ENDERS:
            leaders.add(pc + 1)
    return {l for l in leaders if l < n}


# ----------------------------------------------------------------------
# Single-instruction closures (metered slow path)
#
# Each builder returns a closure (stack, locals_, frame) -> next_pc with
# immediates bound as default arguments. These mirror the reference
# interpreter one flat instruction at a time; the fuel fallback steps
# through them when a block cannot be charged wholesale.
# ----------------------------------------------------------------------


def _b_local_get(ins, nxt, ctx):
    def op(stack, locals_, frame, a=ins[1], nxt=nxt):
        stack.append(locals_[a])
        return nxt

    return op


def _b_local_set(ins, nxt, ctx):
    def op(stack, locals_, frame, a=ins[1], nxt=nxt):
        locals_[a] = stack.pop()
        return nxt

    return op


def _b_local_tee(ins, nxt, ctx):
    def op(stack, locals_, frame, a=ins[1], nxt=nxt):
        locals_[a] = stack[-1]
        return nxt

    return op


def _b_const(ins, nxt, ctx):
    def op(stack, locals_, frame, k=ins[1], nxt=nxt):
        stack.append(k)
        return nxt

    return op


def _b_bin(ins, nxt, ctx):
    def op(stack, locals_, frame, fn=BINOPS[ins[0]], nxt=nxt):
        rhs = stack.pop()
        stack[-1] = fn(stack[-1], rhs)
        return nxt

    return op


def _b_un(ins, nxt, ctx):
    def op(stack, locals_, frame, fn=UNOPS[ins[0]], nxt=nxt):
        stack[-1] = fn(stack[-1])
        return nxt

    return op


def _b_load(ins, nxt, ctx):
    def op(stack, locals_, frame, loader=TYPED_LOADS[ins[0]], off=ins[1], nxt=nxt):
        stack[-1] = loader(frame.mem, stack[-1] + off)
        return nxt

    return op


def _b_store(ins, nxt, ctx):
    def op(stack, locals_, frame, storer=TYPED_STORES[ins[0]], off=ins[1], nxt=nxt):
        value = stack.pop()
        storer(frame.mem, stack.pop() + off, value)
        return nxt

    return op


def _b_simd_extract(ins, nxt, ctx):
    def op(stack, locals_, frame, fn=SIMD_EXTRACT_OPS[ins[0]], lane=ins[1],
           nxt=nxt):
        stack[-1] = fn(stack[-1], lane)
        return nxt

    return op


def _b_simd_replace(ins, nxt, ctx):
    def op(stack, locals_, frame, fn=SIMD_REPLACE_OPS[ins[0]], lane=ins[1],
           nxt=nxt):
        x = stack.pop()
        stack[-1] = fn(stack[-1], x, lane)
        return nxt

    return op


def _b_atomic_rmw(ins, nxt, ctx):
    _ty, size, kind = ATOMIC_RMW_OPS[ins[0]]

    def op(stack, locals_, frame, size=size, kind=kind, off=ins[1], nxt=nxt):
        operand = stack.pop()
        stack.append(
            frame.mem.atomic_rmw(stack.pop() + off, operand, size, kind)
        )
        return nxt

    return op


def _b_atomic_cmpxchg(ins, nxt, ctx):
    _ty, size = ATOMIC_CMPXCHG_OPS[ins[0]]

    def op(stack, locals_, frame, size=size, off=ins[1], nxt=nxt):
        replacement = stack.pop()
        expected = stack.pop()
        stack.append(
            frame.mem.atomic_cmpxchg(
                stack.pop() + off, expected, replacement, size
            )
        )
        return nxt

    return op


def _b_atomic_wait32(ins, nxt, ctx):
    def op(stack, locals_, frame, off=ins[1], nxt=nxt):
        inst = frame.inst
        expected = stack.pop()
        addr = stack.pop() + off
        # Same fuel handshake as a call: the runtime may park this guest
        # thread inside the helper.
        inst._fuel = frame.fuel
        inst.instructions_executed += frame.executed
        frame.executed = 0
        stack.append(atomic_wait32(inst, frame.mem, addr, expected))
        frame.fuel = inst._fuel
        return nxt

    return op


def _b_atomic_notify(ins, nxt, ctx):
    def op(stack, locals_, frame, off=ins[1], nxt=nxt):
        count = stack.pop()
        stack.append(
            atomic_notify(frame.inst, frame.mem, stack.pop() + off, count)
        )
        return nxt

    return op


def _b_drop(ins, nxt, ctx):
    def op(stack, locals_, frame, nxt=nxt):
        stack.pop()
        return nxt

    return op


def _b_select(ins, nxt, ctx):
    def op(stack, locals_, frame, nxt=nxt):
        cond = stack.pop()
        b = stack.pop()
        if not cond:
            stack[-1] = b
        return nxt

    return op


def _b_global_get(ins, nxt, ctx):
    def op(stack, locals_, frame, g=ins[1], nxt=nxt):
        stack.append(frame.glb[g].value)
        return nxt

    return op


def _b_global_set(ins, nxt, ctx):
    def op(stack, locals_, frame, g=ins[1], nxt=nxt):
        frame.glb[g].value = stack.pop()
        return nxt

    return op


def _b_memory_size(ins, nxt, ctx):
    def op(stack, locals_, frame, nxt=nxt):
        stack.append(frame.mem.size_pages)
        return nxt

    return op


def _b_memory_grow(ins, nxt, ctx):
    def op(stack, locals_, frame, nxt=nxt):
        stack.append(frame.mem.grow(stack.pop()) & MASK32)
        return nxt

    return op


def _b_nop(ins, nxt, ctx):
    def op(stack, locals_, frame, nxt=nxt):
        return nxt

    return op


def _b_unreachable(ins, nxt, ctx):
    def op(stack, locals_, frame):
        raise UnreachableExecuted("unreachable executed")

    return op


def _b_return(ins, nxt, ctx):
    def op(stack, locals_, frame):
        return -1

    return op


def _b_block(ins, nxt, ctx):
    # ("block", end_pc, results_arity, params_arity)
    def op(stack, locals_, frame, tgt=ctx.flat2t[ins[1] + 1], arity=ins[2],
           params=ins[3], nxt=nxt):
        frame.labels.append((tgt, arity, len(stack) - params))
        return nxt

    return op


def _b_loop(ins, nxt, ctx):
    # ("loop", self_pc, params_arity) — the branch target is the loop
    # head's own block, so every iteration re-runs its fuel prologue.
    def op(stack, locals_, frame, tgt=ctx.flat2t[ins[1]], params=ins[2], nxt=nxt):
        frame.labels.append((tgt, params, len(stack) - params))
        return nxt

    return op


def _b_if(ins, nxt, ctx):
    # ("if", false_pc, end_pc, results_arity, params_arity)
    def op(stack, locals_, frame, false_t=ctx.flat2t[ins[1]],
           tgt=ctx.flat2t[ins[2] + 1], arity=ins[3], params=ins[4], nxt=nxt):
        cond = stack.pop()
        frame.labels.append((tgt, arity, len(stack) - params))
        if cond:
            return nxt
        return false_t

    return op


def _b_else(ins, nxt, ctx):
    def op(stack, locals_, frame, end_t=ctx.flat2t[ins[1]]):
        return end_t

    return op


def _b_end(ins, nxt, ctx):
    def op(stack, locals_, frame, nxt=nxt):
        frame.labels.pop()
        return nxt

    return op


def _do_branch(stack, labels, d):
    target, arity, height = labels[-1 - d]
    if arity:
        transferred = stack[-arity:]
        del stack[height:]
        stack.extend(transferred)
    else:
        del stack[height:]
    del labels[len(labels) - 1 - d:]
    return target


def _b_br(ins, nxt, ctx):
    def op(stack, locals_, frame, d=ins[1]):
        labels = frame.labels
        if d >= len(labels):
            return -1
        return _do_branch(stack, labels, d)

    return op


def _b_br_if(ins, nxt, ctx):
    def op(stack, locals_, frame, d=ins[1], nxt=nxt):
        if not stack.pop():
            return nxt
        labels = frame.labels
        if d >= len(labels):
            return -1
        return _do_branch(stack, labels, d)

    return op


def _b_br_table(ins, nxt, ctx):
    def op(stack, locals_, frame, depths=ins[1], default=ins[2]):
        i = stack.pop()
        d = depths[i] if i < len(depths) else default
        labels = frame.labels
        if d >= len(labels):
            return -1
        return _do_branch(stack, labels, d)

    return op


def _b_call(ins, nxt, ctx):
    callee = ins[1]

    def op(stack, locals_, frame, callee=callee,
           n=len(ctx.module.func_type(callee).params), nxt=nxt):
        inst = frame.inst
        inst._fuel = frame.fuel
        inst.instructions_executed += frame.executed
        frame.executed = 0
        if n:
            call_args = stack[-n:]
            del stack[-n:]
        else:
            call_args = []
        stack.extend(inst._call(callee, call_args, frame.depth + 1))
        frame.fuel = inst._fuel
        return nxt

    return op


def _b_call_indirect(ins, nxt, ctx):
    expected = ins[1]

    def op(stack, locals_, frame, expected=expected, n=len(expected.params), nxt=nxt):
        inst = frame.inst
        i = stack.pop()
        table = inst.table
        if table is None or i >= len(table):
            raise OutOfBoundsTableAccess(f"table index {i} out of bounds")
        callee = table[i]
        if callee is None:
            raise UndefinedElement(f"uninitialised table element {i}")
        if isinstance(callee, tuple):
            actual = callee[1].module.func_type(callee[2])
        else:
            actual = inst.module.func_type(callee)
        if actual != expected:
            raise IndirectCallTypeMismatch(
                f"indirect call type mismatch: {actual} != {expected}"
            )
        if n:
            call_args = stack[-n:]
            del stack[-n:]
        else:
            call_args = []
        inst._fuel = frame.fuel
        inst.instructions_executed += frame.executed
        frame.executed = 0
        if isinstance(callee, tuple):
            stack.extend(callee[1]._call(callee[2], call_args, frame.depth + 1))
        else:
            stack.extend(inst._call(callee, call_args, frame.depth + 1))
        frame.fuel = inst._fuel
        return nxt

    return op


_CONTROL_BUILDERS = {
    "block": _b_block,
    "loop": _b_loop,
    "if": _b_if,
    "else": _b_else,
    "end": _b_end,
    "br": _b_br,
    "br_if": _b_br_if,
    "br_table": _b_br_table,
    "call": _b_call,
    "call_indirect": _b_call_indirect,
}

_MISC_BUILDERS = {
    "local.get": _b_local_get,
    "local.set": _b_local_set,
    "local.tee": _b_local_tee,
    "drop": _b_drop,
    "select": _b_select,
    "global.get": _b_global_get,
    "global.set": _b_global_set,
    "memory.size": _b_memory_size,
    "memory.grow": _b_memory_grow,
    "nop": _b_nop,
    "unreachable": _b_unreachable,
    "return": _b_return,
}


def _build_sub(ins, nxt, ctx):
    op = ins[0]
    b = _MISC_BUILDERS.get(op) or _CONTROL_BUILDERS.get(op)
    if b is not None:
        return b(ins, nxt, ctx)
    if op in CONST_OPS:
        return _b_const(ins, nxt, ctx)
    if op in BINOPS:
        return _b_bin(ins, nxt, ctx)
    if op in UNOPS:
        return _b_un(ins, nxt, ctx)
    if op in LOAD_OPS:
        return _b_load(ins, nxt, ctx)
    if op in STORE_OPS:
        return _b_store(ins, nxt, ctx)
    if op in SIMD_EXTRACT_OPS:
        return _b_simd_extract(ins, nxt, ctx)
    if op in SIMD_REPLACE_OPS:
        return _b_simd_replace(ins, nxt, ctx)
    if op in ATOMIC_RMW_OPS:
        return _b_atomic_rmw(ins, nxt, ctx)
    if op in ATOMIC_CMPXCHG_OPS:
        return _b_atomic_cmpxchg(ins, nxt, ctx)
    if op == "memory.atomic.wait32":
        return _b_atomic_wait32(ins, nxt, ctx)
    if op == "memory.atomic.notify":
        return _b_atomic_notify(ins, nxt, ctx)
    raise NotImplementedError(f"cannot thread opcode {op!r}")


def _make_slow(subs):
    """Per-instruction metering fallback for a block.

    Entered only when ``0 <= frame.fuel < block cost``, so — with no
    refuel hook installed — it always ends in ``OutOfFuel`` before the
    block's last instruction runs, reproducing the reference tier's
    charge-then-execute accounting: the failing instruction is counted,
    its effects never happen, and every effectful instruction before it
    ran in flat order. When the instance carries a ``_refuel_hook`` (the
    guest-thread scheduler) the exhaustion point instead becomes a
    preemption point: ``Instance._refuel`` grants a fresh quantum and the
    loop carries on, possibly reaching the end of the block — the final
    sub-closure's return value is then the next threaded pc, exactly as
    the fast path would have returned. Non-final sub return values remain
    meaningless and are ignored; control transfers only sit at block ends.
    """

    def slow(stack, locals_, frame, subs=subs, last=len(subs) - 1):
        inst = frame.inst
        i = 0
        while True:
            frame.executed += 1
            fuel = frame.fuel
            if fuel is not None:
                fuel -= 1
                if fuel < 0:
                    # Raises OutOfFuel unless a refuel hook grants more.
                    frame.fuel = inst._refuel(frame.executed)
                    frame.executed = 0
                else:
                    frame.fuel = fuel
            r = subs[i](stack, locals_, frame)
            if i == last:
                return r
            i += 1

    return slow


# ----------------------------------------------------------------------
# Block compiler: symbolic operand stack → one closure per basic block
# ----------------------------------------------------------------------

_M32 = "4294967295"
_M64 = "18446744073709551615"
_S32 = "2147483648"
_S64 = "9223372036854775808"


def _signed(e: str, bias: str) -> str:
    return f"(({e} ^ {bias}) - {bias})"


def _cmp(a: str, b: str, sym: str) -> str:
    return f"(1 if {a} {sym} {b} else 0)"


def _int_templates(mask: str, sbias: str, shift: int) -> dict:
    # Exact transliterations of ops.py: operands are canonical unsigned
    # ints, so `% bits` on shift counts equals `& (bits-1)`.
    return {
        "add": lambda a, b: f"(({a} + {b}) & {mask})",
        "sub": lambda a, b: f"(({a} - {b}) & {mask})",
        "mul": lambda a, b: f"(({a} * {b}) & {mask})",
        "and": lambda a, b: f"({a} & {b})",
        "or": lambda a, b: f"({a} | {b})",
        "xor": lambda a, b: f"({a} ^ {b})",
        "shl": lambda a, b: f"(({a} << ({b} & {shift})) & {mask})",
        "shr_u": lambda a, b: f"({a} >> ({b} & {shift}))",
        "shr_s": lambda a, b: f"(({_signed(a, sbias)} >> ({b} & {shift})) & {mask})",
        "eq": lambda a, b: _cmp(a, b, "=="),
        "ne": lambda a, b: _cmp(a, b, "!="),
        "lt_u": lambda a, b: _cmp(a, b, "<"),
        "gt_u": lambda a, b: _cmp(a, b, ">"),
        "le_u": lambda a, b: _cmp(a, b, "<="),
        "ge_u": lambda a, b: _cmp(a, b, ">="),
        "lt_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), "<"),
        "gt_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), ">"),
        "le_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), "<="),
        "ge_s": lambda a, b: _cmp(_signed(a, sbias), _signed(b, sbias), ">="),
    }


#: op → callable(expr, ...) -> expr: pure templates that mention each
#: operand once. Only ops whose semantics are an exact transliteration of
#: ops.py are inlined; :data:`_LOWER_BINOPS`/:data:`_LOWER_UNOPS` cover
#: the integer ops that need a named operand or a trap guard, and
#: everything else calls the bound BINOPS/UNOPS function.
_INLINE_BINOPS: dict = {}
for _name, _tpl in _int_templates(_M32, _S32, 31).items():
    _INLINE_BINOPS[f"i32.{_name}"] = _tpl
for _name, _tpl in _int_templates(_M64, _S64, 63).items():
    _INLINE_BINOPS[f"i64.{_name}"] = _tpl
for _name, _sym in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("gt", ">"),
                    ("le", "<="), ("ge", ">=")):
    # Comparisons never round, so f32 and f64 share the inline form.
    _INLINE_BINOPS[f"f32.{_name}"] = (
        lambda a, b, _sym=_sym: _cmp(a, b, _sym)
    )
    _INLINE_BINOPS[f"f64.{_name}"] = _INLINE_BINOPS[f"f32.{_name}"]
for _name, _sym in (("add", "+"), ("sub", "-"), ("mul", "*")):
    # f64 arithmetic is raw IEEE double — exactly Python float arithmetic.
    # f32 needs the to_f32 rounding call, so it is not inlined; f64.div
    # has zero-divisor special cases, ditto.
    _INLINE_BINOPS[f"f64.{_name}"] = (
        lambda a, b, _sym=_sym: f"({a} {_sym} {b})"
    )

_INLINE_UNOPS: dict = {
    "i32.eqz": lambda a: f"(0 if {a} else 1)",
    "i64.eqz": lambda a: f"(0 if {a} else 1)",
    # bit_length() of 0 is 0, so clz needs no zero case.
    "i32.clz": lambda a: f"(32 - ({a}).bit_length())",
    "i64.clz": lambda a: f"(64 - ({a}).bit_length())",
    "i32.popcnt": lambda a: f"({a}).bit_count()",
    "i64.popcnt": lambda a: f"({a}).bit_count()",
    "f32.neg": lambda a: f"(-{a})",
    "f64.neg": lambda a: f"(-{a})",
    "f32.abs": lambda a: f"abs({a})",
    "f64.abs": lambda a: f"abs({a})",
    "i32.wrap_i64": lambda a: f"({a} & {_M32})",
    "i64.extend_i32_u": lambda a: f"({a} & {_M32})",
    "i64.extend_i32_s": lambda a: f"({_signed(a, _S32)} & {_M64})",
    "f64.convert_i32_s": lambda a: f"float({_signed(a, _S32)})",
    "f64.convert_i32_u": lambda a: f"float({a} & {_M32})",
    "f64.convert_i64_s": lambda a: f"float({_signed(a, _S64)})",
    "f64.convert_i64_u": lambda a: f"float({a} & {_M64})",
    "f64.promote_f32": lambda a: f"({a})",
}


def _lower_rotate(bc, a, au, b, bu, bits, left):
    """``rotl``/``rotr``: the value and the count are each mentioned twice,
    so both are named first (a constant count folds)."""
    if b.isdigit():
        n = int(b) % bits
        back = str(bits - n)
    else:
        n = bc.name(f"({b} & {bits - 1})")
        back = f"({bits} - {n})"
    a = bc.name(a)
    hi, lo = (f"{a} << {n}", f"{a} >> {back}") if left else (
        f"{a} >> {n}", f"{a} << {back}")
    bc.push(f"(({hi} | {lo}) & {(1 << bits) - 1})", au | bu)


def _lower_ctz(bc, a, au, bits):
    a = bc.name(a)
    bc.push(f"((({a} & -{a}).bit_length() - 1) if {a} else {bits})", au)


def _lower_divide(bc, a, au, b, bu, bits, kind):
    """``div_s``/``div_u``/``rem_s``/``rem_u`` as in :mod:`.values`.

    A constant divisor that cannot trap gives a pure expression; any
    other divisor is materialised behind inline guards that raise the
    reference tier's traps at this point in flat-code order.
    """
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)  # first negative value, unsigned
    full = 1 << bits
    signed = kind.endswith("_s")
    rem = kind.startswith("rem")
    if b.isdigit() and int(b) and not (kind == "div_s" and int(b) == mask):
        m = int(b)
        if not signed:
            bc.push(f"({a} {'%' if rem else '//'} {m})", au)
            return
        d = abs(m - full if m >= half else m)
        a = bc.name(a)
        # |a| // d or |a| % d, negated (and re-wrapped) when the signs of
        # the dividend (rem_s) or of the quotient (div_s) are negative.
        pos = f"({a} {'%' if rem else '//'} {d})"
        neg = f"(-(({full} - {a}) {'%' if rem else '//'} {d}) & {mask})"
        if rem or m < half:
            bc.push(f"({pos} if {a} < {half} else {neg})", au)
        else:  # negative divisor: the quotient's sign flips
            bc.push(f"((-{pos} & {mask}) if {a} < {half} else "
                    f"(({full} - {a}) // {d}))", au)
        return
    b = bc.name(b)
    bc.emit(f"if {b} == 0: raise {bc.bind(IntegerDivideByZero)}"
            "('integer divide by zero')")
    if not signed:
        bc.push(bc.materialize(f"{a} {'%' if rem else '//'} {b}"))
        return
    a = bc.name(a)
    if not rem:
        bc.emit(f"if {a} == {half} and {b} == {mask}: raise "
                f"{bc.bind(IntegerOverflow)}"
                "('integer overflow in signed division')")
    d = bc.materialize(f"{b} if {b} < {half} else {full} - {b}")
    if rem:
        bc.push(bc.materialize(
            f"({a} % {d}) if {a} < {half} else (-(({full} - {a}) % {d}) & {mask})"
        ))
        return
    q = bc.materialize(f"({a} if {a} < {half} else {full} - {a}) // {d}")
    bc.push(bc.materialize(
        f"{q} if ({a} < {half}) == ({b} < {half}) else (-{q} & {mask})"
    ))


def _lower_trunc(bc, a, au, bits, signed):
    """Float → int truncation with the reference tier's NaN and range
    traps (Python compares floats with ints exactly, ±inf included)."""
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (
        0, (1 << bits) - 1)
    a = bc.name(a)
    bc.emit(f"if {a} != {a}: raise {bc.bind(InvalidConversion)}"
            "('invalid conversion to integer: NaN')")
    bc.emit(f"if not ({lo - 1} < {a} < {hi + 1}): raise "
            f"{bc.bind(IntegerOverflow)}('integer overflow in float truncation')")
    bc.push(bc.materialize(
        f"int({a}) & {(1 << bits) - 1}" if signed else f"int({a})"
    ))


#: op → callable(compiler, a, a_locals, b, b_locals): integer binops
#: lowered inline through the compiler (named operands, trap guards).
_LOWER_BINOPS: dict = {}
#: op → callable(compiler, a, a_locals), likewise for unops.
_LOWER_UNOPS: dict = {}
for _t, _bits in (("i32", 32), ("i64", 64)):
    for _kind in ("div_s", "div_u", "rem_s", "rem_u"):
        _LOWER_BINOPS[f"{_t}.{_kind}"] = partial(_lower_divide, bits=_bits, kind=_kind)
    _LOWER_BINOPS[f"{_t}.rotl"] = partial(_lower_rotate, bits=_bits, left=True)
    _LOWER_BINOPS[f"{_t}.rotr"] = partial(_lower_rotate, bits=_bits, left=False)
    _LOWER_UNOPS[f"{_t}.ctz"] = partial(_lower_ctz, bits=_bits)
    # f32 operands are Python floats too; truncation never rounds.
    for _src in ("f32", "f64"):
        for _sg in ("s", "u"):
            _LOWER_UNOPS[f"{_t}.trunc_{_src}_{_sg}"] = partial(
                _lower_trunc, bits=_bits, signed=_sg == "s")


class _Ctx:
    __slots__ = ("flat2t", "module")

    def __init__(self, flat2t, module):
        self.flat2t = flat2t
        self.module = module


class _BlockCompiler:
    """Compile one basic block's flat instructions to Python source.

    Maintains a symbolic operand stack of (pure) expression strings; the
    real list-based stack is only touched for values crossing block
    boundaries and around control instructions, and the invariant is that
    real entries always sit *below* every symbolic entry. Each symbolic
    entry tracks which local indices it references so a ``local.set`` can
    spill (materialise) entries that would otherwise read the new value.
    """

    def __init__(self, bind, ctx, next_block):
        self.bind = bind  # obj -> bound parameter name
        self.ctx = ctx
        self.next_block = next_block
        self.lines: list[str] = []
        self.sym: list[tuple[str, frozenset]] = []
        self.n_temp = 0
        self.uses_mem = False
        self.uses_lab = False
        self.uses_glb = False

    # -- helpers -------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(line)

    def temp(self) -> str:
        name = f"_t{self.n_temp}"
        self.n_temp += 1
        return name

    def push(self, expr: str, locals_used: frozenset = frozenset()) -> None:
        self.sym.append((expr, locals_used))

    def pop(self) -> tuple[str, frozenset]:
        if self.sym:
            return self.sym.pop()
        t = self.temp()
        self.emit(f"{t} = stack.pop()")
        return (t, frozenset())

    def materialize(self, expr: str) -> str:
        """Evaluate ``expr`` now into a temp (effects happen in order)."""
        t = self.temp()
        self.emit(f"{t} = {expr}")
        return t

    def name(self, expr: str) -> str:
        """``expr`` as something cheap to mention more than once."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        return self.materialize(expr)

    def spill_local(self, index: int) -> None:
        """Materialise pending entries that read local ``index`` before it
        is overwritten."""
        for i, (expr, used) in enumerate(self.sym):
            if index in used:
                self.sym[i] = (self.materialize(expr), frozenset())

    def flush(self) -> None:
        """Push all symbolic entries onto the real stack, in order."""
        if not self.sym:
            return
        if len(self.sym) == 1:
            self.emit(f"stack.append({self.sym[0][0]})")
        else:
            self.emit(f"stack.extend(({', '.join(e for e, _ in self.sym)}))")
        self.sym.clear()

    def addr(self, base: str, off: int) -> str:
        return f"{base} + {off}" if off else base

    def label_height(self, params: int) -> str:
        return f"len(stack) - {params}" if params else "len(stack)"

    # -- per-instruction lowering --------------------------------------
    def lower(self, ins) -> bool:
        """Lower one flat instruction; returns True if it emitted the
        block's return (i.e. it was a control transfer)."""
        op = ins[0]
        if op == "local.get":
            self.push(f"L[{ins[1]}]", frozenset((ins[1],)))
        elif op == "local.set":
            e, _ = self.pop()
            self.spill_local(ins[1])
            self.emit(f"L[{ins[1]}] = {e}")
        elif op == "local.tee":
            e, used = self.pop()
            self.spill_local(ins[1])
            if e.startswith("_t"):
                self.emit(f"L[{ins[1]}] = {e}")
                self.push(e, used)
            else:
                t = self.materialize(e)
                self.emit(f"L[{ins[1]}] = {t}")
                self.push(t, frozenset())
        elif op in CONST_OPS:
            k = ins[1]
            if isinstance(k, (float, bytes)):
                # Bind float/v128 objects instead of repr-ing them: exact
                # for every value including nan, -0.0 and inf, and keeps
                # 16-byte vector literals out of the generated source.
                self.push(self.bind(k))
            else:
                self.push(repr(k))
        elif op in BINOPS:
            b, bu = self.pop()
            a, au = self.pop()
            tpl = _INLINE_BINOPS.get(op)
            if tpl is not None:
                self.push(tpl(a, b), au | bu)
            elif op in _LOWER_BINOPS:
                _LOWER_BINOPS[op](self, a, au, b, bu)
            else:
                self.push(f"{self.bind(BINOPS[op])}({a}, {b})", au | bu)
        elif op in UNOPS:
            a, au = self.pop()
            tpl = _INLINE_UNOPS.get(op)
            if tpl is not None:
                self.push(tpl(a), au)
            elif op in _LOWER_UNOPS:
                _LOWER_UNOPS[op](self, a, au)
            else:
                self.push(f"{self.bind(UNOPS[op])}({a})", au)
        elif op in LOAD_OPS:
            self.uses_mem = True
            a, _ = self.pop()
            self.push(self.materialize(
                f"{self.bind(TYPED_LOADS[op])}(mem, {self.addr(a, ins[1])})"
            ))
        elif op in STORE_OPS:
            self.uses_mem = True
            v, _ = self.pop()
            a, _ = self.pop()
            self.emit(
                f"{self.bind(TYPED_STORES[op])}(mem, {self.addr(a, ins[1])}, {v})"
            )
        elif op in SIMD_EXTRACT_OPS:
            a, au = self.pop()
            self.push(
                f"{self.bind(SIMD_EXTRACT_OPS[op])}({a}, {ins[1]})", au
            )
        elif op in SIMD_REPLACE_OPS:
            x, xu = self.pop()
            a, au = self.pop()
            self.push(
                f"{self.bind(SIMD_REPLACE_OPS[op])}({a}, {x}, {ins[1]})",
                au | xu,
            )
        elif op in ATOMIC_RMW_OPS:
            _ty, size, kind = ATOMIC_RMW_OPS[op]
            self.uses_mem = True
            v, _ = self.pop()
            a, _ = self.pop()
            self.push(self.materialize(
                f"mem.atomic_rmw({self.addr(a, ins[1])}, {v}, {size}, {kind!r})"
            ))
        elif op in ATOMIC_CMPXCHG_OPS:
            _ty, size = ATOMIC_CMPXCHG_OPS[op]
            self.uses_mem = True
            r, _ = self.pop()
            e, _ = self.pop()
            a, _ = self.pop()
            self.push(self.materialize(
                f"mem.atomic_cmpxchg({self.addr(a, ins[1])}, {e}, {r}, {size})"
            ))
        elif op == "memory.atomic.notify":
            self.uses_mem = True
            c, _ = self.pop()
            a, _ = self.pop()
            self.push(self.materialize(
                f"{self.bind(atomic_notify)}"
                f"(frame.inst, mem, {self.addr(a, ins[1])}, {c})"
            ))
        elif op == "memory.atomic.wait32":
            # Block ender with the call-style fuel handshake: the runtime
            # may park this guest thread inside the helper.
            self.uses_mem = True
            e, _ = self.pop()
            a, _ = self.pop()
            addr = self.materialize(self.addr(a, ins[1]))
            exp = e if e.startswith("_t") or e.isdigit() else self.materialize(e)
            self.flush()
            self.emit("inst = frame.inst")
            self.emit("inst._fuel = frame.fuel")
            self.emit("inst.instructions_executed += frame.executed")
            self.emit("frame.executed = 0")
            self.emit(
                f"stack.append({self.bind(atomic_wait32)}"
                f"(inst, mem, {addr}, {exp}))"
            )
            self.emit("frame.fuel = inst._fuel")
            self.emit(f"return {self.next_block}")
            return True
        elif op == "drop":
            if self.sym:
                self.sym.pop()
            else:
                self.emit("del stack[-1]")
        elif op == "select":
            c, cu = self.pop()
            b, bu = self.pop()
            a, au = self.pop()
            self.push(f"({a} if {c} else {b})", au | bu | cu)
        elif op == "global.get":
            self.uses_glb = True
            self.push(self.materialize(f"G[{ins[1]}].value"))
        elif op == "global.set":
            self.uses_glb = True
            e, _ = self.pop()
            self.emit(f"G[{ins[1]}].value = {e}")
        elif op == "memory.size":
            self.uses_mem = True
            self.push(self.materialize("mem.size_pages"))
        elif op == "memory.grow":
            self.uses_mem = True
            e, _ = self.pop()
            self.push(self.materialize(f"mem.grow({e}) & {_M32}"))
        elif op == "nop":
            pass
        elif op == "block":
            self.uses_lab = True
            self.flush()
            tgt = self.ctx.flat2t[ins[1] + 1]
            self.emit(f"lab.append(({tgt}, {ins[2]}, {self.label_height(ins[3])}))")
        elif op == "loop":
            self.uses_lab = True
            self.flush()
            tgt = self.ctx.flat2t[ins[1]]
            self.emit(f"lab.append(({tgt}, {ins[2]}, {self.label_height(ins[2])}))")
        elif op == "end":
            self.uses_lab = True
            self.emit("lab.pop()")
        elif op == "if":
            self.uses_lab = True
            c, _ = self.pop()
            self.flush()
            tgt = self.ctx.flat2t[ins[2] + 1]
            self.emit(f"lab.append(({tgt}, {ins[3]}, {self.label_height(ins[4])}))")
            self.emit(
                f"return {self.next_block} if {c} else {self.ctx.flat2t[ins[1]]}"
            )
            return True
        elif op == "else":
            self.flush()
            self.emit(f"return {self.ctx.flat2t[ins[1]]}")
            return True
        elif op == "br":
            self.uses_lab = True
            self.flush()
            self.emit(f"if len(lab) <= {ins[1]}: return -1")
            self.emit(f"return {self.bind(_do_branch)}(stack, lab, {ins[1]})")
            return True
        elif op == "br_if":
            self.uses_lab = True
            c, _ = self.pop()
            self.flush()
            self.emit(f"if {c}:")
            self.emit(f"    if len(lab) <= {ins[1]}: return -1")
            self.emit(f"    return {self.bind(_do_branch)}(stack, lab, {ins[1]})")
            self.emit(f"return {self.next_block}")
            return True
        elif op == "br_table":
            self.uses_lab = True
            idx, _ = self.pop()
            self.flush()
            depths = tuple(ins[1])
            self.emit(f"_i = {idx}")
            self.emit(
                f"_d = {self.bind(depths)}[_i] if _i < {len(depths)} else {ins[2]}"
            )
            self.emit("if len(lab) <= _d: return -1")
            self.emit(f"return {self.bind(_do_branch)}(stack, lab, _d)")
            return True
        elif op == "return":
            self.flush()
            self.emit("return -1")
            return True
        elif op == "unreachable":
            self.emit(
                f"raise {self.bind(UnreachableExecuted)}('unreachable executed')"
            )
            return True
        elif op == "call":
            n = len(self.ctx.module.func_type(ins[1]).params)
            self.emit("inst = frame.inst")
            self.emit("inst._fuel = frame.fuel")
            self.emit("inst.instructions_executed += frame.executed")
            self.emit("frame.executed = 0")
            if len(self.sym) >= n:
                # Arguments are still symbolic: pass them straight to the
                # callee without a round trip through the operand stack.
                args = "[" + ", ".join(
                    e for e, _ in self.sym[len(self.sym) - n:]
                ) + "]"
                del self.sym[len(self.sym) - n:]
                self.flush()
            else:
                self.flush()
                if n:
                    self.emit(f"_a = stack[-{n}:]")
                    self.emit(f"del stack[-{n}:]")
                    args = "_a"
                else:
                    args = "[]"
            self.emit(
                f"stack.extend(inst._call({ins[1]}, {args}, frame.depth + 1))"
            )
            self.emit("frame.fuel = inst._fuel")
            self.emit(f"return {self.next_block}")
            return True
        elif op == "call_indirect":
            # Rare and heavyweight: delegate to the single-op closure,
            # which performs the table/type checks and the fuel handshake.
            self.flush()
            sub = _b_call_indirect(ins, self.next_block, self.ctx)
            self.emit(f"return {self.bind(sub)}(stack, L, frame)")
            return True
        else:  # pragma: no cover - validation admits only known ops
            raise NotImplementedError(f"cannot thread opcode {op!r}")
        return False


def _binder(intern):
    """Return ``(bind, params)``: ``bind(obj)`` names ``obj`` as a default
    parameter of the function being generated; ``params`` collects the
    ``name=global`` declarations for its signature."""
    bound: dict[int, str] = {}  # id(obj) -> local param name
    params: list[str] = []

    def bind(obj) -> str:
        key = id(obj)
        name = bound.get(key)
        if name is None:
            gname = intern(obj)
            name = f"_c{len(bound)}"
            bound[key] = name
            params.append(f"{name}={gname}")
        return name

    return bind, params


def _compile_block(block_id, code, start, end, ctx, intern):
    """Generate source for one basic block closure named ``_blk<id>``."""
    bind, params = _binder(intern)
    cost = end - start
    next_block = ctx.flat2t.get(end, -1)  # -1: the block ends in a transfer
    bc = _BlockCompiler(bind, ctx, next_block)
    ended = False
    for pc in range(start, end):
        ended = bc.lower(code[pc])
    if not ended:
        bc.flush()
        bc.emit(f"return {next_block}")

    # Subs are bound with the block's true successor so that, after a
    # refuel-hook preemption, the slow path can run the block to completion
    # and return the correct next threaded pc.
    subs = [_build_sub(code[pc], next_block, ctx) for pc in range(start, end)]
    slow_name = bind(_make_slow(subs))

    header = [
        f"def _blk{block_id}(stack, L, frame, {', '.join(params)}):",
        "    fuel = frame.fuel",
        "    if fuel is None:",
        f"        frame.executed += {cost}",
        f"    elif fuel >= {cost}:",
        f"        frame.fuel = fuel - {cost}",
        f"        frame.executed += {cost}",
        "    else:",
        f"        return {slow_name}(stack, L, frame)",
    ]
    if bc.uses_mem:
        header.append("    mem = frame.mem")
    if bc.uses_lab:
        header.append("    lab = frame.labels")
    if bc.uses_glb:
        header.append("    G = frame.glb")
    return "\n".join(header + ["    " + line for line in bc.lines])


# ----------------------------------------------------------------------
# Superblocks: a whole call-free loop nest compiled into one function
# ----------------------------------------------------------------------

#: Opcodes that hand control to the runtime (and need the call-boundary
#: fuel handshake); a region containing one keeps its per-block closures.
_NOT_IN_SUPERBLOCK = frozenset(["call", "call_indirect", "memory.atomic.wait32"])

#: CPython allows 20 statically nested loops per function and 100
#: indentation levels; regions nested deeper keep their per-block closures.
_MAX_LOOP_NESTING = 16
_MAX_INDENT = 90

#: Vector accesses inlined like :data:`~repro.wasm.memory.PAGE_ACCESS`,
#: as 16-byte slice copies (what ``load_v128``/``store_v128`` do).
_V128_ACCESS = frozenset(["v128.load", "v128.store"])

class _Ineligible(Exception):
    """The region cannot be compiled as one superblock."""


class _PyLoop:
    """One ``while True:`` of a superblock."""

    __slots__ = ("uid", "escapes", "broken")

    def __init__(self, uid: int):
        self.uid = uid
        #: ``_br`` flags set inside this loop for a loop further out.
        self.escapes: set[int] = set()
        #: Some branch leaves this loop with ``break``.
        self.broken = False


class _Label:
    """A wasm label inside a superblock and the Python jump that takes it."""

    __slots__ = ("loop", "action", "owns")

    def __init__(self, loop=None, action="break", owns=False):
        self.loop = loop
        self.action = action
        #: The label opens ``loop`` itself (else it has none or shares its
        #: only child loop's).
        self.owns = owns


def _structure(code) -> tuple[dict, dict]:
    """Matching ``end`` pc and enclosing-label count of every construct."""
    ends: dict[int, int] = {}
    depth: dict[int, int] = {}
    ctrl: list[int] = []
    for pc, ins in enumerate(code):
        op = ins[0]
        if op in ("block", "loop", "if"):
            depth[pc] = len(ctrl)
            ctrl.append(pc)
        elif op == "end":
            ends[ctrl.pop()] = pc
    return ends, depth


def _is_loop_nest(code, start: int, end: int) -> bool:
    """A call-free region of void constructs that contains a loop."""
    has_loop = False
    for pc in range(start, end + 1):
        ins = code[pc]
        op = ins[0]
        if op in _NOT_IN_SUPERBLOCK:
            return False
        if op == "loop":
            has_loop = True
            if ins[2]:
                return False
        elif op == "block" and (ins[2] or ins[3]):
            return False
        elif op == "if" and (ins[3] or ins[4]):
            return False
    return has_loop


def _loop_nests(code, ends: dict) -> list[tuple[int, int]]:
    """Outermost call-free loop nests, as ``(start, end)`` flat pcs."""
    regions = []
    pc = 0
    while pc < len(code):
        if code[pc][0] in ("block", "loop") and _is_loop_nest(code, pc, ends[pc]):
            regions.append((pc, ends[pc]))
            pc = ends[pc] + 1
        else:
            pc += 1
    return regions


class _SuperblockCompiler(_BlockCompiler):
    """Lower one call-free loop nest to the body of a single function.

    Locals live in Python locals (``l<i>``), and the operand stack must be
    empty at every basic-block boundary, so values only ever flow through
    symbolic expressions and locals. Structured control maps onto Python's:
    every wasm ``loop`` becomes a ``while True:`` (``br`` to it is
    ``continue``, falling off its end is ``break``); a ``block`` or ``if``
    that a branch targets becomes a ``while True:`` left with ``break``;
    and a ``block`` whose body is exactly one loop shares that loop's
    ``break``. A branch past the innermost ``while`` stores the target
    loop's uid (and whether to continue it) in ``_br`` and breaks; each
    enclosing loop tests the flag on the way out. Branches to labels
    outside the region and returns leave the function through
    :meth:`exit`. Each basic block still adds its flat cost to ``ex`` as
    it is entered, in flat-code order.
    """

    def __init__(self, bind, ctx, code, leaders, costs, ends, outer_depth):
        super().__init__(bind, ctx, None)
        self.code = code
        self.leaders = leaders
        self.costs = costs
        self.ends = ends
        #: Labels enclosing the region (``frame.labels`` on entry).
        self.outer_depth = outer_depth
        self.label_of: dict[int, _Label] = {}
        self.labels: list[_Label] = []
        self.loops: list[_PyLoop] = []
        self.indent = 1
        #: Locals the region mentions (loaded on entry) and sets (written
        #: back on every exit).
        self.used: set[int] = set()
        self.writes: set[int] = set()
        self.dead = False
        self.uses_pages = False
        self.uses_flag = False

    # -- helpers -------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def pop(self) -> tuple[str, frozenset]:
        if not self.sym:
            raise _Ineligible("operand from outside the region")
        return self.sym.pop()

    def plan(self, start: int, end: int) -> None:
        """Collect the locals the region uses and give every construct its
        label: which ``while`` a branch to it leaves or restarts."""
        ctrl: list[int] = []
        targeted: set[int] = set()
        constructs = []
        for pc in range(start, end + 1):
            ins = self.code[pc]
            op = ins[0]
            if op in ("block", "loop", "if"):
                ctrl.append(pc)
                constructs.append(pc)
            elif op == "end":
                ctrl.pop()
            elif op in ("br", "br_if", "br_table"):
                depths = (ins[1],) if op != "br_table" else tuple(ins[1]) + (ins[2],)
                targeted.update(ctrl[-1 - d] for d in depths if d < len(ctrl))
            elif op in ("local.get", "local.set", "local.tee"):
                self.used.add(ins[1])
                if op != "local.get":
                    self.writes.add(ins[1])
        for uid, pc in enumerate(constructs, 1):
            if self.code[pc][0] == "loop":
                self.label_of[pc] = _Label(_PyLoop(uid), "continue", owns=True)
        for uid, pc in enumerate(constructs, 1):
            op = self.code[pc][0]
            if op == "loop":
                continue
            end_pc = self.ends[pc]
            if (op == "block" and self.code[pc + 1][0] == "loop"
                    and self.ends[pc + 1] == end_pc - 1
                    and end_pc not in self.leaders):
                # Leaving the loop lands on this block's `end`, which runs
                # nothing: ``break`` of the loop takes both labels.
                self.label_of[pc] = _Label(self.label_of[pc + 1].loop)
            elif pc in targeted:
                self.label_of[pc] = _Label(_PyLoop(uid), owns=True)
            else:
                self.label_of[pc] = _Label()

    def leader(self, pc: int) -> None:
        if self.sym:
            raise _Ineligible("operand live across a block boundary")
        self.emit(f"ex += {self.costs[pc]}")

    def open_loop(self, loop: _PyLoop) -> None:
        if len(self.loops) >= _MAX_LOOP_NESTING:
            raise _Ineligible("loops nested too deeply")
        self.emit("while True:")
        self.indent += 1
        self.loops.append(loop)

    def close_loop(self, loop: _PyLoop, fell_through: bool) -> None:
        if fell_through:
            self.emit("break")
        self.indent -= 1
        self.loops.pop()
        if loop.escapes:
            outer = self.loops[-1]
            self.emit("if _br:")
            self.indent += 1
            for flag in sorted(loop.escapes):
                if flag >> 1 == outer.uid:
                    self.emit(f"if _br == {flag}:")
                    self.emit("    _br = 0")
                    self.emit("    continue" if flag & 1 else "    break")
            if any(flag >> 1 != outer.uid for flag in loop.escapes):
                self.emit("break")
            self.indent -= 1
        self.dead = not (fell_through or loop.broken)

    # -- control -------------------------------------------------------
    def exit(self, result: str) -> None:
        """Leave the region: spill pending operands to the real stack,
        write back the locals the region sets and flush the count."""
        if self.sym:
            self.emit(f"stack.extend(({', '.join(e for e, _ in self.sym)},))")
        if self.writes:
            self.emit("; ".join(f"L[{i}] = l{i}" for i in sorted(self.writes)))
        self.emit("frame.executed = ex")
        self.emit(f"return {result}")

    def branch(self, d: int) -> None:
        """Emit ``br d``; the symbolic stack is left for the caller."""
        if d >= len(self.labels):
            d -= len(self.labels)
            if d >= self.outer_depth:
                self.exit("-1")
            else:
                # Trims frame.labels and the stack exactly like the
                # per-block closures would.
                self.exit(f"{self.bind(_do_branch)}(stack, frame.labels, {d})")
            return
        label = self.labels[-1 - d]
        loop = label.loop
        if label.action == "break":
            loop.broken = True
        if loop is self.loops[-1]:
            self.emit(label.action)
            return
        flag = loop.uid << 1 | (label.action == "continue")
        for inner in self.loops[self.loops.index(loop) + 1:]:
            inner.escapes.add(flag)
        self.uses_flag = True
        self.emit(f"_br = {flag}")
        self.emit("break")

    def cond_branch(self, cond: str, d: int) -> None:
        self.emit(f"if {cond}:")
        self.indent += 1
        self.branch(d)
        self.indent -= 1

    def seq(self, pc: int, stop: int) -> None:
        """Lower flat code ``[pc, stop)``; stops early once control can
        no longer fall through (the rest is unreachable)."""
        code = self.code
        while pc < stop and not self.dead:
            ins = code[pc]
            op = ins[0]
            if pc in self.leaders and op != "loop":
                self.leader(pc)
            if op == "block" or op == "loop":
                pc = self.construct(pc)
                continue
            if op == "if":
                pc = self.if_(pc)
                continue
            if op == "br":
                self.branch(ins[1])
                self.dead = True
            elif op == "br_if":
                cond, _ = self.pop()
                self.cond_branch(cond, ins[1])
            elif op == "br_table":
                idx = self.name(self.pop()[0])
                for j, d in enumerate(ins[1]):
                    self.cond_branch(f"{idx} == {j}", d)
                self.branch(ins[2])
                self.dead = True
            elif op == "return":
                self.exit("-1")
                self.dead = True
            elif op == "unreachable":
                self.emit(
                    f"raise {self.bind(UnreachableExecuted)}('unreachable executed')"
                )
                self.dead = True
            else:
                self.lower(ins)
            pc += 1
        if self.dead:
            self.sym.clear()

    def construct(self, pc: int) -> int:
        label = self.label_of[pc]
        end = self.ends[pc]
        self.labels.append(label)
        if label.owns:
            self.open_loop(label.loop)
            if self.code[pc][0] == "loop":
                self.leader(pc)  # a loop head is always a leader
        self.seq(pc + 1, end)
        if not self.dead and end in self.leaders:
            self.leader(end)
        self.labels.pop()
        if label.owns:
            self.close_loop(label.loop, not self.dead)
        return end + 1

    def if_(self, pc: int) -> int:
        _op, false_pc, end = self.code[pc][:3]
        label = self.label_of[pc]
        cond, _ = self.pop()
        if label.owns:
            self.open_loop(label.loop)
        self.labels.append(label)
        else_pc = false_pc - 1 if false_pc != end else None
        self.emit(f"if {cond}:")
        self.suite(pc + 1, end if else_pc is None else else_pc, else_pc)
        then_dead = self.dead
        else_dead = False
        if else_pc is not None:
            self.dead = False
            self.emit("else:")
            self.suite(false_pc, end)
            else_dead = self.dead
        self.dead = then_dead and else_dead
        if not self.dead:
            self.leader(end)  # `else` jumps / `if` falls to the end
        self.labels.pop()
        if label.owns:
            self.close_loop(label.loop, not self.dead)
        return end + 1

    def suite(self, pc: int, stop: int, closer: int | None = None) -> None:
        """Lower ``[pc, stop)`` one level deeper; ``closer`` is the pc of an
        ``else`` ending the suite, which may start a block of its own."""
        if self.indent >= _MAX_INDENT:
            raise _Ineligible("constructs nested too deeply")
        self.indent += 1
        mark = len(self.lines)
        self.seq(pc, stop)
        if closer is not None and not self.dead and closer in self.leaders:
            self.leader(closer)
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1

    # -- data ----------------------------------------------------------
    def lower(self, ins) -> bool:
        op = ins[0]
        if op == "local.get":
            i = ins[1]
            self.push(f"l{i}", frozenset((i,)))
        elif op == "local.set" or op == "local.tee":
            i = ins[1]
            e, _ = self.pop()
            self.spill_local(i)
            self.emit(f"l{i} = {e}")
            if op == "local.tee":
                self.push(f"l{i}", frozenset((i,)))
        elif op == "drop":
            self.pop()
        elif op in PAGE_ACCESS or op in _V128_ACCESS:
            self.page_access(op, ins[1])
        else:
            super().lower(ins)
            if op == "memory.grow":
                self.uses_pages = True
                self.emit("nb = len(pages) << 16")
        return False

    def page_access(self, op: str, offset: int) -> None:
        """Inline single-page fast path; anything else (page-straddling or
        out-of-range addresses, read-only COW or write-protected shared
        pages) calls the typed accessor, which traps or faults exactly as
        the per-block closures do."""
        packer, width = PAGE_ACCESS.get(op, (None, 16))
        self.uses_mem = self.uses_pages = True
        limit = 65536 - width
        if op in TYPED_STORES:
            v = self.name(self.pop()[0])
            a = self.name(self.addr(self.pop()[0], offset))
            self.emit(f"_o = {a} & 65535")
            self.emit(
                f"if _o <= {limit} and {a} < nb "
                f"and (_pg := pages[{a} >> 16]).writable:"
            )
            if packer is None:
                self.emit(f"    _pg.view[_o:_o + 16] = {v}")
            else:
                self.emit(f"    {self.bind(packer)}(_pg.view, _o, {v})")
            self.emit("else:")
            self.emit(f"    {self.bind(TYPED_STORES[op])}(mem, {a}, {v})")
            return
        a = self.name(self.addr(self.pop()[0], offset))
        t = self.temp()
        self.emit(f"_o = {a} & 65535")
        self.emit(f"if _o <= {limit} and {a} < nb:")
        if packer is None:
            self.emit(f"    {t} = bytes(pages[{a} >> 16].view[_o:_o + 16])")
        else:
            self.emit(
                f"    {t} = {self.bind(packer)}(pages[{a} >> 16].view, _o)[0]"
            )
        self.emit("else:")
        self.emit(f"    {t} = {self.bind(TYPED_LOADS[op])}(mem, {a})")
        self.push(t)


def _compile_superblock(sb_id, code, start, end, ctx, intern, leaders, costs,
                        ends, outer_depth, entry_block):
    """Source for superblock ``_sb<id>`` covering flat ``[start, end]``,
    or None when the region is not eligible."""
    bind, params = _binder(intern)
    sc = _SuperblockCompiler(bind, ctx, code, leaders, costs, ends, outer_depth)
    try:
        sc.plan(start, end)
        sc.seq(start, end + 1)
        if not sc.dead:
            sc.exit(str(ctx.flat2t[end + 1]))
    except _Ineligible:
        return None
    header = [
        f"def _sb{sb_id}(stack, L, frame, "
        f"{''.join(p + ', ' for p in params)}_orig=_blk{entry_block}):",
        # Metered fuel (guest-thread quanta, OutOfFuel limits) runs the
        # per-block closures, whose prologues charge fuel exactly.
        "    if frame.fuel is not None:",
        "        return _orig(stack, L, frame)",
        "    ex = frame.executed",
    ]
    header += [f"    l{i} = L[{i}]" for i in sorted(sc.used)]
    if sc.uses_mem:
        header.append("    mem = frame.mem")
    if sc.uses_pages:
        # LinearMemory only ever mutates its page list in place, so the
        # binding stays valid; `nb` is refreshed after memory.grow.
        header.append("    pages = mem.pages")
        header.append("    nb = len(pages) << 16")
    if sc.uses_glb:
        header.append("    G = frame.glb")
    if sc.uses_flag:
        header.append("    _br = 0")
    return "\n".join(header + sc.lines)


def thread_function(fn, module) -> ThreadedCode:
    """Lower one flat-compiled function to closure-threaded block code,
    with every eligible call-free loop nest also compiled as a superblock
    installed in its entry block's slot."""
    code = fn.code
    n = len(code)
    targets = _static_branch_targets(code)
    ends, depth = _structure(code)
    regions = _loop_nests(code, ends)
    leader_set = _find_leaders(code, targets)
    for start, end in regions:
        # A superblock occupies whole blocks: it starts one and the code
        # after it starts the next.
        leader_set.update((start, end + 1))
    leaders = sorted(leader_set)
    flat2t = {flat_pc: block_id for block_id, flat_pc in enumerate(leaders)}
    ctx = _Ctx(flat2t, module)

    ns: dict = {}

    def intern(obj) -> str:
        name = f"_g{len(ns)}"
        ns[name] = obj
        return name

    sources = []
    costs = []
    mnemonics = []
    for block_id, start in enumerate(leaders):
        end = leaders[block_id + 1] if block_id + 1 < len(leaders) else n
        sources.append(_compile_block(block_id, code, start, end, ctx, intern))
        costs.append(end - start)
        mnemonics.append(f"blk@{start}+{end - start}")

    cost_at = dict(zip(leaders, costs))
    superblocks = {}
    for start, end in regions:
        entry = flat2t[start]
        src = _compile_superblock(
            len(superblocks), code, start, end, ctx, intern, leader_set,
            cost_at, ends, depth[start], entry,
        )
        if src is not None:
            sources.append(src)
            superblocks[entry] = f"loop@{start}+{end + 1 - start}"

    exec(compile("\n\n".join(sources), f"<threaded:{fn.name}>", "exec"), ns)
    ops = [ns[f"_blk{block_id}"] for block_id in range(len(leaders))]
    for sb_id, entry in enumerate(superblocks):
        ops[entry] = ns[f"_sb{sb_id}"]
    return ThreadedCode(ops, costs, mnemonics, n, superblocks)


_THREADING_LOCK = threading.Lock()


def threaded_code(fn, module) -> ThreadedCode:
    """``fn``'s threaded form, built on first use. Threads that make a
    first call at the same moment share one :func:`thread_function` run."""
    tc = fn.threaded
    if tc is None:
        with _THREADING_LOCK:
            tc = fn.threaded
            if tc is None:
                tc = fn.threaded = thread_function(fn, module)
    return tc
