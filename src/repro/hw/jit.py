"""Trace-driven superblock JIT for the fast-path engine.

The predecoded dispatch loop (DESIGN.md SS10) still pays one dict
lookup, one call of the instruction's handler (built once per image and
shared by every interpreter), and one ``clock.advance`` per guest
instruction.  This module escapes that interpretive dispatch: the run
loop profiles per-PC execution counts, and when a PC crosses the
hotness threshold the instructions reachable from it along the
predicted straight-line path are fused into a single *superblock* -- a
generated Python function compiled with ``compile``/``exec``.  One
function covers a whole *region* of such traces (segments) that
transfer control to each other internally, and it pays for guest state
only where control leaves the function:

* *Region residency.*  Every general register and flag the region
  reads or writes lives in a Python local for the whole invocation.
  Registers and flags written anywhere in the region are written back
  to ``cpu.regs``/``cpu.flags`` (with ``cpu.rip``) only at a ``return``
  to the dispatcher or at a raise site -- never at an internal
  ``_pc = i; continue`` transfer -- so an exception always propagates
  with exact state.
* *Cycles in locals.*  Charges are compile-time constants, accumulated
  per segment and carried across transfers in the ``_cy`` local; the
  clock is advanced once at each exit, and materialised around every
  store that can fire callbacks, so EPT-fault charges, CoW breaks,
  code-watch invalidations, I/O exits, faults and traces all see the
  reference cycle count.  Mispredicted-branch counts ride in the same
  way (``_br``, folded into ``side_exits['branch']`` at exit).
* *Register, immediate and stack forms only.*  Guests run no other
  form hot, so any memory or control-register operand, ``jmp``,
  dynamic ``call``, ``in`` and ``nop`` stay on the per-instruction
  path, which runs them through the reference ``Interpreter._dispatch``;
  compiled code addresses memory only through ``sp`` and ``stos64``'s
  ``di``.
* *One pass.*  :func:`compile_block` traces and emits each segment
  once; exits that may become internal transfers, and the state every
  exit writes back, are settled when the region is assembled.
* *Hot-first dispatch, predicted returns.*  Transfers and returns go
  back through one ``if``/``elif`` chain over the segments, which tests
  them by static in-degree rather than in region order, the hotter
  head first on a tie.  A ``ret`` compares its target with the return
  sites of the region's calls, hottest first, before it falls back to
  a segment-map lookup.  Heat is the run loop's profile when the region
  compiles: a head that already runs compiled, then its count.
* *Flags only where observed.*  Flag writers leave their flags pending,
  and they are computed only where control can leave the function: in
  a memory site's ``except`` clause, the flags a branch predicate reads
  (the rest on its taken path), and at exits -- except a ``continue``
  into a segment that overwrites all three before anything observes
  them.
* *Small ints on the hot path.*  Register locals stay in ``[0, mask]``,
  so stack and ALU results wrap only on their overflow branch and sign
  tests compare against the sign bit instead of flipping it: CPython's
  fast path covers only ints below 2**30 (DESIGN.md SS15, "Integer
  width").
* *One inline memory path for every width.*  Loads bounds-check and
  read straight from the backing mapping; stores write in place when
  the page is quiet (see :class:`repro.hw.memory.GuestMemory`) and the
  store does not straddle a page; every other case calls the accessor.
  An aligned 4- or 8-byte access indexes a word view of the mapping
  instead of calling ``struct``.  Paged regions inline the software-TLB
  hit path behind a last-page memo, and an aligned word access on the
  memo page skips translation altogether.
* *Stack window.*  A segment whose stack accesses are all ``push``,
  ``pop``, ``call`` and ``ret`` (at offsets from its entry ``sp`` known
  when it compiles) gets a second, fast body behind one test that its
  whole ``sp`` span lies in the *window*: one quiet page of guest
  memory (``_wl``/``_wh``), held for one region invocation.  The fast
  body indexes a word view from one base at constant offsets, with no
  wrap, alignment, bounds or quiet test and no raise site, adjusts
  ``sp`` once before each exit, and on paged regions counts its TLB
  hits in bulk.  The general body, the fast body's fallback, sets the
  window on its way out when ``sp`` is aligned and its page quiet.
  Widths 4 and 8 only: REAL16's stack and ``stos64`` keep the inline
  paths above.
* *Wide-register guard.*  A write-back also stores registers that the
  path taken never wrote, which is exact only while each such dict
  value fits ``cpu.mask`` (the local holds the masked value).  The
  prologue checks that for every region-written register and, when one
  does not fit, returns ``-1`` without running anything: the run loop
  counts a ``mode_guard`` side exit and steps the instruction on the
  per-instruction path.
* *Counted store loops in closed form.*  An unpaged segment whose body
  is one ``stos64``, ``add reg, imm`` induction updates and one ``dec``
  of a counter, closed by a ``jne`` back to its own head on the
  ``dec``'s flags (the boot's page-directory fill), gets a head
  preamble that retires ``n`` whole taken iterations at once: one bulk
  ``pack_into`` onto the current page, and every induction register,
  flag local, ``_br``, ``_done`` and ``_cy`` advanced in closed form.
  ``n`` is the least of four bounds -- iterations before the counter's
  final (not-taken) one, iterations the step budget covers at every
  transfer, stores that fit wholly in the current page (which also
  keeps ``di`` from wrapping), iterations before the stored value would
  wrap the mask -- and the
  preamble fires only on a *quiet* page, so every store that has a
  side effect (EPT first touch, CoW break, SMC invalidation) still runs
  through the per-iteration body at its exact cycle.  The flag locals
  are exact afterwards (every fast-forwarded iteration was taken, so
  zero and carry are clear and sign is the counter's top bit), which
  the next accessor store's raise handler relies on.
* Side exits on branch mispredict (conditional branches predict
  fall-through), dynamic control flow, faults, halts and I/O, with
  per-reason counters.

Superblocks are compiled per *image* -- the cache key is the content
hash of the program image (plus load base and cost-model identity) --
so pooled shells and COW-restored shells attach an already-warm block
cache and start hot.  Guest stores that touch a compiled code page fire
push invalidation through :meth:`GuestMemory.watch_code_pages` (guest
execution reads the static ``Program`` either way, so invalidation is
model honesty, never a bit-equality risk).

The contract throughout is the fast-path contract of DESIGN.md SS10:
simulated cycles, registers, flags, dirty pages, component attribution
and Chrome trace bytes are bit-identical to the reference interpreter.
``tests/test_fast_path_equivalence.py`` and the differential fuzzer
enforce it.
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections import OrderedDict
from contextlib import contextmanager
from types import CodeType
from typing import TYPE_CHECKING, Callable, NamedTuple

# The accessors' own codecs, bound into generated code so the inline
# load/store paths decode and pack exactly like the accessors they
# shadow.  These cover every width guest instructions use: each mode's
# operand/stack width (2, 4, 8 bytes) and ``stos64`` (8).
from repro.hw.memory import _U16, _U32, _U64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.costs import CostModel
    from repro.hw.isa import Instr, Interpreter, Program

#: Executions of a PC before a superblock is compiled at it.
DEFAULT_THRESHOLD = 32

#: *Open* blocks shorter than this are not worth the call overhead.
#: Closed traces (terminator-ended) and self-looping traces are exempt:
#: even a lone ``ret`` beats re-profiling its PC on every execution.
MIN_BLOCK_INSNS = 2

#: Hard cap on instructions fused into one superblock segment.
MAX_BLOCK_INSNS = 64

#: Region caps: segments per generated function, instructions total.
MAX_REGION_SEGMENTS = 8
MAX_REGION_INSNS = 256

PAGE_SHIFT = 12

#: Access width -> log2 of it, for the widths guest memory's word views
#: serve (see :meth:`repro.hw.memory.GuestMemory.word_views`).
_WORD_SHIFT = {4: 2, 8: 3}

#: Side-exit reasons, in canonical (display) order.
SIDE_EXIT_REASONS = ("branch", "fault", "halt", "io",
                     "budget_guard", "mode_guard")

_M64 = 0xFFFFFFFFFFFFFFFF

#: Stands for the value ``stos64`` stores until :meth:`_Emitter.assemble`
#: knows whether the region writes ``ax`` (``$`` is no Python token).
_STOS_AX = "$ax"

_ALU_EXPR = {
    "add": "{l} + {r}",
    "sub": "{l} - {r}",
    "and": "{l} & {r}",
    "or": "{l} | {r}",
    "xor": "{l} ^ {r}",
    "shl": "{l} << ({r} & 63)",
    "shr": "{l} >> ({r} & 63)",
    "mul": "{l} * {r}",
}

#: Conditional-jump predicates over the flag *locals* (fz/fs/fc mirror
#: ``cpu.flags`` exactly; see :class:`_Emitter`).
_JCC_EXPR = {
    "je": "fz",
    "jne": "not fz",
    "jl": "fs",
    "jle": "fs or fz",
    "jg": "not fs and not fz",
    "jge": "not fs",
    "jc": "fc",
    "jnc": "not fc",
}

#: The flag locals each predicate reads.
_JCC_READS = {op: tuple(f for f in ("fz", "fs", "fc") if f in pred)
              for op, pred in _JCC_EXPR.items()}


def _isa():
    from repro.hw import isa
    return isa


class CompiledBlock:
    """One dispatchable superblock entry: a region function + guards.

    A *region* is one generated function covering several traces
    (segments) that transfer control internally; each segment head gets
    its own CompiledBlock sharing the function, distinguished by
    ``entry`` (the segment index passed as the function's third
    argument).
    """

    __slots__ = ("pc", "mask", "paging", "length", "pages", "lines",
                 "source", "fn", "entry")

    def __init__(self, pc: int, mask: int, paging: bool, length: int,
                 pages: tuple, lines: tuple, source: str,
                 fn: Callable, entry: int = 0) -> None:
        self.pc = pc
        #: Segment index of this entry within the region function.
        self.entry = entry
        #: Mode guard: the block is only valid while ``cpu.mask`` (and
        #: hence operand width / stack width) matches.
        self.mask = mask
        #: Paging guard: translation was inlined for this paging state.
        self.paging = paging
        #: Maximum instructions the block can retire (the deadline-
        #: slicing guard: enter only when the remaining budget covers it).
        self.length = length
        #: Guest code pages covered (push-invalidation targets).
        self.pages = pages
        #: Guest source lines, for ``repro jit dump``.
        self.lines = lines
        #: Generated Python source (debugging / dump).
        self.source = source
        self.fn = fn


class ImageBlockCache:
    """Compiled blocks + profile counts for one (image, cost-model).

    The ``blocks`` dict is shared by reference with every interpreter
    attached to the image (the generated functions take the interpreter
    as their sole argument), which is what makes pooled and restored
    shells start hot -- and what makes push invalidation global: popping
    a PC here invalidates it for every shell at once.
    """

    __slots__ = ("key", "name", "blocks", "meta", "counts", "blacklist",
                 "page_index", "compiles", "invalidations",
                 "warm_hits", "warm_misses", "epoch", "boots", "boot_mark",
                 "replays", "_watched")

    def __init__(self, key: tuple, name: str) -> None:
        self.key = key
        self.name = name
        #: Dispatch entries: pc -> (fn, length, mask, paging, entry).  A
        #: flat tuple, not the CompiledBlock, so the run loop unpacks
        #: the guards in one statement instead of slot lookups per run.
        self.blocks: dict[int, tuple] = {}
        #: pc -> CompiledBlock (stats / dump / invalidation metadata).
        self.meta: dict[int, CompiledBlock] = {}
        self.counts: dict[int, int] = {}
        #: PCs where block formation failed (uncompilable head).
        self.blacklist: set[int] = set()
        #: code page -> PCs of blocks covering it.
        self.page_index: dict[int, set[int]] = {}
        self.compiles = 0
        self.invalidations = 0
        #: Attaches that found a warm (non-empty) block cache.
        self.warm_hits = 0
        self.warm_misses = 0
        #: Bumped whenever the blocks or the profile counts change.
        self.epoch = 0
        #: Recorded boots, by whether their stored pages were already
        #: touched (``repro.hw.vmx.BootRecord``); a change of epoch
        #: drops them.
        self.boots: dict[bool, object] = {}
        #: ``epoch`` at the start of the last replayable boot that ran
        #: live: a boot is recorded only when nothing changed since.
        self.boot_mark = -1
        #: Boots replayed from ``boots`` instead of executed.
        self.replays = 0
        #: ``page_index``'s pages, built once per change for every
        #: attach (see :meth:`watched_pages`).
        self._watched: frozenset[int] | None = None

    def _changed(self) -> None:
        self.epoch += 1
        self.boots.clear()
        self._watched = None

    def note_attach(self) -> None:
        if self.blocks:
            self.warm_hits += 1
        else:
            self.warm_misses += 1

    def register(self, blk: CompiledBlock) -> None:
        if blk.pc in self.blocks:
            return  # first (hottest) registration wins
        self.blocks[blk.pc] = (blk.fn, blk.length, blk.mask, blk.paging,
                               blk.entry)
        self.meta[blk.pc] = blk
        for page in blk.pages:
            self.page_index.setdefault(page, set()).add(blk.pc)
        self.compiles += 1
        self._changed()

    def invalidate_page(self, page: int) -> int:
        """Drop every block covering ``page``; returns how many."""
        pcs = self.page_index.pop(page, None)
        if not pcs:
            return 0
        self._changed()
        dropped = 0
        for pc in pcs:
            if self.blocks.pop(pc, None) is not None:
                dropped += 1
            self.meta.pop(pc, None)
            # Re-warm from zero so the region recompiles only if it
            # stays hot after the modification.
            self.counts[pc] = 0
        self.invalidations += dropped
        return dropped

    def watched_pages(self) -> frozenset[int]:
        """The code pages the compiled blocks cover.  Every change to
        ``page_index`` goes through :meth:`_changed`, which drops the
        set, so it is rebuilt once per change, not once per attach."""
        watched = self._watched
        if watched is None:
            watched = self._watched = frozenset(self.page_index)
        return watched

    def stats(self) -> dict:
        attaches = self.warm_hits + self.warm_misses
        return {
            "image": self.name,
            "blocks": len(self.blocks),
            "compiles": self.compiles,
            "invalidations": self.invalidations,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "warm_hit_ratio": (self.warm_hits / attaches) if attaches else 0.0,
            "replays": self.replays,
        }


class JitDomain:
    """One engine's superblock domain: per-image caches + counters.

    One domain per hypervisor backend (one per Wasp, one per cluster
    core), never process-global: two same-seed runs in one process must
    both start cold so telemetry snapshots stay byte-identical.
    """

    MAX_IMAGES = 16

    def __init__(self, threshold: int | None = None) -> None:
        if threshold is None:
            threshold = int(os.environ.get("REPRO_JIT_THRESHOLD",
                                           DEFAULT_THRESHOLD))
        self.threshold = max(1, threshold)
        self._images: "OrderedDict[tuple, ImageBlockCache]" = OrderedDict()
        self._digests: dict[int, tuple] = {}
        #: Side exits by reason, incremented by the run loop and the
        #: generated code (plain ints: zero simulated cost, harvested
        #: into telemetry by the hypervisor after each launch).
        self.side_exits: dict[str, int] = {r: 0 for r in SIDE_EXIT_REASONS}
        self.counters: dict[str, int] = {
            "block_runs": 0,
            "block_instructions": 0,
        }

    def image_cache(self, program: "Program",
                    costs: "CostModel") -> ImageBlockCache:
        pid = id(program)
        memo = self._digests.get(pid)
        if memo is None or memo[0] is not program:
            digest = hashlib.sha256(program.image).hexdigest()
            if len(self._digests) > 64:
                self._digests.clear()
            memo = (program, f"{digest[:16]}@{program.base:#x}")
            self._digests[pid] = memo
        key = (memo[1], id(costs))
        cache = self._images.get(key)
        if cache is None:
            cache = self._images[key] = ImageBlockCache(key, memo[1])
            while len(self._images) > self.MAX_IMAGES:
                self._images.popitem(last=False)
        else:
            self._images.move_to_end(key)
        return cache

    def images(self) -> list[ImageBlockCache]:
        return list(self._images.values())

    def stats(self) -> dict:
        total_compiles = sum(c.compiles for c in self._images.values())
        total_inval = sum(c.invalidations for c in self._images.values())
        return {
            "threshold": self.threshold,
            "blocks_compiled": total_compiles,
            "invalidations": total_inval,
            "block_runs": self.counters["block_runs"],
            "block_instructions": self.counters["block_instructions"],
            "side_exits": {r: self.side_exits[r] for r in SIDE_EXIT_REASONS},
            "images": [c.stats() for c in self._images.values()],
        }

    def dump(self) -> list[dict]:
        """Every live compiled block, for ``repro jit dump``."""
        out = []
        for cache in self._images.values():
            for pc in sorted(cache.meta):
                blk = cache.meta[pc]
                out.append({
                    "image": cache.name,
                    "pc": blk.pc,
                    "entry": blk.entry,
                    "length": blk.length,
                    "mask_bits": blk.mask.bit_length(),
                    "paging": blk.paging,
                    "pages": list(blk.pages),
                    "instructions": list(blk.lines),
                })
        return out


class _Residency(NamedTuple):
    """What a region keeps in locals until it leaves the function.

    Derived in :meth:`_Emitter.assemble` once every segment is emitted
    (the union over all of them), because each exit's write-back must
    cover state written by *any* segment: the path that reached the
    exit is not known statically.
    """

    #: General registers written anywhere in the region.
    regs: tuple[str, ...]
    #: True when any segment writes the flags.
    flags: bool
    #: True when any segment has a conditional branch (``_br`` counter).
    branches: bool


class _Goto(NamedTuple):
    """A pending exit to a constant target (see :meth:`_Emitter._goto`)."""

    ind: int
    target: int
    #: Deferred flag assignments this path has not materialised yet.
    flags: tuple[str, ...]


class _Return(NamedTuple):
    """A pending ``ret`` exit (see :meth:`_Emitter.exit_dynamic`)."""

    #: The local holding the popped return address.
    rip: str


class _Segment(NamedTuple):
    """One finished region segment (see :meth:`_Emitter.end_segment`)."""

    head: int
    #: Lines and pending exits: the general body, which is also the
    #: stack window's fallback.
    body: list
    #: The segment's last exit, which every body runs into.
    tail: list
    #: Instructions the segment can retire.
    length: int
    #: Overwrites all three flags before anything observes them (see
    #: :attr:`_Emitter.kills_flags`).
    kills_flags: bool
    #: ``(window test, items)`` of the stack-window fast body, or None
    #: (see :meth:`_Emitter.end_segment`).
    fast: tuple[str, list] | None


class _Window(NamedTuple):
    """Pending stack-window bookkeeping (see :class:`_Emitter`), which
    :meth:`_Emitter.assemble` keeps only where a window can exist."""

    ind: int
    #: True: a refresh, kept in segments with a fast body.  False: an
    #: emptying, kept in regions with any fast body.
    refresh: bool


#: Empties the stack window: with ``_wh`` at 0 no span of a segment
#: fits, whatever ``_wl`` holds.
_EMPTY_WINDOW = "_wh = 0"

#: Instructions that write their first operand.  With ``sp`` there, the
#: write is not a push, pop, call or ret, so it may misalign ``sp``.
_WRITES_DST = frozenset(("mov", "inc", "dec", "pop", *_ALU_EXPR))


def _plus(expr: str, offset: int) -> str:
    """``expr`` plus a constant, as source."""
    if offset > 0:
        return f"{expr} + {offset}"
    if offset < 0:
        return f"{expr} - {-offset}"
    return expr


class _StoreLoop(NamedTuple):
    """A counted store loop at a segment head (see :func:`_match_store_loop`)."""

    #: Instructions per iteration, the back edge included.
    body: int
    #: What the ``add ax`` updates before the ``stos64`` add to ``ax``:
    #: the stored value is ``(head ax + ax_offset) & mask``.
    ax_offset: int
    #: Net per-iteration delta of every register the body writes.
    deltas: dict[str, int]
    #: The register the ``dec`` counts down.
    counter: str


def _match_store_loop(insns: list, head: int, mask: int,
                      isa) -> _StoreLoop | None:
    """Recognise the counted store-loop idiom at the top of a segment.

    The body runs from ``head`` to the first ``jne`` back to ``head``
    and holds exactly one ``stos64``, any ``add reg, imm`` induction
    updates and exactly one ``dec`` of a counter register, which must
    be the last flag writer before the back edge -- the shape of the
    boot's page-directory fill (``pd_loop``).  The counter may not be
    ``ax``, ``di`` or an ``add`` target, so the stored value and the
    address only ever step upwards, and ``di`` moves only by the
    ``stos64``.  Any other instruction disqualifies the segment.
    """
    Reg, Imm = isa.Reg, isa.Imm
    deltas: dict[str, int] = {}
    ax_offset = counter = None
    dec_last = False    # the dec is the last flag writer so far
    for i, insn in enumerate(insns):
        op, ops = insn.op, insn.operands
        if op == "add" and type(ops[0]) is Reg and type(ops[1]) is Imm:
            name = ops[0].name
            deltas[name] = deltas.get(name, 0) + (ops[1].value & mask)
            dec_last = False
        elif op == "dec" and type(ops[0]) is Reg and counter is None:
            counter = ops[0].name
            dec_last = True
        elif op == "stos64" and ax_offset is None:
            ax_offset = deltas.get("ax", 0)
            deltas["di"] = deltas.get("di", 0) + 8
        elif op == "jne" and type(ops[0]) is Imm \
                and ops[0].value & mask == head:
            break
        else:
            return None
    else:
        return None  # no back edge to the head
    if not dec_last or ax_offset is None or counter == "ax" \
            or counter in deltas or deltas["di"] != 8:
        return None
    deltas[counter] = -1
    return _StoreLoop(body=i + 1, ax_offset=ax_offset, deltas=deltas,
                      counter=counter)


class _Emitter:
    """Generates the superblock source, one guest instruction at a time.

    One emitter builds a whole region, segment by segment
    (:meth:`begin_segment` ... :meth:`end_segment`), each traced once.
    What depends on the finished region waits in the segment bodies
    until :meth:`assemble`: exits whose target may be a segment head
    (:meth:`_goto`), and the ``ax`` value ``stos64`` stores
    (``_STOS_AX``).  Only register, immediate and stack forms compile
    (:meth:`emit_insn`), so every guest address is a local.

    The invariant every emission preserves: at every point where an
    exception can *escape* the function, architectural state
    (``cpu.regs``, ``cpu.flags``, ``cpu.rip``) equals the reference
    interpreter's state at that exact point, the clock holds the
    reference cycle count, and ``I._sb_steps`` holds the number of
    instructions fully completed before the raising one.

    The hot path pays for none of that.  Every potentially-raising
    memory access sits in a per-site ``try`` whose ``except`` only
    computes the flags still pending there (see ``pending_flags``),
    records the site's index in ``_k`` and re-raises; one handler
    around the whole segment loop then writes back the region-resident
    state and syncs RIP, steps and the clock from the site's entry in
    the ``_sites`` table.  Returns to the dispatcher likewise set
    ``_rip`` and ``break`` to one epilogue.  CPython 3.11+ makes the
    no-exception path of ``try`` free (zero-cost exceptions), so state
    stays in Python locals from function entry to exit, across internal
    segment transfers included (region residency; see
    :class:`_Residency`), and the write-back code exists twice per
    function rather than once per site.

    Clock policy: within a segment, cycle charges are compile-time
    constants accumulated into ``pend``; completing a path adds its
    ``pend`` to the ``_cy`` local, and leaving the function adds
    ``_cy`` (plus, at a raise site, the site's pending constant) to the
    clock.  Loads defer the flush (nothing observes the clock inside a
    load; the raise handler flushes before propagating).  A store
    that takes the accessor -- EPT first touch, CoW break, watched
    page, straddle or bounds error -- materialises ``_cy + pend`` first,
    because callbacks advance the clock themselves and the tracer
    records their timestamps (trace-byte equality), then sets
    ``_cy = -pend`` so the compile-time ``pend`` stays uniform across
    both branches.  The inline quiet-page store fires no callbacks, so
    the clock stays deferred across it.

    Memory paths, cheapest first (see :meth:`emit_load` and
    :meth:`emit_store`): on paged regions, an aligned word access on
    the memo page indexes a word view with no translation
    (:meth:`_memo_word`); then an inline access -- a word-view index
    when aligned, ``unpack_from``/``pack_into`` otherwise -- behind the
    bounds (loads) or quiet-page (stores) check; then the accessor.
    The views come from ``GuestMemory.word_views()`` in the prologue on
    every invocation: a region is shared by every memory that runs its
    image, and ``release()`` drops a memory's views with its mapping.

    Stack window (widths 4 and 8).  While a segment is traced, every
    line goes into two bodies (:meth:`E`): the general body, and a fast
    body where each ``push``/``pop``/``call``/``ret`` is one word-view
    element ``_vW[_b + k]`` at the access's static offset from the entry
    ``sp`` instead of the checked path (:meth:`_slot`).  An instruction
    that names ``sp`` (or ``stos64``) drops the fast body; its general
    body is then the segment's only one.  The segment's last exit is
    emitted once, into a tail both bodies run into.  The window is the
    page ``[_wl, _wh)``; on paged regions virtual, with frame delta
    ``_wd``.  Invariants, each kept where the window is set or emptied:

    * *In bounds.*  Every quiet page lies inside memory, because memory
      sizes are whole pages and only in-bounds pages become quiet, so
      a window page is a valid index range of ``_v4``/``_v8``.
    * *Quiet, and in the TLB.*  The window is set only from a quiet
      page -- on paged regions the memo page with ``_lq``, which is in
      the TLB -- and emptied (``_wh = 0``) after every accessor store
      and every walk, the only events inside a region that change the
      quiet set or the translations.  So a fast-body store needs no
      callback, and each access is the TLB hit it counts.
    * *Aligned.*  It is set only while ``sp`` is width-aligned; push,
      pop, call and ret keep that, and any other write of ``sp`` (only
      in a segment without a fast body) empties it.
    * *No wrap.*  The test covers the span of every path through the
      fast body, and the top page of the address space is never a
      window, so no ``sp`` there leaves ``[0, mask]``.

    It starts empty, so a region that barely uses the stack pays
    nothing for it, and a general body sets it where a path leaves
    (:meth:`_refresh`).
    """

    def __init__(self, pc: int, mask: int, nbytes: int, paging: bool,
                 costs: "CostModel") -> None:
        self.pc = pc
        self.mask = mask
        self.nbytes = nbytes
        self.paging = paging
        self.costs = costs
        self.sign_bit = (mask + 1) >> 1
        #: Finished segments, in region order.
        self.segments: list[_Segment] = []
        #: The segment being emitted: lines, and pending exits
        #: (:class:`_Goto`, :class:`_Return`) that :meth:`assemble`
        #: resolves.
        self.body: list = []
        #: Whether stack accesses may take the stack window: only the
        #: widths guest memory has word views for.
        self.window = nbytes in _WORD_SHIFT
        #: The segment's stack-window fast body, while it can have one
        #: (see :meth:`end_segment`); None once an instruction rules it
        #: out.  ``sinks`` are the bodies :meth:`E` appends to.
        self.fast: list | None = None
        self.sinks: tuple[list, ...] = ()
        #: Static ``sp`` offset from segment entry, the ``(lowest,
        #: highest end)`` offsets its stack accesses span, and how many
        #: it made so far (fast bodies count them as memo TLB hits).
        self.sp_off = 0
        self.span: tuple[int, int] | None = None
        self.accesses = 0
        #: Whether any segment has a fast body (set by :meth:`assemble`).
        self.has_window = False
        #: (target, return site) of every ``call`` emitted, in order:
        #: the heads they name rank the dispatch chain, and the return
        #: sites are what :meth:`exit_dynamic` predicts.
        self.calls: list[tuple[int, int]] = []
        #: Whether this segment overwrites all three flags before its
        #: first barrier (memory site, branch or store-loop preamble);
        #: None until either happens.  Exits end a segment, so one that
        #: reaches its exit first never kills them.  A transfer into a
        #: segment that does may skip materialising its own pending flags.
        self.kills_flags: bool | None = None
        self.head = pc          # head of the segment being emitted
        #: (instructions, cycles) of one iteration through the first
        #: conditional branch back to ``head``, or None.
        self.back_edge: tuple[int, int] | None = None
        self.count = 0          # instructions emitted in this segment
        self.pend = 0           # statically accumulated un-flushed cycles
        self.reg_loads: list[str] = []   # prologue-loaded registers
        self.defined: set[str] = set()   # registers with live locals
        #: Registers / flags / branches the region has produced so far
        #: (:meth:`assemble` makes them its :class:`_Residency`).
        self.written: dict[str, None] = {}
        self.flags_written = False
        self.branches = False
        #: Deferred flag-local assignments, flag local -> expression
        #: (dead-store elimination: a flag set that is overwritten
        #: before any possible observation is never emitted).  A flag is
        #: observable only where control can leave the function, so:
        #: a memory site keeps them pending and materialises them in its
        #: ``except`` clause; a conditional branch materialises the
        #: flags its predicate reads and, on its taken path, the rest; an
        #: exit materialises them all, except on a constant transfer's
        #: ``continue`` into a segment that :attr:`kills_flags`.  The
        #: next flag-writing instruction drops whatever is still pending.
        self.pending_flags: dict[str, str] | None = None
        #: Register locals the pending flag lines read; a write to one
        #: forces the flush (the deferred lines must still evaluate to
        #: the values they had at the defining instruction).
        self.pending_regs: set[str] = set()
        self.uses_flags_obj = False
        self.read_widths: set[int] = set()
        self.write_widths: set[int] = set()
        #: Raise sites: (next rip, instructions completed before the
        #: raising one in its segment, cycles still to add on top of
        #: ``_cy`` -- or None when the site materialised the clock).
        self.sites: list[tuple[int, int, int | None]] = []

    def begin_segment(self, head: int) -> None:
        """Start emitting a new region segment.

        Per-path state (pending flags, unflushed cycles, instruction
        count) resets: every way to *reach* a segment -- function entry
        or an internal transfer -- has flushed them.  Locals persist,
        which is the point: registers, flags and ``_cy`` stay in Python
        locals across segment transfers.
        """
        self.body = []
        self.head = head
        self.back_edge = None
        self.count = 0
        self.pend = 0
        self.pending_flags = None
        self.pending_regs = set()
        self.kills_flags = None
        self.tail = []
        self.fast = [] if self.window else None
        self.sinks = (self.body,) if self.fast is None \
            else (self.body, self.fast)
        self.sp_off = 0
        self.span = None
        self.accesses = 0

    def end_segment(self) -> None:
        """Add the segment being emitted to the region.

        The segment keeps its fast body when every stack access was a
        ``push``/``pop``/``call``/``ret`` at a static offset from the
        entry ``sp`` and there was at least one.  The window test checks
        the whole span, so every path through the fast body, a
        mid-segment exit included, stays inside the window.
        """
        fast = None
        if self.fast is not None and self.accesses:
            lo, hi = self.span
            test = (f"if _wl <= {_plus('r_sp', lo)}"
                    f" and {_plus('r_sp', hi)} <= _wh:")
            base = "(r_sp + _wd)" if self.paging else "r_sp"
            fast = (test, [f"_b = {base} >> {_WORD_SHIFT[self.nbytes]}"]
                    + self.fast)
        self.segments.append(_Segment(self.head, self.body, self.tail,
                                      self.count, self.kills_flags is True,
                                      fast))

    # -- low-level helpers -------------------------------------------------
    def E(self, line: str, ind: int = 0) -> None:
        """Emit ``line`` into the bodies being emitted (``sinks``)."""
        line = "    " * ind + line
        for sink in self.sinks:
            sink.append(line)

    def F(self, line: str, ind: int = 0) -> None:
        """Emit ``line`` into the fast body only."""
        if self.fast is not None:
            self.fast.append("    " * ind + line)

    @contextmanager
    def _fallback_only(self):
        """Emit into the general body only (a stack access's checked
        path, which the fast body replaces)."""
        sinks = self.sinks
        self.sinks = (self.body,)
        try:
            yield
        finally:
            self.sinks = sinks if self.fast is not None else (self.body,)

    def _no_fast(self) -> None:
        """The segment gets no fast body."""
        fast = self.fast
        self.fast = None
        self.sinks = tuple(sink for sink in self.sinks if sink is not fast)

    def _last_exit(self) -> None:
        """Close both bodies before the segment's last exit: the fast
        body settles ``sp``, the general body refreshes the window, and
        the exit itself is emitted once, into the tail they share."""
        self._refresh()
        self._settle()
        self.sinks = (self.tail,)

    def _slot(self) -> str:
        """The fast body's word-view element for the stack slot at the
        current static offset; records the access in the span."""
        width = self.nbytes
        off = self.sp_off
        lo, hi = self.span or (off, off + width)
        self.span = (min(lo, off), max(hi, off + width))
        self.accesses += 1
        return f"_v{width}[{_plus('_b', off // width)}]"

    def _settle(self, ind: int = 0) -> None:
        """Before a fast-body exit: apply the net ``sp`` offset, and on
        paged regions count the accesses so far as memo TLB hits."""
        if self.fast is None:
            return
        if self.sp_off:
            self.F(f"r_sp = {_plus('r_sp', self.sp_off)}", ind)
        if self.paging and self.accesses:
            self.F(f"_th += {self.accesses}", ind)

    def _refresh(self, ind: int = 0) -> None:
        """Where a path leaves the general body: make ``sp``'s page the
        window when it may be one (see :meth:`_refresh_lines`)."""
        if self.fast is not None and self.accesses:
            self.body.append(_Window(ind, True))

    def _empty(self, ind: int = 0) -> None:
        """Empty the window (into every body)."""
        if self.window:
            item = _Window(ind, False)
            for sink in self.sinks:
                sink.append(item)

    def _refresh_lines(self) -> list[str]:
        """Set the window to ``sp``'s page when ``sp`` is aligned and the
        page is quiet -- on paged regions, the memo page with ``_lq``."""
        width = self.nbytes
        # The top page of the address space is never a window, so no
        # fast-body ``sp`` reaches ``mask + 1`` and none needs a wrap.
        test = [f"not r_sp & {width - 1}", f"r_sp < {self.mask + 1 - 4096}"]
        if self.paging:
            test[:0] = ["r_sp >> 12 == _lpg", "_lq"]
        else:
            test.insert(1, "r_sp >> 12 in _quiet")
        lines = [f"if {' and '.join(test)}:",
                 "    _wl = r_sp & -4096",
                 "    _wh = _wl + 4096"]
        if self.paging:
            lines.append("    _wd = _ld")
        return lines

    def reg_read(self, name: str) -> str:
        if name not in self.defined:
            self.reg_loads.append(name)
            self.defined.add(name)
        return f"r_{name}"

    def reg_write(self, name: str) -> str:
        if self.pending_flags and name in self.pending_regs:
            # A deferred flag line reads this register's local: emit the
            # flag assignments now, before the overwrite is emitted.
            self.flush_flags()
        if name not in self.defined:
            # Prologue-load even write-first registers: the region can be
            # *entered* at any segment, and a later segment may read the
            # local before this segment's write has run on that path.
            self.reg_loads.append(name)
            self.defined.add(name)
        self.written[name] = None
        return f"r_{name}"

    def _ensure_flags(self) -> None:
        # Flag locals are always defined at function entry (the prologue
        # loads them whenever the region touches flags at all): a region
        # can be *entered* at any segment, so per-segment definedness
        # cannot be proven statically.
        self.uses_flags_obj = True

    def _write_flags(self) -> None:
        """All three flags are about to be overwritten."""
        self.flags_written = True
        self.uses_flags_obj = True
        if self.kills_flags is None:
            self.kills_flags = True

    def _barrier(self) -> None:
        """A point where the flag locals may be observed."""
        if self.kills_flags is None:
            self.kills_flags = False

    def _owed(self) -> tuple[str, ...]:
        """The pending flag assignments, as lines."""
        return tuple(f"{name} = {expr}"
                     for name, expr in (self.pending_flags or {}).items())

    def flush_flags(self, only: tuple[str, ...] | None = None) -> None:
        """Materialise deferred flag-local assignments: all of them, or
        just the flags named in ``only``, leaving the rest pending."""
        pending = self.pending_flags
        if not pending:
            return
        if only is None:
            lines = self._owed()
            self.pending_flags = None
            self.pending_regs = set()
        else:
            lines = [f"{name} = {pending.pop(name)}" for name in only
                     if name in pending]
        for line in lines:
            self.E(line)

    def _writeback_lines(self, res: _Residency) -> list[str]:
        """Region-resident state back to its architectural homes."""
        lines = [f"regs['{n}'] = r_{n}" for n in res.regs]
        if res.flags:
            lines += ["flags.zero = fz", "flags.sign = fs",
                      "flags.carry = fc"]
        if res.branches:
            lines.append("I._jit_exits['branch'] += _br")
        if self.paging:
            lines.append("I.tlb_hits += _th")
        return lines

    def _site(self, k: int, next_rip: int, advance: bool) -> int:
        """Register a raise site; returns its ``_sites`` index."""
        self.sites.append((next_rip, k, self.pend if advance else None))
        return len(self.sites) - 1

    def _except(self, k: int, next_rip: int, advance: bool,
                ind: int = 0) -> None:
        """Close a guarded ``try``: materialise the pending flags (only
        an escaping exception can observe them here) and name the site
        for the handler."""
        self.E("except BaseException:", ind)
        for line in self._owed():
            self.E(line, ind + 1)
        self.E(f"_k = {self._site(k, next_rip, advance)}", ind + 1)
        self.E("raise", ind + 1)

    def raise_site(self, k: int, next_rip: int, charge: int) -> None:
        """Name the site of an unconditional ``raise`` (hlt/out)."""
        self._last_exit()
        self.flush_flags()
        self.pend += charge
        self.E(f"_k = {self._site(k, next_rip, advance=True)}")
        self.pend = 0

    # -- memory ------------------------------------------------------------
    def _translate(self, a: str, ind: int = 0) -> str:
        """Virtual -> physical with a last-page memo over the TLB.

        ``_lpg``/``_lfr`` memoise the most recent page's frame for the
        lifetime of one region invocation.  The memo is count-exact: a
        memo hit implies the page is (still) in the TLB -- the access
        that populated the memo either hit the TLB or walked, and the
        walk fills the TLB; nothing inside a region can evict it except
        a store that reaches ``_touch_page`` on a translation-watched
        page, which only the accessor store path can do (watched pages
        are never quiet), and that path resets the memo.  Hits are
        counted in the ``_th`` local and folded into ``I.tlb_hits`` at
        every function exit (return or raise); misses count inside the
        walk (``I._phys``).

        Filling the memo also sets ``_ld`` (frame minus page base, so
        ``a + _ld`` is the physical address of any ``a`` on the page)
        and ``_lq`` (the frame is quiet) for the word fast path of
        :meth:`_memo_word`.  They are set after the walk, which can
        un-quiet a page-table page.  Inside a region nothing else but an
        accessor store changes the quiet set, and every accessor store
        resets the memo, so ``_lq`` stays exact for as long as ``_lpg``
        does.  The stack window rests on the same argument, so a walk
        empties it too (an accessor store does, in :meth:`emit_store`):
        the window is only ever set from the memo page with ``_lq``, and
        keeps its own frame delta ``_wd``, so memo refills between
        walks leave it alone.
        """
        self.E(f"_pg = {a} >> 12", ind)
        self.E("if _pg == _lpg:", ind)
        self.E("_th += 1", ind + 1)
        self.E(f"_p = _lfr | ({a} & 4095)", ind + 1)
        self.E("else:", ind)
        self.E("_f = tlb_get(_pg)", ind + 1)
        self.E("if _f is None:", ind + 1)
        self.E(f"_p = I._phys({a})", ind + 2)
        self.E("_lfr = _p & -4096", ind + 2)
        self._empty(ind + 2)
        self.E("else:", ind + 1)
        self.E("_th += 1", ind + 2)
        self.E(f"_p = _f | ({a} & 4095)", ind + 2)
        self.E("_lfr = _f", ind + 2)
        self.E("_lpg = _pg", ind + 1)
        self.E("_ld = _lfr - (_pg << 12)", ind + 1)
        self.E("_lq = _lfr >> 12 in _quiet", ind + 1)
        return "_p"

    @staticmethod
    def _word(phys: str, width: int) -> tuple[str, str] | None:
        """``(aligned test, view element)`` for a 4- or 8-byte access at
        physical ``phys``; None for other widths."""
        shift = _WORD_SHIFT.get(width)
        if shift is None:
            return None
        return (f"not {phys} & {width - 1}",
                f"_v{width}[{phys} >> {shift}]")

    def _memo_word(self, a: str, width: int, store: bool,
                   ind: int) -> str | None:
        """Open the paged word fast path: an aligned access on the memo
        page indexes the word view at ``a + _ld``, skipping translation.

        It counts its TLB hit as the memo hit it stands for.  Stores
        also need the memo frame quiet (``_lq``).  Loads need only an
        in-bounds frame, which every live memo frame is: memory sizes
        are whole pages, and any access to an out-of-range frame takes
        the accessor, which raises out of the region.  Returns the view
        element, or None when the access has no fast path.
        """
        word = self._word(a, width)
        if word is None:
            return None
        test = [f"{a} >> 12 == _lpg"]
        if store:
            test.append("_lq")
        test.append(word[0])
        self.E(f"if {' and '.join(test)}:", ind)
        self.E("_th += 1", ind + 1)
        return f"_v{width}[({a} + _ld) >> {_WORD_SHIFT[width]}]"

    def emit_load(self, a: str, width: int, k: int, next_rip: int) -> str:
        """A guest load from the address in local ``a``; ``pend``
        carries past it (deferred flush).

        Inlines the accessor's own fast path -- bounds check plus an
        in-place decode from the backing mapping, by a word-view index
        when the access is 4 or 8 bytes and aligned, else by
        ``unpack_from`` -- and falls back to the accessor (which
        re-checks and raises the proper error) when out of bounds.
        Paged regions try the memo word path (:meth:`_memo_word`)
        first.  Addresses are non-negative by construction (masked
        register locals, TLB frames).  Pending flags stay pending (see
        :meth:`_except`).
        """
        self._barrier()
        self.read_widths.add(width)
        self.E("try:")
        ind = 1
        phys = a
        if self.paging:
            fast = self._memo_word(a, width, False, ind)
            if fast is not None:
                self.E(f"_v = {fast}", ind + 1)
                self.E("else:", ind)
                ind += 1
            phys = self._translate(a, ind)
        self.E(f"if {phys} <= _sz{width}:", ind)
        unpack = f"_v = _up{width}(_data, {phys})[0]"
        word = self._word(phys, width)
        if word is None:
            self.E(unpack, ind + 1)
        else:
            self.E(f"if {phys} & {width - 1}:", ind + 1)
            self.E(unpack, ind + 2)
            self.E("else:", ind + 1)
            self.E(f"_v = {word[1]}", ind + 2)
        self.E("else:", ind)
        self.E(f"_v = _mr[{width}]({phys})", ind + 1)
        self._except(k, next_rip, advance=True)
        return "_v"

    def emit_store(self, a: str, val_expr: str, width: int,
                   k: int, next_rip: int) -> None:
        """A guest store to the address in local ``a``.

        Inline path: an in-bounds store to a *quiet* page (already
        dirty, touched, not CoW-pending, not watched) that does not
        straddle into the next page writes in place -- a word-view
        index when it is 4 or 8 bytes and aligned (an aligned word
        never straddles), else ``pack_into`` -- with no callbacks, so
        the clock stays deferred.  Paged regions try the memo word path
        (:meth:`_memo_word`) before translating.  ``val_expr`` must
        already lie in ``[0, 2**(8*width))`` (every masked local does).

        Every other store calls the accessor with the clock
        materialised (see the class docstring), and on paged regions
        resets the translation memo, because a watched-page store
        clears every registered TLB.  Pending flags stay pending, as
        for loads.
        """
        self._barrier()
        self.write_widths.add(width)
        ind = 0
        phys = a
        if self.paging:
            fast = self._memo_word(a, width, True, ind)
            if fast is not None:
                self.E(f"{fast} = {val_expr}", ind + 1)
                self.E("else:", ind)
                ind += 1
            self.E("try:", ind)
            phys = self._translate(a, ind + 1)
            self._except(k, next_rip, advance=True, ind=ind)
        # Only in-bounds pages ever become quiet (memory sizes are whole
        # pages), so quiet + no straddle is also the bounds check.
        quiet = f"{phys} >> 12 in _quiet"
        kw = "if"
        word = self._word(phys, width)
        if word is not None:
            self.E(f"if {word[0]} and {quiet}:", ind)
            self.E(f"{word[1]} = {val_expr}", ind + 1)
            kw = "elif"
        self.E(f"{kw} {quiet} and ({phys} & 4095) <= {4096 - width}:", ind)
        self.E(f"_pk{width}(_data, {phys}, {val_expr})", ind + 1)
        self.E("else:", ind)
        ind += 1
        self.E(f"clk.cycles += _cy + {self.pend}", ind)
        self.E("try:", ind)
        self.E(f"_mw[{width}]({phys}, {val_expr})", ind + 1)
        self._except(k, next_rip, advance=False, ind=ind)
        self.E(f"_cy = {-self.pend}", ind)
        if self.paging:
            self.E("_lpg = -1", ind)
        self._empty(ind)

    def step(self, dst: str, src: str, delta: int) -> None:
        """``dst = (src + delta) & mask`` for a local ``src`` in
        ``[0, mask]`` and ``|delta| <= mask``: the wrap is a branch that
        runs only when the sum leaves the range."""
        if delta < 0:
            self.E(f"{dst} = {src} - {-delta}")
            self.E(f"if {dst} < 0:")
            self.E(f"{dst} += {self.mask + 1}", 1)
        else:
            self.E(f"{dst} = {src} + {delta}")
            self.E(f"if {dst} > {self.mask}:")
            self.E(f"{dst} -= {self.mask + 1}", 1)

    # -- operands ----------------------------------------------------------
    def pure_expr(self, operand, isa) -> str:
        """Reg/Imm operand expression (masked)."""
        if type(operand) is isa.Reg:
            return self.reg_read(operand.name)
        return str(operand.value & self.mask)

    # -- flags -------------------------------------------------------------
    #: Value-range kind of each ALU op's raw Python result, given masked
    #: (non-negative, <= mask) operands.  Folds the carry test ``t < 0
    #: or t > mask`` to one comparison -- or, for ops whose result
    #: already lies in [0, mask], makes the masking itself vanish.
    _ALU_KIND = {"add": "pos", "shl": "pos", "mul": "pos",
                 "sub": "neg",
                 "and": "fit", "or": "fit", "xor": "fit", "shr": "fit"}

    def set_from_result(self, result_expr: str, kind: str) -> str:
        """Inline ``Flags.set_from_result``; returns the masked local.

        The flag assignments are deferred (``pending_flags``); a prior
        deferred set still pending here is dead -- this one overwrites
        all three flags with no barrier in between -- and is dropped.
        The result wraps only on its overflow branch, and the sign test
        is a comparison, so the common path evaluates no multi-digit
        constant (see DESIGN.md SS15, "Integer width").
        """
        self._write_flags()
        self.pending_flags = None
        self.pending_regs = set()
        self.E(f"_t = {result_expr}")
        mask = self.mask
        if kind == "fit":  # result already in [0, mask]
            self.pending_flags = {
                "fz": "_t == 0",
                "fs": f"_t >= {self.sign_bit}",
                "fc": "False",
            }
            return "_t"
        if kind == "pos":      # result >= 0: only overflow can carry
            carry = f"_t > {mask}"
            self.E(f"_m = _t & {mask} if _t > {mask} else _t")
        else:                  # "neg", result >= -mask: only borrow can
            carry = "_t < 0"
            self.E(f"_m = _t + {mask + 1} if _t < 0 else _t")
        self.pending_flags = {
            "fz": "_m == 0",
            "fs": f"_m >= {self.sign_bit}",
            "fc": carry,
        }
        return "_m"

    def _signed_less(self, lhs: str, rhs: str) -> str:
        """``signed(lhs) < signed(rhs)`` for operands in ``[0, mask]``,
        as comparisons against the sign bit ``S``: an operand is
        negative exactly when it is at least ``S``, and two operands of
        the same sign compare as unsigned."""
        sign = self.sign_bit
        if rhs.isdigit():
            k = int(rhs)
            if k < sign:
                return f"{lhs} < {k} or {lhs} >= {sign}"
            return f"{sign} <= {lhs} < {k}"
        if lhs.isdigit():
            k = int(lhs)
            if k < sign:
                return f"{k} < {rhs} < {sign}"
            return f"{rhs} < {sign} or {rhs} > {k}"
        return (f"{lhs} < {rhs} if ({lhs} >= {sign}) is ({rhs} >= {sign})"
                f" else {lhs} >= {sign}")

    def cmp_flags(self, lhs: str, rhs: str) -> None:
        """Inline the cmp flag protocol.

        Both operands are masked (``[0, mask]``), so the reference
        protocol -- ``set_from_result(l - r)`` then the signed sign
        flag -- folds: zero is ``l == r``, carry is ``l < r``, sign is
        the signed order (:meth:`_signed_less`), and the difference
        temporaries disappear entirely.  The deferred lines read the
        operand locals directly and nothing else, which is why
        ``reg_write`` flushes when it is about to overwrite one of them.
        """
        self._write_flags()
        self.pending_flags = {
            "fz": f"{lhs} == {rhs}",
            "fc": f"{lhs} < {rhs}",
            "fs": self._signed_less(lhs, rhs),
        }
        self.pending_regs = {e[2:] for e in (lhs, rhs)
                             if e.startswith("r_")}

    # -- exits -------------------------------------------------------------
    @staticmethod
    def _leave(rip_expr: str) -> list[str]:
        """Return to the dispatcher through the shared epilogue.

        Expects ``_done``/``_cy`` already to include the instructions
        and cycles retired on this path, and the flag locals to be
        exact.
        """
        return [f"_rip = {rip_expr}", "break"]

    @staticmethod
    def _transfer(dest: int, length: int) -> list[str]:
        """Continue at segment ``dest`` when the budget covers it."""
        return [f"if _left - _done >= {length}:", f"    _pc = {dest}",
                "    continue"]

    def _goto(self, target: int, ind: int = 0) -> None:
        """Continue at guest ``target``, owing the pending flags.

        If the finished region has a segment headed at ``target``, this
        is an internal transfer (``_pc = i; continue``) when the budget
        covers that segment; state stays in locals across it.  Whether
        it has is known only in :meth:`assemble`, which expands the
        pending :class:`_Goto` item.  The flags it owes are
        materialised on the path back to the dispatcher, and on the
        ``continue`` too unless the target segment overwrites them
        before anything can observe them (:attr:`kills_flags`).
        """
        item = _Goto(ind, target, self._owed())
        for sink in self.sinks:
            sink.append(item)

    def _complete(self, retired: int, ind: int = 0) -> None:
        """Fold a completed path into ``_done`` and ``_cy``."""
        self.E(f"_done += {retired}", ind)
        if self.pend:
            self.E(f"_cy += {self.pend}", ind)

    def exit_dynamic(self, rip_expr: str, retired: int) -> None:
        """Segment completion with a runtime RIP (``ret``).

        The flags are materialised first.  :meth:`assemble` then
        expands the pending :class:`_Return` item into a predicted
        return: the runtime target is compared with each return site
        of a ``call`` in the region that heads a segment, and a match
        transfers control internally behind its constant budget check.
        That keeps ``ret`` chains -- fib's unwind -- inside the
        generated function without a dict probe.  Any other target is
        looked up in the region's segment map, and a miss there returns
        to the dispatcher with exact architectural state.
        """
        self._last_exit()
        self.flush_flags()
        self._complete(retired)
        self.pend = 0
        item = _Return(rip_expr)
        for sink in self.sinks:
            sink.append(item)

    def exit_const(self, target: int) -> None:
        """Segment completion continuing at a known PC."""
        self._last_exit()
        self._complete(self.count)
        self.pend = 0
        self._goto(target)

    def branch_exit(self, op: str, target: int) -> None:
        """A predicted-not-taken branch's taken path.

        Only the flags ``op``'s predicate reads are materialised before
        the test.  The taken path owes the rest to its :meth:`_goto`,
        and the fall-through keeps them pending.  A taken target that is
        itself a region segment transfers internally (a mispredict then
        costs one counter bump and a compare, not a dispatcher round
        trip); otherwise this is a true side exit.  Either way the
        mispredict counts in ``_br`` and ``pend`` is *not* reset: the
        fall-through path still carries it.  The taken path leaves the
        general body, so it refreshes the stack window there, and it
        settles the fast body's ``sp``.
        """
        self._barrier()
        self.flush_flags(_JCC_READS[op])
        self.branches = True
        if target == self.head and self.back_edge is None:
            self.back_edge = (self.count + 1, self.pend)
        self.E(f"if {_JCC_EXPR[op]}:")
        self.E("_br += 1", 1)
        self._refresh(1)
        self._settle(1)
        self._complete(self.count + 1, 1)
        self._goto(target, 1)

    def store_loop_preamble(self, loop: _StoreLoop) -> None:
        """Prepend ``loop``'s closed-form fast-forward to this segment.

        The preamble retires ``_n`` whole *taken* iterations: exactly
        what the per-iteration body would do on the inline quiet-page
        path, which fires no callbacks and never materialises the
        clock.  ``_n`` is the least of the four bounds in the module
        docstring; anything they exclude (the final iteration, a new
        page's first store, a non-quiet page, a budget tail) is left to
        the body below, unchanged.  It runs at the head, where every way
        in has flushed pending cycles.  It also counts as a flag
        barrier (a segment with a preamble never :attr:`kills_flags`),
        so every way in has materialised the flags too.
        """
        self.kills_flags = False
        body, cycles = self.back_edge
        assert body == loop.body
        mask = self.mask
        seg_len = self.count
        counter = self.reg_read(loop.counter)
        di = self.reg_read("di")
        lines = [f"_n = {counter} - 1",
                 f"if _n > 0 and {di} >> 12 in _quiet:"]
        # The page bound also keeps ``di`` from wrapping: pages tile
        # [0, mask], so a store that fits its page ends at or below mask.
        bounds = ["_n", f"(4096 - ({di} & 4095)) // 8",
                  f"(_left - _done - {seg_len}) // {body}"]
        # A non-zero offset comes from an ``add ax``, so ``ax`` is
        # region-resident whenever the offset is not 0.
        offset = loop.ax_offset
        lines.append(f"    _fv = ({_STOS_AX} + {offset}) & {mask}" if offset
                     else f"    _fv = {_STOS_AX}")
        vdelta = loop.deltas.get("ax", 0)
        if vdelta:
            bounds.append(f"({mask} - _fv) // {vdelta} + 1")
            values = f"*range(_fv, _fv + _n * {vdelta}, {vdelta})"
        else:
            values = "*((_fv,) * _n)"
        lines.append(f"    _n = min({', '.join(bounds)})")
        lines.append("    if _n > 0:")
        lines.append(f"        _pack_into(f'<{{_n}}Q', _data, {di}, {values})")
        for name, delta in loop.deltas.items():
            if delta:
                lines.append(f"        r_{name} = (r_{name} + _n * {delta})"
                             f" & {mask}")
        # Every retired iteration was taken on the dec's flags with the
        # counter still >= 1 after it: zero and carry clear, sign the
        # counter's top bit.
        lines.append("        fz = fc = False")
        lines.append(f"        fs = {counter} >= {self.sign_bit}")
        lines.append("        _br += _n")
        lines.append(f"        _done += _n * {body}")
        if cycles:
            lines.append(f"        _cy += _n * {cycles}")
        self.body[:0] = lines

    # -- assembly ----------------------------------------------------------
    def _layout(self, seg_map: dict[int, int],
                heat: Callable[[int], tuple]) -> tuple[list, list]:
        """Hot-first order: the segment indices in the order the
        dispatch chain tests them, and the predicted return sites as
        ``(site, segment)`` pairs, hottest first.

        A segment ranks by its static in-degree: the internal-transfer
        items that target its head, plus every emitted ``call`` whose
        target or return site it heads.  Ties go to the hotter head by
        ``heat`` (see :func:`compile_block`), then to region order.
        Return sites rank by ``heat`` first, since in-degree cannot tell
        a site reached once per run from one reached once per call;
        ties keep the chain's order.
        """
        indeg = [0] * len(self.segments)
        for seg in self.segments:
            for item in seg.body + seg.tail:
                if type(item) is _Goto:
                    dest = seg_map.get(item.target)
                    if dest is not None:
                        indeg[dest] += 1
        sites = {}
        for target, site in self.calls:
            for pc in (target, site):
                dest = seg_map.get(pc)
                if dest is not None:
                    indeg[dest] += 1
            if site in seg_map:
                sites[seg_map[site]] = site
        heats = [heat(seg.head) for seg in self.segments]
        # Stable sorts (``reverse`` keeps ties in order): hottest first
        # in region order, then by in-degree.
        order = sorted(range(len(indeg)), key=heats.__getitem__,
                       reverse=True)
        order.sort(key=lambda i: -indeg[i])
        returns = sorted((i for i in order if i in sites),
                         key=heats.__getitem__, reverse=True)
        return order, [(sites[i], i) for i in returns]

    def _expand_goto(self, item: _Goto, seg_map: dict[int, int],
                     seg_lens: tuple) -> list[str]:
        """A pending :class:`_Goto`'s lines: the internal transfer, if
        its target heads a segment, then the return to the dispatcher.
        The owed flags precede the transfer unless the target segment
        overwrites them unobserved; the return always gets them."""
        owed = list(item.flags)
        out = []
        dest = seg_map.get(item.target)
        if dest is not None:
            if not self.segments[dest].kills_flags:
                out += owed
                owed = []
            out += self._transfer(dest, seg_lens[dest])
        return out + owed + self._leave(str(item.target))

    def _expand_return(self, rip: str, returns: list,
                       seg_lens: tuple) -> list[str]:
        """A pending :class:`_Return`'s lines: the predicted return
        sites first, then the segment-map lookup for any other target,
        then the return to the dispatcher."""
        out = []
        kw = "if"
        for site, dest in returns:
            out.append(f"{kw} {rip} == {site}:")
            out += ["    " + l for l in self._transfer(dest, seg_lens[dest])]
            kw = "elif"
        lookup = [f"_sg = _map.get({rip})",
                  "if _sg is not None and _left - _done >= _lens[_sg]:",
                  "    _pc = _sg",
                  "    continue"]
        if returns:
            out.append("else:")
            lookup = ["    " + l for l in lookup]
        return out + lookup + self._leave(rip)

    def _render(self, items: list, pad: str, seg_map: dict[int, int],
                seg_lens: tuple, returns: list,
                fast: bool = False) -> list[str]:
        """A body's source lines at indentation ``pad``, its pending
        items expanded; ``fast`` says the segment has a fast body."""
        lines = []
        for item in items:
            if type(item) is str:
                lines.append(pad + item)
                continue
            if type(item) is _Window:
                if item.refresh:
                    out = self._refresh_lines() if fast else []
                else:
                    out = [_EMPTY_WINDOW] if self.has_window else []
                lines += [pad + "    " * item.ind + l for l in out]
                continue
            if type(item) is _Goto:
                ind = item.ind
                out = self._expand_goto(item, seg_map, seg_lens)
            else:
                ind = 0
                out = self._expand_return(item.rip, returns, seg_lens)
            lines += [pad + "    " * ind + l for l in out]
        return lines

    def assemble(self, seg_map: dict[int, int], seg_lens: tuple,
                 heat: Callable[[int], tuple]) -> str:
        """The region function's source, given its layout: guest head
        pc -> segment index, each segment's length, and how hot each
        guest PC ran (see :meth:`_layout`).

        The dispatch chain tests segments hot-first (:meth:`_layout`);
        a segment's index, which entries pass as ``_pc``, is its region
        order either way.  Pending exits expand here: constant ones into
        internal transfers (:meth:`_expand_goto`), ``ret`` into
        predicted returns (:meth:`_expand_return`).  A segment with a
        fast body tests the stack window and runs that body or, under
        ``else``, its general body; both run into the segment's tail.
        A region without fast bodies keeps no window, and its bodies
        drop the lines that empty one.
        """
        self.has_window = any(seg.fast for seg in self.segments)
        res = _Residency(tuple(self.written), self.flags_written,
                         self.branches)
        # One tuple unpack binds every per-interpreter object the region
        # needs (the tuple is built once per interpreter; see
        # Interpreter._sb_ctx).  ``flags`` stays a separate read:
        # cpu.reset()/load_state() replace the Flags object.
        prologue = [
            "cpu, regs, clk, tlb_get, _mr, _mw, _mem = I._sb_ctx",
        ]
        resident = res.regs
        if resident:
            # Wide-register guard: a resident local is the masked dict
            # value, and exits write it back even on paths that never
            # wrote it -- exact only while every such value fits the
            # mask.  Otherwise refuse entry before running anything.
            for name in resident:
                prologue.append(f"r_{name} = regs['{name}']")
            prologue.append(f"if ({' | '.join('r_' + n for n in resident)})"
                            f" & {~self.mask}:")
            prologue.append("    return -1")
        for name in self.reg_loads:
            if name not in resident:
                prologue.append(f"r_{name} = regs['{name}'] & {self.mask}")
        if self.uses_flags_obj:
            # Always defined at entry: the region can be entered at any
            # segment, so flag-local definedness is not path-provable.
            prologue.append("flags = cpu.flags")
            prologue.append("fz = flags.zero")
            prologue.append("fs = flags.sign")
            prologue.append("fc = flags.carry")
        if self.read_widths or self.write_widths:
            # Re-derived each invocation: a region runs over every
            # memory its image is loaded in, each with its own mapping.
            prologue.append("_data = _mem._data")
            for width in sorted(self.read_widths):
                prologue.append(f"_sz{width} = _mem.size - {width}")
                prologue.append(f"_up{width} = _U{8 * width}.unpack_from")
            for width in sorted(self.write_widths):
                prologue.append(f"_pk{width} = _U{8 * width}.pack_into")
            if not _WORD_SHIFT.keys().isdisjoint(self.read_widths
                                                 | self.write_widths):
                # Also per memory: released with its mapping.
                prologue.append("_v4, _v8 = _mem.word_views()")
            if self.write_widths or self.paging or self.has_window:
                prologue.append("_quiet = _mem._quiet")
        if self.paging:
            # Translation memo (invalid at entry) + batched TLB-hit count.
            prologue.append("_lpg = -1")
            prologue.append("_lfr = _ld = 0")
            prologue.append("_lq = False")
            prologue.append("_th = 0")
        if self.has_window:
            # The stack window starts empty: the first general body to
            # end on a window page sets it.
            prologue.append("_wl = " + _EMPTY_WINDOW)
        if self.branches:
            prologue.append("_br = 0")
        # ``_done``: instructions retired by completed paths (raise
        # sites add their segment-relative offset); ``_cy``: their
        # cycles, not yet on the clock; ``_k``: the raising site.
        prologue.append("_done = 0")
        prologue.append("_cy = 0")
        prologue.append("_k = -1")
        writeback = self._writeback_lines(res)
        lines = [f"def _superblock(I, _left, _pc):  # region {self.pc:#x}"]
        lines += ["    " + l for l in prologue]
        lines.append("    try:")
        lines.append("        while True:")
        order, returns = self._layout(seg_map, heat)
        kw = "if"
        pad = " " * 16
        for idx in order:
            seg = self.segments[idx]
            lines.append(f"            {kw} _pc == {idx}:  # {seg.head:#x}")
            if seg.fast is None:
                lines += self._render(seg.body, pad, seg_map, seg_lens,
                                      returns)
            else:
                test, fast = seg.fast
                lines.append(pad + test)
                lines += self._render(fast, pad + "    ", seg_map, seg_lens,
                                      returns)
                lines.append(pad + "else:")
                lines += self._render(seg.body, pad + "    ", seg_map,
                                      seg_lens, returns, fast=True)
            lines += self._render(seg.tail, pad, seg_map, seg_lens, returns)
            kw = "elif"
        # The one raise path: exact state for the site that raised.  A
        # stray exception (``_k`` unset, e.g. an interrupt) propagates
        # untouched, as from anywhere outside the region.
        lines.append("    except BaseException:")
        lines.append("        if _k >= 0:")
        lines.append("            _xr, _xn, _xc = _sites[_k]")
        lines += ["            " + l for l in writeback]
        lines.append("            cpu.rip = _xr")
        lines.append("            I._sb_steps = _done + _xn")
        lines.append("            if _xc is not None:")
        lines.append("                clk.cycles += _cy + _xc")
        lines.append("        raise")
        # The one return path.
        lines += ["    " + l for l in writeback]
        lines.append("    cpu.rip = _rip")
        lines.append("    clk.cycles += _cy")
        lines.append("    return _done")
        # A region-resident ``ax`` local equals the dict value (the
        # wide-register guard proved it fits); otherwise the local is
        # the masked image of a possibly-wider value, so read the dict,
        # which the region never writes, masked to 64 bits as the
        # accessor masks it.
        ax = "r_ax" if "ax" in resident else f"regs['ax'] & {_M64}"
        return ("\n".join(lines) + "\n").replace(_STOS_AX, ax)

    # -- the per-instruction dispatcher ------------------------------------
    def emit_insn(self, insn: "Instr", isa) -> tuple[bool, int | None]:
        """Emit one instruction (see :meth:`_emit_insn`).

        An instruction that names ``sp`` as an operand reads or writes
        it outside the static offsets the fast body tracks, so its
        segment gets no fast body; one that writes ``sp`` also empties
        the window, which may exist only while ``sp`` is aligned.
        """
        included, nxt = self._emit_insn(insn, isa)
        if included and self.window:
            regs = [o.name if type(o) is isa.Reg else None
                    for o in insn.operands]
            if "sp" in regs:
                self._no_fast()
                if insn.op in _WRITES_DST and regs[0] == "sp":
                    self._empty()
        return included, nxt

    def _emit_insn(self, insn: "Instr", isa) -> tuple[bool, int | None]:
        """Emit one instruction.

        Returns ``(included, next_pc)``: ``(False, None)`` means the
        instruction cannot be fused (close the block before it),
        ``(True, None)`` means it terminated the block itself, and
        ``(True, pc)`` continues tracing at ``pc``.  A refused
        instruction leaves the emitter untouched.

        Only the forms guests run compile: register and immediate
        operands, the stack (``push``/``pop``/``call imm``/``ret``),
        ``stos64``, conditional branches, ``hlt``, ``out`` and
        ``cli``/``sti``.  Every other form -- any memory or control-
        register operand, ``jmp``, dynamic ``call``, ``in``, ``nop`` --
        stays on the per-instruction path, whose generic handler is the
        reference ``_dispatch``.
        """
        op = insn.op
        ops = insn.operands
        Reg, Imm = isa.Reg, isa.Imm
        for o in ops:
            if type(o) is not Reg and type(o) is not Imm:
                return False, None
        costs = self.costs
        base = costs.INSN_BASE
        mask = self.mask
        width = self.nbytes
        next_rip = insn.addr + insn.size
        k = self.count

        if op in ("cli", "sti"):
            self.pend += base
            self.uses_flags_obj = True
            self.E(f"flags.interrupts = {op == 'sti'}")
            self.count += 1
            return True, next_rip

        if op == "mov":
            dst, src = ops
            if type(dst) is Imm:
                return False, None  # write-to-immediate: keep on slow path
            sexpr = self.pure_expr(src, isa)
            self.pend += base
            self.E(f"{self.reg_write(dst.name)} = {sexpr}")
            self.count += 1
            return True, next_rip

        alu = _ALU_EXPR.get(op)
        if alu is not None:
            dst, src = ops
            if type(dst) is Imm:
                return False, None
            dexpr = self.pure_expr(dst, isa)
            sexpr = self.pure_expr(src, isa)
            self.pend += base
            masked = self.set_from_result(alu.format(l=dexpr, r=sexpr),
                                          self._ALU_KIND[op])
            self.E(f"{self.reg_write(dst.name)} = {masked}")
            self.count += 1
            return True, next_rip

        if op in ("inc", "dec"):
            target = ops[0]
            if type(target) is not Reg:
                return False, None
            delta = "+ 1" if op == "inc" else "- 1"
            kind = "pos" if op == "inc" else "neg"
            self.pend += base
            local = self.reg_read(target.name)
            masked = self.set_from_result(f"{local} {delta}", kind)
            self.E(f"{self.reg_write(target.name)} = {masked}")
            self.count += 1
            return True, next_rip

        if op in ("cmp", "test"):
            lexpr = self.pure_expr(ops[0], isa)
            rexpr = self.pure_expr(ops[1], isa)
            self.pend += base
            if op == "cmp":
                self.cmp_flags(lexpr, rexpr)
            else:
                self.set_from_result(f"{lexpr} & {rexpr}", "fit")
            self.count += 1
            return True, next_rip

        if op in _JCC_EXPR:
            target = ops[0]
            if type(target) is not Imm:
                return False, None
            self.pend += base
            self._ensure_flags()
            self.branch_exit(op, target.value & mask)
            self.count += 1
            return True, next_rip

        # Stack accesses: the general body checks each one (see
        # emit_load/emit_store); the fast body indexes its static slot.
        if op == "call":
            target = ops[0]
            if type(target) is not Imm:
                return False, None
            with self._fallback_only():
                self.step("_s", self.reg_read("sp"), -width)
                self.E(f"{self.reg_write('sp')} = _s")
                self.pend += (base + costs.INSN_CALL + costs.INSN_MEM
                              + costs.STORE8)
                self.emit_store("_s", str(next_rip & mask), width, k,
                                next_rip)
            self.sp_off -= width
            self.F(f"{self._slot()} = {next_rip & mask}")
            self.calls.append((target.value & mask, next_rip & mask))
            self.count += 1
            return True, target.value & mask  # fuse into the callee

        if op == "ret":
            self.pend += base + costs.INSN_CALL + costs.INSN_MEM
            with self._fallback_only():
                sp = self.reg_read("sp")
                value = self.emit_load(sp, width, k, next_rip)
                self.step(self.reg_write("sp"), sp, width)
            self.F(f"{value} = {self._slot()}")
            self.sp_off += width
            self.count += 1
            self.exit_dynamic(value, self.count)
            return True, None

        if op == "push":
            sexpr = self.pure_expr(ops[0], isa)
            if sexpr == "r_sp":
                # ``push sp`` pushes the ``sp`` it read, before the push.
                self.E("_o = r_sp")
                sexpr = "_o"
            with self._fallback_only():
                self.step("_s", self.reg_read("sp"), -width)
                self.E(f"{self.reg_write('sp')} = _s")
                self.pend += base + costs.INSN_MEM + costs.STORE8
                self.emit_store("_s", sexpr, width, k, next_rip)
            self.sp_off -= width
            self.F(f"{self._slot()} = {sexpr}")
            self.count += 1
            return True, next_rip

        if op == "pop":
            if type(ops[0]) is not Reg:
                return False, None
            self.pend += base + costs.INSN_MEM
            with self._fallback_only():
                sp = self.reg_read("sp")
                value = self.emit_load(sp, width, k, next_rip)
                self.step(self.reg_write("sp"), sp, width)
            slot = self._slot()
            self.sp_off += width
            # A load of the stack width is already at most ``mask``.
            dst = self.reg_write(ops[0].name)
            with self._fallback_only():
                self.E(f"{dst} = {value}")
            self.F(f"{dst} = {slot}")
            self.count += 1
            return True, next_rip

        if op == "stos64":
            self._no_fast()
            di = self.reg_read("di")
            self.E(f"_s = {di}")
            self.pend += base + costs.INSN_MEM + costs.STORE8
            # h_stos64 stores the *raw* accumulator: see _STOS_AX.
            self.emit_store("_s", _STOS_AX, 8, k, next_rip)
            self.step(self.reg_write("di"), "_s", 8)
            self.count += 1
            return True, next_rip

        if op == "hlt":
            self.raise_site(k, next_rip, base)
            self.E("cpu.halted = True")
            self.E("raise HaltExit()")
            self.count += 1
            return True, None

        if op == "out":
            pexpr = self.pure_expr(ops[0], isa)
            vexpr = self.pure_expr(ops[1], isa)
            self.raise_site(k, next_rip, base)
            self.E(f"raise IOOutExit(port={pexpr}, value={vexpr})")
            self.count += 1
            return True, None

        # jmp / in / nop / lgdt / ljmp / wrmsr / rdmsr / unknown: left to
        # the per-instruction path (component-charging or mode-changing,
        # or never hot in a guest).
        return False, None


def _trace(interp, em: _Emitter, pc: int, isa, conts: list[int]):
    """Drive ``em`` over the straight-line trace starting at ``pc``.

    Tracing follows fall-through edges, fuses ``call`` immediates into
    the callee, predicts conditional branches not-taken
    (side exit on taken), and closes on dynamic control flow, raising
    terminators, uncompilable instructions, revisited PCs (loops) or the
    length cap.  Statically-known continuation PCs are collected into
    ``conts``: taken branch targets, and the return site of every
    ``call`` (the address its push made a future ``ret`` target) --
    these seed further region segments.

    Returns ``(closed, cur, insns)``: the instructions emitted, in
    trace order; ``closed`` is False when the trace ended open at PC
    ``cur``.
    """
    by_addr = interp.program.by_addr
    visited: set[int] = set()
    insns: list["Instr"] = []
    cur = pc
    closed = False
    while em.count < MAX_BLOCK_INSNS:
        if cur in visited:
            break
        insn = by_addr.get(cur)
        if insn is None:
            break
        included, nxt = em.emit_insn(insn, isa)
        if not included:
            break
        op = insn.op
        if op == "call":
            conts.append((insn.addr + insn.size) & em.mask)
        elif op in _JCC_EXPR:
            conts.append(insn.operands[0].value & em.mask)
        visited.add(cur)
        insns.append(insn)
        if nxt is None:
            closed = True
            break
        cur = nxt
    return closed, cur, insns


#: Region code objects by generated source text, least recently used
#: first, at most ``CODE_CACHE_SIZE`` of them.  Regions are recompiled
#: far more often than they differ -- every JitDomain (one per Wasp, one
#: per cluster core) compiles a shared image's regions afresh, and
#: self-modifying guests recompile after each invalidation -- and
#: ``compile`` dominates a compile.  Unlike the JIT's other state this
#: is process-wide, because it changes host time only: equal source
#: compiles to an equal code object (its file name holds the head PC,
#: which the source's first line holds too), and ``exec`` still binds a
#: fresh namespace for each region.
_CODE_CACHE: "OrderedDict[str, CodeType]" = OrderedDict()
CODE_CACHE_SIZE = 256


def _code(source: str, pc: int) -> CodeType:
    """The code object of a region's ``source``, compiled once."""
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(
            source, f"<superblock {pc:#x}>", "exec")
        if len(_CODE_CACHE) > CODE_CACHE_SIZE:
            _CODE_CACHE.popitem(last=False)
    else:
        _CODE_CACHE.move_to_end(source)
    return code


def compile_block(interp: "Interpreter", pc: int) -> list[CompiledBlock] | None:
    """Compile the hot *region* rooted at ``pc``.

    The region is the trace at ``pc`` plus, breadth-first, the traces at
    every statically-known continuation (taken branch targets, call
    return sites) up to the region caps.  Each trace is emitted once, as
    it is found, into one generated function whose segments transfer
    control internally -- so a hot call/return web (fib's descent,
    base-case return and unwind chains) runs as plain Python control
    flow, entering the dispatcher only on budget exhaustion, I/O,
    faults or targets outside the region.  What depends on the finished
    region (which exits are internal transfers, the state every exit
    writes back) is settled in :meth:`_Emitter.assemble`.

    Returns one dispatch entry per segment head (they share the
    function), or ``None`` when the head instruction cannot be fused
    (the caller blacklists the PC).
    """
    isa = _isa()
    cpu = interp.cpu
    mask = cpu.mask
    paging = cpu.paging_enabled
    by_addr = interp.program.by_addr
    em = _Emitter(pc, mask, cpu.nbytes, paging, interp.costs)
    heads = [pc]
    seen = {pc}
    seg_lines: list[tuple] = []
    pages = set()
    total = 0
    for head in heads:  # grows as segments are found: breadth-first
        if len(em.segments) >= MAX_REGION_SEGMENTS:
            break
        em.begin_segment(head)
        conts: list[int] = []
        closed, cur, insns = _trace(interp, em, head, isa, conts)
        if not insns:
            # A refused instruction leaves no trace in the emitter.
            if head == pc:
                return None
            continue  # secondary head starts uncompilable: drop it
        if head == pc and len(insns) < MIN_BLOCK_INSNS and not closed \
                and cur != pc:
            return None
        if not closed:
            conts.append(cur)
            em.exit_const(cur)
        if not paging:
            loop = _match_store_loop(insns, head, mask, isa)
            if loop is not None:
                em.store_loop_preamble(loop)
        em.end_segment()
        seg_lines.append(tuple(f"{insn.addr:#06x}: {insn.line or insn.op}"
                               for insn in insns))
        for insn in insns:
            pages.update(range(
                insn.addr >> PAGE_SHIFT,
                ((insn.addr + max(insn.size, 1) - 1) >> PAGE_SHIFT) + 1))
        total += len(insns)
        if total >= MAX_REGION_INSNS:
            break
        for c in conts:
            if c not in seen and by_addr.get(c) is not None:
                seen.add(c)
                heads.append(c)
    seg_map = {seg.head: idx for idx, seg in enumerate(em.segments)}
    seg_lens = tuple(seg.length for seg in em.segments)
    # The run loop counts a PC only while no compiled block heads it,
    # so a compiled head's count stopped when it compiled; it has run
    # compiled since, and ranks above every PC still being counted.
    compiled, counts = interp._jit_blocks, interp._jit_counts
    source = em.assemble(
        seg_map, seg_lens,
        lambda pc: (pc in compiled, counts.get(pc, 0)))
    namespace = {
        "HaltExit": isa.HaltExit,
        "IOOutExit": isa.IOOutExit,
        "_map": seg_map,
        "_lens": seg_lens,
        "_sites": tuple(em.sites),
        "_U16": _U16,
        "_U32": _U32,
        "_U64": _U64,
        "_pack_into": struct.pack_into,
    }
    exec(_code(source, pc), namespace)
    fn = namespace["_superblock"]
    pages = tuple(sorted(pages))
    return [
        CompiledBlock(
            pc=head,
            mask=mask,
            paging=paging,
            length=length,
            pages=pages,
            lines=seg_lines[idx],
            source=source,
            fn=fn,
            entry=idx,
        )
        for idx, (head, _, _, length, _, _) in enumerate(em.segments)
    ]
