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
* *One inline memory path for every width.*  Loads bounds-check and
  decode straight from the backing mapping; stores pack in place when
  the page is quiet (see :class:`repro.hw.memory.GuestMemory`) and the
  store does not straddle a page; every other case calls the accessor.
  Paged regions inline the software-TLB hit path behind a last-page
  memo.
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

#: Side-exit reasons, in canonical (display) order.
SIDE_EXIT_REASONS = ("branch", "fault", "halt", "io",
                     "budget_guard", "mode_guard")

_M64 = 0xFFFFFFFFFFFFFFFF

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
                 "replays")

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

    def _changed(self) -> None:
        self.epoch += 1
        self.boots.clear()

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

    def watched_pages(self) -> set[int]:
        return set(self.page_index)

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

    def clear(self) -> None:
        self._images.clear()
        self._digests.clear()
        for reason in self.side_exits:
            self.side_exits[reason] = 0
        for name in self.counters:
            self.counters[name] = 0

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

    Computed by :func:`compile_block`'s discovery pass (the union over
    every segment) before the region is emitted, because each exit's
    write-back must cover state written by *any* segment: the path
    that reached the exit is not known statically.
    """

    #: General registers written anywhere in the region.
    regs: tuple[str, ...] = ()
    #: True when any segment writes the flags.
    flags: bool = False
    #: True when any segment has a conditional branch (``_br`` counter).
    branches: bool = False


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

    The invariant every emission preserves: at every point where an
    exception can *escape* the function, architectural state
    (``cpu.regs``, ``cpu.flags``, ``cpu.rip``) equals the reference
    interpreter's state at that exact point, the clock holds the
    reference cycle count, and ``I._sb_steps`` holds the number of
    instructions fully completed before the raising one.

    The hot path pays for none of that.  Every potentially-raising
    memory access sits in a per-site ``try`` whose ``except`` only
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
    """

    def __init__(self, pc: int, mask: int, nbytes: int, paging: bool,
                 costs: "CostModel", seg_map: dict[int, int] | None = None,
                 seg_lens: list[int] | None = None,
                 resident: _Residency = _Residency()) -> None:
        self.pc = pc
        self.mask = mask
        self.nbytes = nbytes
        self.paging = paging
        self.costs = costs
        self.sign_bit = (mask + 1) >> 1
        #: Region layout: guest head pc -> segment index, and each
        #: segment's length.  An exit whose target is a segment head
        #: becomes an internal transfer (``_pc = i; continue``) instead
        #: of a return to the dispatcher; state stays in locals across it.
        self.seg_map = seg_map if seg_map is not None else {}
        self.seg_lens = seg_lens if seg_lens is not None else []
        #: State every exit writes back (the whole region's, not this
        #: segment's: see :class:`_Residency`).
        self.resident = resident
        #: (head pc, body lines) per emitted segment.
        self.seg_bodies: list[tuple[int, list[str]]] = []
        self.body: list[str] = []
        self.head = pc          # head of the segment being emitted
        #: (instructions, cycles) of one iteration through the first
        #: conditional branch back to ``head``, or None.
        self.back_edge: tuple[int, int] | None = None
        self.count = 0          # instructions emitted in this segment
        self.pend = 0           # statically accumulated un-flushed cycles
        self.reg_loads: list[str] = []   # prologue-loaded registers
        self.defined: set[str] = set()   # registers with live locals
        #: Registers / flags / branches this emitter has produced so far
        #: (region-wide; the discovery pass unions them into a
        #: :class:`_Residency`).
        self.written: dict[str, None] = {}
        self.flags_written = False
        self.branches = False
        #: Deferred flag-local assignments (dead-store elimination: a
        #: flag set that is overwritten before any possible observation
        #: is never emitted).  Flushed at every barrier -- exception
        #: sites, exits, predicate reads -- and dropped when the next
        #: flag-writing instruction arrives with no barrier in between.
        self.pending_flags: list[str] | None = None
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
        self.seg_bodies.append((head, self.body))
        self.head = head
        self.back_edge = None
        self.count = 0
        self.pend = 0
        self.pending_flags = None
        self.pending_regs = set()

    # -- low-level helpers -------------------------------------------------
    def E(self, line: str, ind: int = 0) -> None:
        self.body.append("    " * ind + line)

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
        self.flags_written = True
        self.uses_flags_obj = True

    def flush_flags(self) -> None:
        """Materialise deferred flag-local assignments (barrier)."""
        if self.pending_flags:
            for line in self.pending_flags:
                self.E(line)
        self.pending_flags = None
        self.pending_regs = set()

    def _writeback_lines(self) -> list[str]:
        """Region-resident state back to its architectural homes."""
        res = self.resident
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
        """Close a guarded ``try``: name the site for the handler."""
        self.E("except BaseException:", ind)
        self.E(f"_k = {self._site(k, next_rip, advance)}", ind + 1)
        self.E("raise", ind + 1)

    def raise_site(self, k: int, next_rip: int, charge: int) -> None:
        """Name the site of an unconditional ``raise`` (hlt/out/in)."""
        self.flush_flags()
        self.pend += charge
        self.E(f"_k = {self._site(k, next_rip, advance=True)}")
        self.pend = 0

    # -- memory ------------------------------------------------------------
    def _translate(self, addr_expr: str, ind: int = 0) -> str:
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
        """
        a = self._bind(addr_expr, ind)
        self.E(f"_pg = {a} >> 12", ind)
        self.E("if _pg == _lpg:", ind)
        self.E("_th += 1", ind + 1)
        self.E(f"_p = _lfr | ({a} & 4095)", ind + 1)
        self.E("else:", ind)
        self.E("_f = tlb_get(_pg)", ind + 1)
        self.E("if _f is None:", ind + 1)
        self.E(f"_p = I._phys({a})", ind + 2)
        self.E("_lfr = _p & -4096", ind + 2)
        self.E("else:", ind + 1)
        self.E("_th += 1", ind + 2)
        self.E(f"_p = _f | ({a} & 4095)", ind + 2)
        self.E("_lfr = _f", ind + 2)
        self.E("_lpg = _pg", ind + 1)
        return "_p"

    def _bind(self, addr_expr: str, ind: int) -> str:
        """``addr_expr`` as a name or constant, evaluated once."""
        if addr_expr.isidentifier() or addr_expr.isdigit():
            return addr_expr
        self.E(f"_a = {addr_expr}", ind)
        return "_a"

    def _phys(self, addr_expr: str, ind: int = 0) -> str:
        """The physical address as a name or constant."""
        if self.paging:
            return self._translate(addr_expr, ind)
        return self._bind(addr_expr, ind)

    def emit_load(self, addr_expr: str, width: int, k: int,
                  next_rip: int) -> str:
        """A guest load; ``pend`` carries past it (deferred flush).

        Inlines the accessor's own fast path -- bounds check plus an
        in-place decode from the backing mapping -- and falls back to
        the accessor (which re-checks and raises the proper error) when
        out of bounds.  Addresses are non-negative by construction
        (masked register locals, masked constants, TLB frames).
        """
        self.flush_flags()
        self.read_widths.add(width)
        self.E("try:")
        phys = self._phys(addr_expr, 1)
        self.E(f"if {phys} <= _sz{width}:", 1)
        self.E(f"_v = _up{width}(_data, {phys})[0]", 2)
        self.E("else:", 1)
        self.E(f"_v = _mr[{width}]({phys})", 2)
        self._except(k, next_rip, advance=True)
        return "_v"

    def emit_store(self, addr_expr: str, val_expr: str, width: int,
                   k: int, next_rip: int) -> None:
        """A guest store.

        Inline path: an in-bounds store to a *quiet* page (already
        dirty, touched, not CoW-pending, not watched) that does not
        straddle into the next page packs in place -- no callbacks, so
        the clock stays deferred.  ``val_expr`` must already lie in
        ``[0, 2**(8*width))`` (every masked local does).

        Every other store calls the accessor with the clock
        materialised (see the class docstring), and on paged regions
        resets the translation memo, because a watched-page store
        clears every registered TLB.
        """
        self.flush_flags()
        self.write_widths.add(width)
        if self.paging:
            self.E("try:")
            phys = self._translate(addr_expr, 1)
            self._except(k, next_rip, advance=True)
        else:
            phys = self._phys(addr_expr)
        # Only in-bounds pages ever become quiet (memory sizes are whole
        # pages), so quiet + no straddle is also the bounds check.
        if not phys.isdigit():
            quiet = (f"{phys} >> 12 in _quiet "
                     f"and ({phys} & 4095) <= {4096 - width}")
        elif (int(phys) & 4095) <= 4096 - width:
            quiet = f"{int(phys) >> 12} in _quiet"
        else:
            quiet = None  # a constant straddling store: always the accessor
        ind = 0
        if quiet is not None:
            self.E(f"if {quiet}:")
            self.E(f"_pk{width}(_data, {phys}, {val_expr})", 1)
            self.E("else:")
            ind = 1
        self.E(f"clk._cycles += _cy + {self.pend}", ind)
        self.E("try:", ind)
        self.E(f"_mw[{width}]({phys}, {val_expr})", ind + 1)
        self._except(k, next_rip, advance=False, ind=ind)
        self.E(f"_cy = {-self.pend}", ind)
        if self.paging:
            self.E("_lpg = -1", ind)

    def addr_expr(self, ref) -> str:
        if ref.base is None:
            return str(ref.disp & _M64)
        base = self.reg_read(ref.base)
        if ref.disp == 0:
            return base  # already masked, <= mask <= 2**64-1
        return f"({base} + {ref.disp}) & {_M64}"

    # -- operands ----------------------------------------------------------
    def pure_expr(self, operand, isa) -> str | None:
        """Reg/Imm operand expression (masked); None for memory."""
        if type(operand) is isa.Reg:
            return self.reg_read(operand.name)
        if type(operand) is isa.Imm:
            return str(operand.value & self.mask)
        return None

    # -- flags -------------------------------------------------------------
    #: Value-range kind of each ALU op's raw Python result, given masked
    #: (non-negative, <= mask) operands.  Lets the generic carry test
    #: ``t < 0 or t > mask`` fold to one comparison -- or, for ops whose
    #: result already lies in [0, mask], lets the masking itself vanish.
    _ALU_KIND = {"add": "pos", "shl": "pos", "mul": "pos",
                 "sub": "neg",
                 "and": "fit", "or": "fit", "xor": "fit", "shr": "fit"}

    def set_from_result(self, result_expr: str, kind: str = "gen") -> str:
        """Inline ``Flags.set_from_result``; returns the masked local.

        The flag assignments are deferred (``pending_flags``); a prior
        deferred set still pending here is dead -- this one overwrites
        all three flags with no barrier in between -- and is dropped.
        """
        self._write_flags()
        self.pending_flags = None
        self.pending_regs = set()
        self.E(f"_t = {result_expr}")
        if kind == "fit":  # result already in [0, mask]
            self.pending_flags = [
                "fz = _t == 0",
                f"fs = (_t & {self.sign_bit}) != 0",
                "fc = False",
            ]
            return "_t"
        if kind == "pos":      # result >= 0: only overflow can carry
            carry = f"fc = _t > {self.mask}"
        elif kind == "neg":    # result <= mask: only borrow can carry
            carry = "fc = _t < 0"
        else:
            carry = f"fc = _t < 0 or _t > {self.mask}"
        self.E(f"_m = _t & {self.mask}")
        self.pending_flags = [
            "fz = _m == 0",
            f"fs = (_m & {self.sign_bit}) != 0",
            carry,
        ]
        return "_m"

    def _signed_expr(self, expr: str, local: str) -> str:
        """Signed reinterpretation of a masked operand; constants fold."""
        maskp1 = self.mask + 1
        if expr.isdigit():
            v = int(expr)
            return str(v - maskp1 if v & self.sign_bit else v)
        self.E(f"{local} = {expr} - {maskp1} if {expr} & {self.sign_bit} "
               f"else {expr}")
        return local

    def cmp_flags(self, lhs: str, rhs: str) -> None:
        """Inline the cmp flag protocol.

        Both operands are masked (``[0, mask]``), so the reference
        protocol -- ``set_from_result(l - r)`` then the signed sign
        flag -- folds: zero is ``l == r``, carry is ``l < r``, and the
        difference temporaries disappear entirely.  The deferred lines
        read the operand locals directly, which is why ``reg_write``
        flushes when it is about to overwrite one of them.
        """
        self._write_flags()
        self.pending_flags = None
        sl = self._signed_expr(lhs, "_sl")
        sr = self._signed_expr(rhs, "_sr")
        self.pending_flags = [
            f"fz = {lhs} == {rhs}",
            f"fc = {lhs} < {rhs}",
            f"fs = {sl} < {sr}",
        ]
        self.pending_regs = {e[2:] for e in (lhs, rhs)
                             if e.startswith("r_")}

    # -- exits -------------------------------------------------------------
    def _leave(self, rip_expr: str, ind: int = 0) -> None:
        """Return to the dispatcher through the shared epilogue.

        Expects ``_done``/``_cy`` already to include the instructions
        and cycles retired on this path.
        """
        self.E(f"_rip = {rip_expr}", ind)
        self.E("break", ind)

    def _transfer(self, idx: str, length: str, rip_expr: str,
                  ind: int = 0) -> None:
        """Continue at segment ``idx`` if the budget covers it, else leave."""
        self.E(f"if _left - _done >= {length}:", ind)
        self.E(f"_pc = {idx}", ind + 1)
        self.E("continue", ind + 1)
        self._leave(rip_expr, ind)

    def _complete(self, retired: int, ind: int = 0) -> None:
        """Fold a completed path into ``_done`` and ``_cy``."""
        self.E(f"_done += {retired}", ind)
        if self.pend:
            self.E(f"_cy += {self.pend}", ind)

    def exit_dynamic(self, rip_expr: str, retired: int) -> None:
        """Segment completion with a runtime RIP (ret / dynamic jmp).

        The runtime target is looked up in the region's segment map:
        a hit transfers control internally (one dict probe + budget
        compare), which is what keeps ``ret`` chains -- fib's unwind --
        inside the generated function; a miss returns to the
        dispatcher with exact architectural state.
        """
        self.flush_flags()
        self._complete(retired)
        self.pend = 0
        if self.seg_map:
            self.E(f"_sg = _map.get({rip_expr})")
            self.E("if _sg is not None and _left - _done >= _lens[_sg]:")
            self.E("_pc = _sg", 1)
            self.E("continue", 1)
        self._leave(rip_expr)

    def exit_const(self, target: int) -> None:
        """Segment completion continuing at a known PC."""
        self.flush_flags()
        self._complete(self.count)
        self.pend = 0
        idx = self.seg_map.get(target)
        if idx is None:
            self._leave(str(target))
        else:
            self._transfer(str(idx), str(self.seg_lens[idx]), str(target))

    def branch_exit(self, pred: str, target: int) -> None:
        """A predicted-not-taken branch's taken path.

        A taken target that is itself a region segment transfers
        internally (a mispredict then costs one counter bump and a
        compare, not a dispatcher round trip); otherwise this is a true
        side exit.  Either way the mispredict counts in ``_br`` and
        ``pend`` is *not* reset: the fall-through path still carries it.
        """
        self.flush_flags()
        self.branches = True
        if target == self.head and self.back_edge is None:
            self.back_edge = (self.count + 1, self.pend)
        self.E(f"if {pred}:")
        self.E("_br += 1", 1)
        self._complete(self.count + 1, 1)
        idx = self.seg_map.get(target)
        if idx is None:
            self._leave(str(target), 1)
        else:
            self._transfer(str(idx), str(self.seg_lens[idx]), str(target), 1)

    def store_loop_preamble(self, loop: _StoreLoop) -> None:
        """Prepend ``loop``'s closed-form fast-forward to this segment.

        The preamble retires ``_n`` whole *taken* iterations: exactly
        what the per-iteration body would do on the inline quiet-page
        path, which fires no callbacks and never materialises the
        clock.  ``_n`` is the least of the four bounds in the module
        docstring; anything they exclude (the final iteration, a new
        page's first store, a non-quiet page, a budget tail) is left to
        the body below, unchanged.  It runs at the head, where every way
        in has flushed pending flags and cycles.
        """
        body, cycles = self.back_edge
        assert body == loop.body
        mask = self.mask
        seg_len = self.seg_lens[self.seg_map[self.head]]
        counter = self.reg_read(loop.counter)
        di = self.reg_read("di")
        lines = [f"_n = {counter} - 1",
                 f"if _n > 0 and {di} >> 12 in _quiet:"]
        # The page bound also keeps ``di`` from wrapping: pages tile
        # [0, mask], so a store that fits its page ends at or below mask.
        bounds = ["_n", f"(4096 - ({di} & 4095)) // 8",
                  f"(_left - _done - {seg_len}) // {body}"]
        if "ax" in self.resident.regs:
            ax = self.reg_read("ax")
            offset = loop.ax_offset
            lines.append(f"    _fv = ({ax} + {offset}) & {mask}" if offset
                         else f"    _fv = {ax}")
        else:
            # Never written in the region: the raw dict value, as the
            # per-iteration stos64 stores it.
            lines.append(f"    _fv = regs['ax'] & {_M64}")
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
    def assemble(self) -> str:
        # One tuple unpack binds every per-interpreter object the region
        # needs (the tuple is built once per interpreter; see
        # Interpreter._sb_ctx).  ``flags`` stays a separate read:
        # cpu.reset()/load_state() replace the Flags object.
        prologue = [
            "cpu, regs, clk, tlb_get, _mr, _mw, _mem = I._sb_ctx",
        ]
        resident = self.resident.regs
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
            # Re-derived each invocation: ``fill()`` rebinds the backing
            # mapping, so it is not identity-stable across runs.
            prologue.append("_data = _mem._data")
            for width in sorted(self.read_widths):
                prologue.append(f"_sz{width} = _mem.size - {width}")
                prologue.append(f"_up{width} = _U{8 * width}.unpack_from")
            for width in sorted(self.write_widths):
                prologue.append(f"_pk{width} = _U{8 * width}.pack_into")
            if self.write_widths:
                prologue.append("_quiet = _mem._quiet")
        if self.paging:
            # Translation memo (invalid at entry) + batched TLB-hit count.
            prologue.append("_lpg = -1")
            prologue.append("_lfr = 0")
            prologue.append("_th = 0")
        if self.branches:
            prologue.append("_br = 0")
        # ``_done``: instructions retired by completed paths (raise
        # sites add their segment-relative offset); ``_cy``: their
        # cycles, not yet on the clock; ``_k``: the raising site.
        prologue.append("_done = 0")
        prologue.append("_cy = 0")
        prologue.append("_k = -1")
        writeback = self._writeback_lines()
        lines = [f"def _superblock(I, _left, _pc):  # region {self.pc:#x}"]
        lines += ["    " + l for l in prologue]
        lines.append("    try:")
        lines.append("        while True:")
        kw = "if"
        for head, body in self.seg_bodies:
            lines.append(f"            {kw} _pc == "
                         f"{self.seg_map.get(head, 0)}:  # {head:#x}")
            lines += ["                " + l for l in body]
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
        lines.append("                clk._cycles += _cy + _xc")
        lines.append("        raise")
        # The one return path.
        lines += ["    " + l for l in writeback]
        lines.append("    cpu.rip = _rip")
        lines.append("    clk._cycles += _cy")
        lines.append("    return _done")
        return "\n".join(lines) + "\n"

    # -- the per-instruction dispatcher ------------------------------------
    def emit_insn(self, insn: "Instr", isa) -> tuple[bool, int | None]:
        """Emit one instruction.

        Returns ``(included, next_pc)``: ``(False, None)`` means the
        instruction cannot be fused (close the block before it),
        ``(True, None)`` means it terminated the block itself, and
        ``(True, pc)`` continues tracing at ``pc``.
        """
        op = insn.op
        ops = insn.operands
        if any(type(o) is isa.CtrlReg for o in ops):
            return False, None
        Reg, Imm, MemRef = isa.Reg, isa.Imm, isa.MemRef
        costs = self.costs
        base = costs.INSN_BASE
        mask = self.mask
        width = self.nbytes
        next_rip = insn.addr + insn.size
        k = self.count

        if op == "nop":
            self.pend += base
            self.count += 1
            return True, next_rip

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
            if type(dst) is Reg and sexpr is not None:
                self.pend += base
                self.E(f"{self.reg_write(dst.name)} = {sexpr}")
                self.count += 1
                return True, next_rip
            if type(dst) is Reg:  # Reg <- Mem
                self.pend += base + costs.INSN_MEM
                value = self.emit_load(self.addr_expr(src), width,
                                       k, next_rip)
                local = self.reg_write(dst.name)
                self.E(f"{local} = {value} & {mask}")
                self.count += 1
                return True, next_rip
            # Mem <- Reg/Imm/Mem
            if sexpr is not None:
                self.pend += base + costs.INSN_MEM + costs.STORE8
                self.emit_store(self.addr_expr(dst), sexpr, width,
                                k, next_rip)
            else:  # Mem <- Mem: read charges first, then the write
                self.pend += base + costs.INSN_MEM
                value = self.emit_load(self.addr_expr(src), width,
                                       k, next_rip)
                self.E(f"_w = {value} & {mask}")
                self.pend += costs.INSN_MEM + costs.STORE8
                self.emit_store(self.addr_expr(dst), "_w", width,
                                k, next_rip)
            self.count += 1
            return True, next_rip

        alu = _ALU_EXPR.get(op)
        if alu is not None:
            dst, src = ops
            if type(dst) is Imm:
                return False, None
            dexpr = self.pure_expr(dst, isa)
            sexpr = self.pure_expr(src, isa)
            kind = self._ALU_KIND.get(op, "gen")
            if type(dst) is Reg and dexpr is not None and sexpr is not None:
                self.pend += base
                masked = self.set_from_result(
                    alu.format(l=dexpr, r=sexpr), kind)
                self.E(f"{self.reg_write(dst.name)} = {masked}")
                self.count += 1
                return True, next_rip
            # Memory form: read dst, read src, flags, write dst.
            self.pend += base
            if dexpr is None:
                self.pend += costs.INSN_MEM
                value = self.emit_load(self.addr_expr(dst), width,
                                       k, next_rip)
                self.E(f"_x = {value}")
                dexpr = "_x"
            if sexpr is None:
                self.pend += costs.INSN_MEM
                value = self.emit_load(self.addr_expr(src), width,
                                       k, next_rip)
                self.E(f"_y = {value}")
                sexpr = "_y"
            masked = self.set_from_result(alu.format(l=dexpr, r=sexpr), kind)
            if type(dst) is Reg:
                self.E(f"{self.reg_write(dst.name)} = {masked}")
            else:
                self.pend += costs.INSN_MEM + costs.STORE8
                self.emit_store(self.addr_expr(dst), masked, width,
                                k, next_rip)
            self.count += 1
            return True, next_rip

        if op in ("inc", "dec"):
            delta = "+ 1" if op == "inc" else "- 1"
            kind = "pos" if op == "inc" else "neg"
            target = ops[0]
            if type(target) is Reg:
                self.pend += base
                local = self.reg_read(target.name)
                masked = self.set_from_result(f"{local} {delta}", kind)
                self.E(f"{self.reg_write(target.name)} = {masked}")
                self.count += 1
                return True, next_rip
            if type(target) is not MemRef:
                return False, None
            self.pend += base + costs.INSN_MEM
            value = self.emit_load(self.addr_expr(target), width,
                                   k, next_rip)
            masked = self.set_from_result(f"{value} {delta}", kind)
            self.pend += costs.INSN_MEM + costs.STORE8
            self.emit_store(self.addr_expr(target), masked, width,
                            k, next_rip)
            self.count += 1
            return True, next_rip

        if op in ("cmp", "test"):
            lhs, rhs = ops
            lexpr = self.pure_expr(lhs, isa)
            rexpr = self.pure_expr(rhs, isa)
            self.pend += base
            if lexpr is None:
                self.pend += costs.INSN_MEM
                self.E(f"_x = {self.emit_load(self.addr_expr(lhs), width, k, next_rip)}")
                lexpr = "_x"
            if rexpr is None:
                self.pend += costs.INSN_MEM
                self.E(f"_y = {self.emit_load(self.addr_expr(rhs), width, k, next_rip)}")
                rexpr = "_y"
            if op == "cmp":
                self.cmp_flags(lexpr, rexpr)
            else:
                self.set_from_result(f"{lexpr} & {rexpr}", "fit")
            self.count += 1
            return True, next_rip

        if op == "jmp":
            target = ops[0]
            if type(target) is Imm:
                # Unconditional constant jump: fuse straight through it
                # (the caller redirects tracing; no code is emitted).
                self.pend += base
                self.count += 1
                return True, target.value & mask
            if type(target) is Reg:
                self.pend += base
                local = self.reg_read(target.name)
                self.count += 1
                self.exit_dynamic(local, self.count)
                return True, None
            self.pend += base + costs.INSN_MEM
            value = self.emit_load(self.addr_expr(target), width,
                                   k, next_rip)
            self.count += 1
            self.exit_dynamic(value, self.count)
            return True, None

        pred = _JCC_EXPR.get(op)
        if pred is not None:
            target = ops[0]
            if type(target) is not Imm:
                return False, None
            self.pend += base
            self._ensure_flags()
            self.branch_exit(pred, target.value & mask)
            self.count += 1
            return True, next_rip

        if op == "call":
            target = ops[0]
            if type(target) is MemRef:
                self.pend += base + costs.INSN_CALL + costs.INSN_MEM
                value = self.emit_load(self.addr_expr(target), width,
                                       k, next_rip)
                self.E(f"_c = {value}")
                sp = self.reg_read("sp")
                self.E(f"_s = ({sp} - {width}) & {mask}")
                self.E(f"{self.reg_write('sp')} = _s")
                self.pend += costs.INSN_MEM + costs.STORE8
                self.emit_store("_s", str(next_rip & mask), width,
                                k, next_rip)
                self.count += 1
                self.exit_dynamic("_c", self.count)
                return True, None
            if type(target) is Reg:
                # Capture before the sp update (the target may be sp).
                texpr = self.reg_read(target.name)
                self.E(f"_c = {texpr}")
            sp = self.reg_read("sp")
            self.E(f"_s = ({sp} - {width}) & {mask}")
            self.E(f"{self.reg_write('sp')} = _s")
            self.pend += (base + costs.INSN_CALL + costs.INSN_MEM
                          + costs.STORE8)
            self.emit_store("_s", str(next_rip & mask), width, k, next_rip)
            self.count += 1
            if type(target) is Reg:
                self.exit_dynamic("_c", self.count)
                return True, None
            return True, target.value & mask  # fuse into the callee

        if op == "ret":
            self.pend += base + costs.INSN_CALL + costs.INSN_MEM
            sp = self.reg_read("sp")
            value = self.emit_load(sp, width, k, next_rip)
            self.E(f"{self.reg_write('sp')} = ({sp} + {width}) & {mask}")
            self.count += 1
            self.exit_dynamic(value, self.count)
            return True, None

        if op == "push":
            src = ops[0]
            sexpr = self.pure_expr(src, isa)
            if sexpr is not None:
                sp = self.reg_read("sp")
                self.E(f"_s = ({sp} - {width}) & {mask}")
                self.E(f"{self.reg_write('sp')} = _s")
                self.pend += base + costs.INSN_MEM + costs.STORE8
                self.emit_store("_s", sexpr, width, k, next_rip)
                self.count += 1
                return True, next_rip
            # push [mem]: source read charges (and can fault) first.
            self.pend += base + costs.INSN_MEM
            value = self.emit_load(self.addr_expr(src), width, k, next_rip)
            self.E(f"_w = {value} & {mask}")
            sp = self.reg_read("sp")
            self.E(f"_s = ({sp} - {width}) & {mask}")
            self.E(f"{self.reg_write('sp')} = _s")
            self.pend += costs.INSN_MEM + costs.STORE8
            self.emit_store("_s", "_w", width, k, next_rip)
            self.count += 1
            return True, next_rip

        if op == "pop":
            if type(ops[0]) is not Reg:
                return False, None
            self.pend += base + costs.INSN_MEM
            sp = self.reg_read("sp")
            value = self.emit_load(sp, width, k, next_rip)
            self.E(f"{self.reg_write('sp')} = ({sp} + {width}) & {mask}")
            self.E(f"{self.reg_write(ops[0].name)} = {value} & {mask}")
            self.count += 1
            return True, next_rip

        if op == "stos64":
            di = self.reg_read("di")
            self.E(f"_s = {di}")
            self.pend += base + costs.INSN_MEM + costs.STORE8
            # h_stos64 stores the *raw* accumulator (no masking).  A
            # region-resident ``ax`` local equals the dict value (the
            # wide-register guard proved it fits); otherwise the local
            # is the masked image of a possibly-wider value, so read
            # the dict, which the region never writes, masked to 64
            # bits as the accessor masks it.
            if "ax" in self.resident.regs:
                self.emit_store("_s", self.reg_read("ax"), 8, k, next_rip)
            else:
                self.emit_store("_s", f"regs['ax'] & {_M64}", 8, k,
                                next_rip)
            self.E(f"{self.reg_write('di')} = (_s + 8) & {mask}")
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
            if pexpr is None or vexpr is None:
                return False, None
            self.raise_site(k, next_rip, base)
            self.E(f"raise IOOutExit(port={pexpr}, value={vexpr})")
            self.count += 1
            return True, None

        if op == "in":
            if type(ops[0]) is not Reg:
                return False, None
            pexpr = self.pure_expr(ops[1], isa)
            if pexpr is None:
                return False, None
            self.raise_site(k, next_rip, base)
            self.E(f"raise IOInExit(port={pexpr}, dest={ops[0].name!r})")
            self.count += 1
            return True, None

        # lgdt / ljmp / wrmsr / rdmsr / unknown: component-charging or
        # mode-changing -- always left to the per-instruction path.
        return False, None


def _trace(interp, em: _Emitter, pc: int, isa,
           conts: list[int] | None = None):
    """Drive ``em`` over the straight-line trace starting at ``pc``.

    Tracing follows fall-through edges, fuses unconditional
    ``jmp``/``call`` immediates, predicts conditional branches not-taken
    (side exit on taken), and closes on dynamic control flow, raising
    terminators, uncompilable instructions, revisited PCs (loops) or the
    length cap.  When ``conts`` is given, statically-known continuation
    PCs are collected into it: taken branch targets, and the return site
    of every ``call`` (the address its push made a future ``ret``
    target) -- these seed further region segments.

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
        if conts is not None:
            op = insn.op
            if op == "call":
                conts.append((insn.addr + insn.size) & em.mask)
            elif op in _JCC_EXPR and insn.operands \
                    and type(insn.operands[0]) is isa.Imm:
                conts.append(insn.operands[0].value & em.mask)
        included, nxt = em.emit_insn(insn, isa)
        if not included:
            break
        visited.add(cur)
        insns.append(insn)
        if nxt is None:
            closed = True
            break
        cur = nxt
    return closed, cur, insns


def compile_block(interp: "Interpreter", pc: int) -> list[CompiledBlock] | None:
    """Compile the hot *region* rooted at ``pc``.

    Phase 1 discovers the region: the trace at ``pc`` plus, breadth-
    first, the traces at every statically-known continuation (taken
    branch targets, call return sites) up to the region caps, and the
    union of the state they write (the region's :class:`_Residency`).
    Phase 2 re-emits every segment into one generated function whose segments
    transfer control internally -- so a hot call/return web (fib's
    descent, base-case return and unwind chains) runs as plain Python
    control flow, entering the dispatcher only on budget exhaustion,
    I/O, faults or targets outside the region.

    Returns one dispatch entry per segment head (they share the
    function), or ``None`` when the head instruction cannot be fused
    (the caller blacklists the PC).
    """
    isa = _isa()
    cpu = interp.cpu
    mask = cpu.mask
    paging = cpu.paging_enabled
    # -- phase 1: discovery --------------------------------------------
    heads = [pc]
    seen = {pc}
    seg_info: list[tuple[int, int]] = []   # (head, length)
    written: dict[str, None] = {}
    flags_written = branches = False
    total = 0
    i = 0
    while i < len(heads) and len(seg_info) < MAX_REGION_SEGMENTS:
        head = heads[i]
        i += 1
        em = _Emitter(head, mask, cpu.nbytes, paging, interp.costs)
        conts: list[int] = []
        closed, cur, _ = _trace(interp, em, head, isa, conts)
        if em.count == 0:
            if head == pc:
                return None
            continue  # secondary head starts uncompilable: drop it
        if head == pc and em.count < MIN_BLOCK_INSNS and not closed \
                and cur != pc:
            return None
        if not closed:
            conts.append(cur)
        seg_info.append((head, em.count))
        written.update(em.written)
        flags_written |= em.flags_written
        branches |= em.branches
        total += em.count
        if total >= MAX_REGION_INSNS:
            break
        by_addr = interp.program.by_addr
        for c in conts:
            if c not in seen and by_addr.get(c) is not None:
                seen.add(c)
                heads.append(c)
    # -- phase 2: emission ---------------------------------------------
    seg_map = {head: idx for idx, (head, _) in enumerate(seg_info)}
    seg_lens = [length for _, length in seg_info]
    resident = _Residency(tuple(written), flags_written, branches)
    em = _Emitter(pc, mask, cpu.nbytes, paging, interp.costs,
                  seg_map, seg_lens, resident)
    seg_lines: list[tuple] = []
    pages = set()
    for head, _ in seg_info:
        em.begin_segment(head)
        closed, cur, insns = _trace(interp, em, head, isa)
        if not closed:
            em.exit_const(cur)
        if not paging:
            loop = _match_store_loop(insns, head, mask, isa)
            if loop is not None:
                em.store_loop_preamble(loop)
        seg_lines.append(tuple(f"{insn.addr:#06x}: {insn.line or insn.op}"
                               for insn in insns))
        for insn in insns:
            pages.update(range(
                insn.addr >> PAGE_SHIFT,
                ((insn.addr + max(insn.size, 1) - 1) >> PAGE_SHIFT) + 1))
    # Emission retraces exactly the discovered segments, so it writes
    # exactly the state discovery said it would.
    assert (set(em.written), em.flags_written, em.branches) == \
        (set(resident.regs), resident.flags, resident.branches)
    source = em.assemble()
    namespace = {
        "HaltExit": isa.HaltExit,
        "IOOutExit": isa.IOOutExit,
        "IOInExit": isa.IOInExit,
        "_map": seg_map,
        "_lens": tuple(seg_lens),
        "_sites": tuple(em.sites),
        "_U16": _U16,
        "_U32": _U32,
        "_U64": _U64,
        "_pack_into": struct.pack_into,
    }
    exec(compile(source, f"<superblock {pc:#x}>", "exec"), namespace)
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
        for idx, (head, length) in enumerate(seg_info)
    ]
