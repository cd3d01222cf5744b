"""Runtime values, addresses, and program states for the checkers.

Both the sequential checker and the concurrent checker share this value
model.  States are mutable while a transition executes and *frozen* into
hashable tuples for visited-set deduplication.  A cloned state shares its
frames, heap cells and globals with its source until one side writes
them (copy-on-write, see :class:`Store` and :class:`Frame`).

Value kinds
-----------
* Python ``int`` and ``bool`` (``bool`` checked first — it subclasses int)
* :class:`FuncVal` — a function name, the target of indirect calls
* :class:`PtrVal` — an address, or the null pointer (``addr is None``)

Addresses
---------
* ``("g", name)`` — a global variable
* ``("l", frame_id, name)`` — a local in a specific activation record
* ``("f", cell_id, field)`` — a field of a heap cell

Heap cells are created by ``malloc`` with ids from a per-state counter, so
cell identity is deterministic along any execution path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.lang.ast import (
    BoolType,
    FuncType,
    IntType,
    Program,
    PtrType,
    Type,
)


@dataclass(frozen=True)
class FuncVal:
    name: str

    def __str__(self) -> str:
        return f"&{self.name}"


@dataclass(frozen=True)
class PtrVal:
    """A pointer value; ``addr is None`` is the null pointer."""

    addr: Optional[Tuple] = None

    @property
    def is_null(self) -> bool:
        return self.addr is None

    def __str__(self) -> str:
        return "null" if self.is_null else f"ptr{self.addr}"


NULL = PtrVal(None)

Value = object  # int | bool | FuncVal | PtrVal


def default_value(typ: Type) -> Value:
    """The initial value of an uninitialized variable or fresh heap field."""
    if isinstance(typ, BoolType):
        return False
    if isinstance(typ, IntType):
        return 0
    if isinstance(typ, PtrType):
        return NULL
    if isinstance(typ, FuncType):
        return FuncVal("__undefined__")
    raise ValueError(f"no default value for type {typ}")


class MemoryError_(Exception):
    """Raised by state accessors on bad memory operations; the checkers
    convert it into a reported violation."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class Frame:
    """One activation record.

    Frames are shared between a world and its clones (copy-on-write):
    ``owner`` is the token of the one store allowed to write this frame
    in place, and a world copies any other frame before writing it (see
    :meth:`repro.seqcheck.interp.World.top`).  ``row`` memoises the
    frame's frozen locals row for :class:`repro.seqcheck.interp.Freezer`;
    :meth:`set` drops it.
    """

    __slots__ = ("func", "node", "locals", "frame_id", "owner", "row")

    def __init__(self, func: str, node: int, locals: Dict[str, Value], frame_id: int,
                 owner: Optional[object] = None):
        self.func = func
        self.node = node  # current CFG node id within the function's CFG
        self.locals = locals
        self.frame_id = frame_id
        self.owner = owner
        self.row: Optional[Tuple] = None

    def set(self, name: str, value: Value) -> None:
        self.locals[name] = value
        self.row = None

    def copy(self, owner: object) -> "Frame":
        """A private copy for the store whose token is ``owner``; the
        frozen row still holds, since the contents are equal."""
        frame = Frame(self.func, self.node, dict(self.locals), self.frame_id, owner)
        frame.row = self.row
        return frame


class Cell:
    """One heap cell: a struct's fields.  Shared and memoised like
    :class:`Frame`."""

    __slots__ = ("sname", "fields", "owner", "row")

    def __init__(self, sname: str, fields: Dict[str, Value], owner: object):
        self.sname = sname
        self.fields = fields
        self.owner = owner
        self.row: Optional[Tuple] = None


class Store:
    """Globals + heap, shared by all threads.

    A clone shares the globals dict, the heap dict and every cell with
    its source.  Each side copies a dict the first time it writes it
    (``own_globals``/``own_heap``) and a cell the first time it writes a
    cell whose ``owner`` is not its own token.  ``row`` memoises the
    frozen globals row.
    """

    __slots__ = ("globals", "heap", "alloc_count", "frame_count", "owner", "own_globals",
                 "own_heap", "row")

    def __init__(
        self,
        globals_: Optional[Dict[str, Value]] = None,
        heap: Optional[Dict[int, Cell]] = None,
        alloc_count: int = 0,
        frame_count: int = 0,
    ):
        self.globals = globals_ if globals_ is not None else {}
        self.heap = heap if heap is not None else {}
        self.alloc_count = alloc_count
        self.frame_count = frame_count
        self.owner = object()  # the token on the frames and cells this store may write
        self.own_globals = self.own_heap = True
        self.row: Optional[Tuple] = None

    def clone(self) -> "Store":
        # Both sides take a fresh token: from now on neither may write
        # what they share without copying it first.
        c = Store(self.globals, self.heap, self.alloc_count, self.frame_count)
        c.own_globals = c.own_heap = self.own_globals = self.own_heap = False
        c.row = self.row
        self.owner = object()
        return c

    # -- writes ---------------------------------------------------------------

    def set_global(self, name: str, value: Value) -> None:
        if not self.own_globals:
            self.globals = dict(self.globals)
            self.own_globals = True
        self.globals[name] = value
        self.row = None

    def _own_heap(self) -> Dict[int, Cell]:
        if not self.own_heap:
            self.heap = dict(self.heap)
            self.own_heap = True
        return self.heap

    # -- allocation -----------------------------------------------------------

    def malloc(self, prog: Program, struct_name: str) -> PtrVal:
        decl = prog.struct(struct_name)
        cid = self.alloc_count
        self.alloc_count += 1
        fields = {f: default_value(t) for f, t in decl.fields.items()}
        self._own_heap()[cid] = Cell(struct_name, fields, self.owner)
        return PtrVal(("c", cid))

    def fresh_frame_id(self) -> int:
        fid = self.frame_count
        self.frame_count += 1
        return fid

    # -- addressed access -------------------------------------------------------
    #
    # ``frames`` maps live frame ids to frames (a World is such a mapping);
    # a frame it hands out may be written in place.

    def read(self, addr: Optional[Tuple], frames) -> Value:
        if addr is None:
            raise MemoryError_("null-deref", "read through null pointer")
        kind = addr[0]
        if kind == "g":
            name = addr[1]
            if name not in self.globals:
                raise MemoryError_("bad-addr", f"read of unknown global '{name}'")
            return self.globals[name]
        if kind == "l":
            _, fid, name = addr
            frame = frames.get(fid)
            if frame is None or name not in frame.locals:
                raise MemoryError_("dangling", f"read through dangling pointer to local '{name}'")
            return frame.locals[name]
        if kind == "f":
            _, cid, fname = addr
            if cid not in self.heap:
                raise MemoryError_("dangling", f"read of freed/unknown cell {cid}")
            cell = self.heap[cid]
            if fname not in cell.fields:
                raise MemoryError_("bad-addr", f"struct {cell.sname} has no field '{fname}'")
            return cell.fields[fname]
        if kind == "c":
            raise MemoryError_("bad-addr", "read of whole struct cell")
        raise MemoryError_("bad-addr", f"malformed address {addr}")

    def write(self, addr: Optional[Tuple], value: Value, frames) -> None:
        if addr is None:
            raise MemoryError_("null-deref", "write through null pointer")
        kind = addr[0]
        if kind == "g":
            name = addr[1]
            if name not in self.globals:
                raise MemoryError_("bad-addr", f"write to unknown global '{name}'")
            self.set_global(name, value)
            return
        if kind == "l":
            _, fid, name = addr
            frame = frames.get(fid)
            if frame is None or name not in frame.locals:
                raise MemoryError_("dangling", f"write through dangling pointer to local '{name}'")
            frame.set(name, value)
            return
        if kind == "f":
            _, cid, fname = addr
            if cid not in self.heap:
                raise MemoryError_("dangling", f"write to freed/unknown cell {cid}")
            cell = self.heap[cid]
            if fname not in cell.fields:
                raise MemoryError_("bad-addr", f"struct {cell.sname} has no field '{fname}'")
            if cell.owner is not self.owner:
                cell = self._own_heap()[cid] = Cell(cell.sname, dict(cell.fields), self.owner)
            cell.fields[fname] = value
            cell.row = None
            return
        raise MemoryError_("bad-addr", f"malformed address {addr}")


def field_addr(base: PtrVal, field: str) -> Tuple:
    """The address of ``base->field``; ``base`` must point at a cell."""
    if base.is_null:
        raise MemoryError_("null-deref", f"field access ->{field} through null pointer")
    if base.addr[0] != "c":
        raise MemoryError_("bad-addr", f"field access ->{field} on non-struct pointer {base}")
    return ("f", base.addr[1], field)
