"""Runtime values, addresses, and program states for the checkers.

Both the sequential checker and the concurrent checker share this value
model.  States are mutable while a transition executes and *frozen* into
hashable tuples for visited-set deduplication.

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
from typing import Dict, List, Optional, Tuple

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


@dataclass
class Frame:
    """One activation record."""

    func: str
    node: int  # current CFG node id within the function's CFG
    locals: Dict[str, Value]
    frame_id: int

    def clone(self) -> "Frame":
        return Frame(self.func, self.node, dict(self.locals), self.frame_id)


class Store:
    """Globals + heap, shared by all threads."""

    __slots__ = ("globals", "heap", "alloc_count", "frame_count")

    def __init__(
        self,
        globals_: Optional[Dict[str, Value]] = None,
        heap: Optional[Dict[int, Tuple[str, Dict[str, Value]]]] = None,
        alloc_count: int = 0,
        frame_count: int = 0,
    ):
        self.globals = globals_ if globals_ is not None else {}
        self.heap = heap if heap is not None else {}
        self.alloc_count = alloc_count
        self.frame_count = frame_count

    def clone(self) -> "Store":
        heap = {cid: (sname, dict(fields)) for cid, (sname, fields) in self.heap.items()}
        return Store(dict(self.globals), heap, self.alloc_count, self.frame_count)

    # -- allocation -----------------------------------------------------------

    def malloc(self, prog: Program, struct_name: str) -> PtrVal:
        decl = prog.struct(struct_name)
        cid = self.alloc_count
        self.alloc_count += 1
        self.heap[cid] = (struct_name, {f: default_value(t) for f, t in decl.fields.items()})
        return PtrVal(("c", cid))

    def fresh_frame_id(self) -> int:
        fid = self.frame_count
        self.frame_count += 1
        return fid

    # -- addressed access -------------------------------------------------------

    def read(self, addr: Optional[Tuple], frames: Dict[int, Frame]) -> Value:
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
            sname, fields = self.heap[cid]
            if fname not in fields:
                raise MemoryError_("bad-addr", f"struct {sname} has no field '{fname}'")
            return fields[fname]
        if kind == "c":
            raise MemoryError_("bad-addr", "read of whole struct cell")
        raise MemoryError_("bad-addr", f"malformed address {addr}")

    def write(self, addr: Optional[Tuple], value: Value, frames: Dict[int, Frame]) -> None:
        if addr is None:
            raise MemoryError_("null-deref", "write through null pointer")
        kind = addr[0]
        if kind == "g":
            name = addr[1]
            if name not in self.globals:
                raise MemoryError_("bad-addr", f"write to unknown global '{name}'")
            self.globals[name] = value
            return
        if kind == "l":
            _, fid, name = addr
            frame = frames.get(fid)
            if frame is None or name not in frame.locals:
                raise MemoryError_("dangling", f"write through dangling pointer to local '{name}'")
            frame.locals[name] = value
            return
        if kind == "f":
            _, cid, fname = addr
            if cid not in self.heap:
                raise MemoryError_("dangling", f"write to freed/unknown cell {cid}")
            sname, fields = self.heap[cid]
            if fname not in fields:
                raise MemoryError_("bad-addr", f"struct {sname} has no field '{fname}'")
            fields[fname] = value
            return
        raise MemoryError_("bad-addr", f"malformed address {addr}")


def field_addr(base: PtrVal, field: str) -> Tuple:
    """The address of ``base->field``; ``base`` must point at a cell."""
    if base.is_null:
        raise MemoryError_("null-deref", f"field access ->{field} through null pointer")
    if base.addr[0] != "c":
        raise MemoryError_("bad-addr", f"field access ->{field} on non-struct pointer {base}")
    return ("f", base.addr[1], field)
