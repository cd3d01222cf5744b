"""Reserved names introduced by the KISS instrumentation.

All synthesized globals, functions, and temporaries share the ``__kiss_``
prefix; input programs must not use it (checked by the transformer).
"""

PREFIX = "__kiss_"

RAISE_VAR = PREFIX + "raise"  # the paper's `raise` flag
TS_SIZE = PREFIX + "ts_size"  # total elements parked in `ts`
ACCESS_VAR = PREFIX + "access"  # race checking: 0=none, 1=read, 2=write
TARGET_VAR = PREFIX + "target"  # race checking: address of the location r
ALLOC_SEEN = PREFIX + "alloc_seen"  # race checking: allocation counter

SCHEDULE_FN = PREFIX + "schedule"
CHECK_FN = PREFIX + "check"  # entry wrapper implementing Check(s)
CHECK_R_FN = PREFIX + "check_r"
CHECK_W_FN = PREFIX + "check_w"

INDIRECT_FAMILY = PREFIX + "indirect"  # ts family for `async v()` (func var)


def ts_count(family: str) -> str:
    """Per-family element count (`|{parked threads with start fn family}|`)."""
    return f"{PREFIX}ts_{family}_n"


def ts_slot_arg(family: str, slot: int, arg: int) -> str:
    """Storage for argument ``arg`` of the thread parked in ``slot``."""
    return f"{PREFIX}ts_{family}_{slot}_a{arg}"


def ts_slot_fn(slot: int) -> str:
    """Storage for the function value of an indirectly-spawned thread."""
    return f"{PREFIX}ts_fn_{slot}"


def transformed_temp(n: int) -> str:
    """The n-th instrumentation temporary of a function."""
    return f"{PREFIX}t{n}"


# Lazy pc-guarded sequentialization (repro.lazy)


def lz_step(t: int) -> str:
    """Step function of thread instance ``t``: executes the one node the
    instance's saved pc points at."""
    return f"{PREFIX}lz_step{t}"


def lz_at(t: int, pc: int) -> str:
    """One-hot saved-pc flag: instance ``t`` is stopped at node ``pc``."""
    return f"{PREFIX}lz_at{t}_{pc}"


def lz_done(t: int) -> str:
    """Instance ``t`` ran to completion."""
    return f"{PREFIX}lz_done{t}"


def lz_off(t: int) -> str:
    """Instance ``t`` has not been spawned yet (main starts false)."""
    return f"{PREFIX}lz_off{t}"


def lz_local(t: int, name: str) -> str:
    """Promoted per-instance copy of local/param ``name`` (locals must
    survive across segment boundaries, so they become globals)."""
    return f"{PREFIX}lz{t}_{name}"


def lz_frame(t: int, sid: int, name: str) -> str:
    """Promoted copy of local/param ``name`` of the function called at
    call site ``sid`` by instance ``t``.  Calls are flattened into the
    caller's instance and recursion is rejected, so one copy per call
    site holds every activation."""
    return f"{PREFIX}lzc{t}_{sid}_{name}"
