"""Test-time lock-order sanitizer: validate the static model by running it.

The static side (:mod:`repro.check.lockmodel`) derives a lock-order
graph from source; this module derives one from *execution*.  When
``REPRO_LOCK_SANITIZER=1``, the test harness installs a
:class:`LockSanitizer` that replaces ``threading.Lock``/``RLock`` with
factories returning instrumented wrappers — but only for locks created
by code in the watched packages (``repro`` by default), decided by the
creating frame's module.  Every acquisition then records an *observed*
order edge ``a -> b`` for each lock ``a`` the acquiring thread already
holds, with a witness (thread, source location).

Two consistency guarantees fall out:

* **runtime vs runtime** — in strict mode, acquiring ``b`` under ``a``
  after ``a`` was ever acquired under ``b`` raises
  :class:`LockOrderViolation` on the spot, with both witnesses: that is
  an ABBA interleaving actually reachable by the test suite.
* **runtime vs static** — :meth:`LockSanitizer.verify_against` checks
  every observed edge between statically-known locks against the
  statically derived graph: a *contradiction* (the static graph orders
  the pair the other way) fails the run, and so does an *unmodelled*
  edge (neither direction known statically): the static lock-order
  check never saw that order, so the model must grow to cover it.

Lock identities mirror the static convention so the two graphs join:
``module.Class.attr`` for a lock bound to ``self.attr`` in a method,
``module.name`` for a module-level binding — both recovered from the
creating frame via :mod:`linecache`.  A creation site that matches
neither shape (e.g. a comprehension) is keyed by its code location,
which still supports runtime-vs-runtime checking.

The wrapper is deliberately not installed process-wide by default:
``install()`` patches, ``uninstall()`` restores, and the stdlib's own
internal lock creation (``threading.Condition`` building its ``RLock``)
is never wrapped because its creating frame lives in ``threading``.
"""

from __future__ import annotations

import json
import linecache
import re
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

#: Environment flag the test harness checks before installing.
ENV_FLAG = "REPRO_LOCK_SANITIZER"

#: ``self.attr = threading.Lock()`` — a class lock's creation line.
_SELF_ATTR_RE = re.compile(r"^\s*self\.(\w+)\s*(?::[^=]*)?=")

#: ``name = threading.Lock()`` — a module/local binding's creation line.
_NAME_RE = re.compile(r"^\s*(\w+)\s*(?::[^=]*)?=")


class LockOrderViolation(AssertionError):
    """Two watched locks were acquired in both orders at runtime."""


@dataclass
class EdgeRecord:
    """One observed order edge with its first witness."""

    src: str
    dst: str
    count: int = 0
    thread: str = ""
    where: str = ""

    def as_json(self) -> dict[str, object]:
        return {
            "src": self.src,
            "dst": self.dst,
            "count": self.count,
            "first_thread": self.thread,
            "first_site": self.where,
        }


@dataclass
class _Held:
    """Per-thread acquisition stack (idents, innermost last)."""

    stack: list[str] = field(default_factory=list)


class _SanitizedLock:
    """Instrumented proxy over a real ``threading`` lock.

    Instruments the lock protocol (context manager, ``acquire`` with
    ``blocking``/``timeout``, ``release``) and forwards anything else
    (``locked``) — ``Condition`` internals never reach here because
    stdlib-created locks are not wrapped.
    """

    def __init__(self, inner: object, ident: str, sanitizer: "LockSanitizer") -> None:
        self._inner = inner
        self._ident = ident
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)  # type: ignore[attr-defined]
        if acquired:
            self._sanitizer._on_acquire(self._ident)
        return acquired

    def release(self) -> None:
        self._inner.release()  # type: ignore[attr-defined]
        self._sanitizer._on_release(self._ident)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<sanitized {self._ident} wrapping {self._inner!r}>"


class LockSanitizer:
    """Records runtime lock-acquisition order for watched packages."""

    def __init__(
        self,
        packages: tuple[str, ...] = ("repro",),
        strict: bool = True,
    ) -> None:
        self.packages = packages
        self.strict = strict
        self.observed: dict[tuple[str, str], EdgeRecord] = {}
        self.locks_seen: set[str] = set()
        self._held = threading.local()
        self._mutate = _RAW_LOCK()  # guards `observed` across threads
        self._real_lock: object | None = None
        self._real_rlock: object | None = None
        self._installed = False

    # -- installation --------------------------------------------------

    def install(self) -> "LockSanitizer":
        """Patch ``threading.Lock``/``RLock`` with watching factories."""
        if self._installed:
            return self
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        threading.Lock = self._factory(self._real_lock)  # type: ignore[misc]
        threading.RLock = self._factory(self._real_rlock)  # type: ignore[misc]
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the real constructors."""
        if not self._installed:
            return
        threading.Lock = self._real_lock  # type: ignore[misc]
        threading.RLock = self._real_rlock  # type: ignore[misc]
        self._installed = False

    def __enter__(self) -> "LockSanitizer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _factory(self, real: object):
        def make_lock(*args: object, **kwargs: object) -> object:
            inner = real(*args, **kwargs)  # type: ignore[operator]
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            if module == __name__:
                # A stacked sanitizer's own factory is creating the
                # inner lock — wrapping here would double-instrument.
                return inner
            if not any(
                module == pkg or module.startswith(pkg + ".")
                for pkg in self.packages
            ):
                return inner
            ident = _derive_ident(frame, module)
            self.locks_seen.add(ident)
            return _SanitizedLock(inner, ident, self)

        return make_lock

    # -- acquisition bookkeeping ---------------------------------------

    def _stack(self) -> list[str]:
        held = getattr(self._held, "value", None)
        if held is None:
            held = _Held()
            self._held.value = held
        return held.stack

    def _on_acquire(self, ident: str) -> None:
        stack = self._stack()
        reentrant = ident in stack
        if not reentrant:
            where = _call_site()
            for held in dict.fromkeys(stack):  # distinct, in order
                if held == ident:
                    continue
                self._record(held, ident, where)
        stack.append(ident)

    def _on_release(self, ident: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == ident:
                del stack[index]
                break

    def _record(self, src: str, dst: str, where: str) -> None:
        thread_name = threading.current_thread().name
        with self._mutate:
            record = self.observed.get((src, dst))
            if record is None:
                record = EdgeRecord(src, dst, 0, thread_name, where)
                self.observed[(src, dst)] = record
            record.count += 1
            inverse = self.observed.get((dst, src))
        if self.strict and inverse is not None:
            raise LockOrderViolation(
                f"lock order inverted at runtime: '{dst}' was acquired "
                f"while '{src}' was held ({thread_name} at {where}), but "
                f"'{src}' was previously acquired while '{dst}' was held "
                f"({inverse.thread} at {inverse.where}) — two threads "
                "interleaving these paths deadlock"
            )

    # -- reporting -----------------------------------------------------

    def verify_against(
        self,
        static_edges: Iterable[tuple[str, str]],
        static_locks: Iterable[str] | None = None,
    ) -> dict[str, list[str]]:
        """Check observed edges against the statically derived graph.

        Returns ``{"contradictions": [...], "unmodelled": [...]}`` —
        contradictions are observed edges whose *reverse* is the static
        order (the model and the execution disagree; someone is wrong
        and it is a deadlock either way); unmodelled edges join two
        statically-known locks in an order the model never derived,
        usually because the chain runs through an attribute call the
        conservative call graph cannot resolve.  Pass the model's full
        lock set as ``static_locks`` to catch those; by default only
        locks appearing in ``static_edges`` are considered known.
        """
        static = set(static_edges)
        if static_locks is None:
            static_locks = {ident for edge in static for ident in edge}
        else:
            static_locks = set(static_locks)
        contradictions: list[str] = []
        unmodelled: list[str] = []
        for (src, dst), record in sorted(self.observed.items()):
            if (dst, src) in static:
                contradictions.append(
                    f"observed '{src}' -> '{dst}' ({record.thread} at "
                    f"{record.where}) but the static graph orders "
                    f"'{dst}' before '{src}'"
                )
            elif (
                src in static_locks
                and dst in static_locks
                and (src, dst) not in static
            ):
                unmodelled.append(
                    f"observed '{src}' -> '{dst}' ({record.thread} at "
                    f"{record.where}) has no statically derived edge"
                )
        return {"contradictions": contradictions, "unmodelled": unmodelled}

    # repro: allow[reachability] test harness: tests/conftest.py fails the CI sanitizer session on it
    def verify_tree(self, src_root: str | Path) -> tuple[list[str], bool]:
        """Session report lines, and whether the session fails.

        Checks the observed edges against the lock graph derived from
        ``src_root``.  A contradiction or an unmodelled edge fails it.
        """
        edges, locks = static_lock_graph(src_root)
        problems = self.verify_against(edges, locks)
        lines = [
            f"lock sanitizer: {len(self.observed)} observed edge(s), "
            f"{len(self.locks_seen)} lock(s) watched"
        ]
        lines.extend(problems["contradictions"])
        lines.extend(f"(unmodelled) {item}" for item in problems["unmodelled"])
        return lines, bool(problems["contradictions"] or problems["unmodelled"])

    def report(self) -> dict[str, object]:
        """JSON-serialisable summary of the run."""
        return {
            "version": 1,
            "packages": list(self.packages),
            "locks_seen": sorted(self.locks_seen),
            "observed_edges": [
                record.as_json()
                for _, record in sorted(self.observed.items())
            ],
        }

    # repro: allow[reachability] test harness: tests/conftest.py writes the CI sanitizer artifact with it
    def dump(self, path: str | Path) -> None:
        """Write :meth:`report` to ``path`` as indented JSON."""
        Path(path).write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


#: The unpatched Lock constructor, captured at import for internal use.
_RAW_LOCK = threading.Lock


def _derive_ident(frame: object, module: str) -> str:
    """Recover the static lock identity from the creating frame.

    ``self.attr = threading.Lock()`` in a method names the lock
    ``defining_module.Class.attr`` (via ``type(self)``, matching where
    the class is *defined*, as the static model does); a plain
    ``name = ...`` at module level names it ``module.name``.  Anything
    else is keyed by code location — unique, just not joinable with the
    static graph.
    """
    code = frame.f_code  # type: ignore[attr-defined]
    lineno = frame.f_lineno  # type: ignore[attr-defined]
    line = linecache.getline(code.co_filename, lineno)
    match = _SELF_ATTR_RE.match(line)
    if match is not None:
        owner = frame.f_locals.get("self")  # type: ignore[attr-defined]
        if owner is not None:
            cls = type(owner)
            return f"{cls.__module__}.{cls.__qualname__}.{match.group(1)}"
    match = _NAME_RE.match(line)
    if match is not None:
        if code.co_name == "<module>":
            return f"{module}.{match.group(1)}"
        # co_qualname is 3.11+; the bare name is unique enough before.
        function = getattr(code, "co_qualname", code.co_name)
        return f"{module}.{function}.{match.group(1)}"
    return f"{module}:{lineno}"


def _call_site() -> str:
    """``file:line`` of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only if called at top level
        return "<unknown>"
    return f"{Path(frame.f_code.co_filename).name}:{frame.f_lineno}"


# repro: allow[reachability] test harness: tests/conftest.py installs it for the CI sanitizer run
def install_from_env(environ: Mapping[str, str]) -> LockSanitizer | None:
    """Install a sanitizer iff :data:`ENV_FLAG` is set to ``1``."""
    if environ.get(ENV_FLAG) != "1":
        return None
    return LockSanitizer().install()


def static_lock_graph(root: str | Path) -> tuple[set[tuple[str, str]], set[str]]:
    """(order edges, known lock identities) derived from a source tree.

    :meth:`LockSanitizer.verify_tree` compares observation against it;
    the model comes from :meth:`LockModel.build`, the builder ``repro
    check`` uses, so the static and runtime sides judge one graph.
    """
    from repro.check.lockmodel import LockModel
    from repro.check.walker import iter_source_files

    model = LockModel.build(iter_source_files(Path(root)))
    return set(model.order_edges), set(model.decls)

