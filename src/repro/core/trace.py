"""Execution traces and their derived metadata.

An :class:`ExecutionTrace` is the unit of analysis: an ordered sequence of
:class:`~repro.core.operations.Operation` together with indices that the
happens-before engine (Figures 6 and 7 of the paper) and the race classifier
(§4.3) need:

* per-thread: positions of ``attachQ`` and ``loopOnQ``;
* per-task: the unique ``post``/``begin``/``end`` positions, the executing
  thread, the posting operation, delay, and the *post chain* leading to it;
* the ``task(α)`` helper of the paper — the asynchronous task whose handler
  executed operation ``α`` (``None`` outside any task).

The paper assumes each procedure occurs at most once per trace (distinct
occurrences are renamed apart).  We keep that invariant: task names in a
trace are unique instance names; :class:`TraceBuilder` provides renaming
for convenience when encoding traces by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from typing import Dict, IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .operations import MalformedOperationError, OpKind, Operation


class InvalidTraceError(ValueError):
    """Raised when a sequence of operations is not a well-formed trace."""


class TraceFormatError(InvalidTraceError):
    """A JSONL trace record could not be parsed.

    Carries the 1-based ``line_number`` of the offending record and the
    underlying ``reason`` so batch tooling can report *which* line of
    *which* file is broken instead of an opaque ``KeyError``.
    """

    def __init__(self, line_number: int, reason: str, line: str = ""):
        self.line_number = line_number
        self.reason = reason
        self.line = line
        shown = line.strip()
        if len(shown) > 80:
            shown = shown[:77] + "..."
        message = "line %d: %s" % (line_number, reason)
        if shown:
            message += " in %r" % shown
        super().__init__(message)


class TaskInfo:
    """Metadata for one asynchronous task instance appearing in a trace."""

    __slots__ = (
        "name",
        "post_index",
        "begin_index",
        "end_index",
        "thread",
        "poster_thread",
        "delay",
        "at_front",
        "event",
        "posted_in_task",
    )

    def __init__(self, name: str):
        self.name = name
        self.post_index: Optional[int] = None
        self.begin_index: Optional[int] = None
        self.end_index: Optional[int] = None
        self.thread: Optional[str] = None  # thread the task runs on
        self.poster_thread: Optional[str] = None
        self.delay: Optional[int] = None
        self.at_front: bool = False
        self.event: Optional[str] = None
        self.posted_in_task: Optional[str] = None  # task containing the post

    @property
    def is_delayed(self) -> bool:
        return bool(self.delay)

    @property
    def is_event(self) -> bool:
        return self.event is not None

    def __repr__(self) -> str:
        return "TaskInfo(%s on %s, post=%s begin=%s end=%s)" % (
            self.name,
            self.thread,
            self.post_index,
            self.begin_index,
            self.end_index,
        )


class ExecutionTrace:
    """An immutable, validated execution trace with derived metadata."""

    def __init__(self, operations: Iterable[Operation], name: str = "trace"):
        self.name = name
        self.ops: List[Operation] = []
        self.tasks: Dict[str, TaskInfo] = {}
        self.loop_index: Dict[str, int] = {}  # thread -> index of loopOnQ
        self.attach_index: Dict[str, int] = {}  # thread -> index of attachQ
        self.threads: List[str] = []
        self._thread_set: set = set()
        self._in_task: List[Optional[str]] = []
        self._ingest(operations)

    # -- construction -------------------------------------------------------

    def _ingest(self, operations: Iterable[Operation]) -> None:
        current_task: Dict[str, Optional[str]] = {}
        for raw in operations:
            index = len(self.ops)
            op = raw if raw.index == index else _reindex(raw, index)
            t = op.thread
            if t not in self._thread_set:
                self._thread_set.add(t)
                self.threads.append(t)
                current_task.setdefault(t, None)

            if op.kind is OpKind.ATTACH_Q:
                if t in self.attach_index:
                    raise InvalidTraceError(
                        "thread %s attaches a queue twice (ops %d, %d)"
                        % (t, self.attach_index[t], index)
                    )
                self.attach_index[t] = index
            elif op.kind is OpKind.LOOP_ON_Q:
                if t in self.loop_index:
                    raise InvalidTraceError(
                        "thread %s loops on its queue twice (ops %d, %d)"
                        % (t, self.loop_index[t], index)
                    )
                if t not in self.attach_index:
                    raise InvalidTraceError(
                        "thread %s loops on a queue it never attached" % t
                    )
                self.loop_index[t] = index
            elif op.kind is OpKind.POST:
                info = self._task(op.task)
                if info.post_index is not None:
                    raise InvalidTraceError(
                        "task %s posted twice (ops %d, %d); task instance "
                        "names must be unique" % (op.task, info.post_index, index)
                    )
                info.post_index = index
                info.poster_thread = t
                info.thread = op.target
                info.delay = op.delay
                info.at_front = op.at_front
                info.event = op.event
                info.posted_in_task = current_task.get(t)
            elif op.kind is OpKind.BEGIN:
                info = self._task(op.task)
                if info.begin_index is not None:
                    raise InvalidTraceError("task %s begins twice" % op.task)
                if current_task.get(t) is not None:
                    raise InvalidTraceError(
                        "task %s begins inside task %s on thread %s: tasks "
                        "run to completion" % (op.task, current_task[t], t)
                    )
                info.begin_index = index
                if info.thread is None:
                    info.thread = t
                elif info.thread != t:
                    raise InvalidTraceError(
                        "task %s was posted to %s but begins on %s"
                        % (op.task, info.thread, t)
                    )
                current_task[t] = op.task
            elif op.kind is OpKind.END:
                info = self._task(op.task)
                if current_task.get(t) != op.task:
                    raise InvalidTraceError(
                        "end(%s) on thread %s does not match the running "
                        "task %s" % (op.task, t, current_task.get(t))
                    )
                info.end_index = index
                current_task[t] = None

            running = current_task.get(t)
            if op.kind is OpKind.BEGIN:
                # begin/end ops belong to the task they bracket.
                self._in_task.append(op.task)
            else:
                self._in_task.append(running if op.kind is not OpKind.END else op.task)
            if op.in_task is not None and op.in_task != self._in_task[-1]:
                raise InvalidTraceError(
                    "op %d declares in_task=%s but trace structure implies %s"
                    % (index, op.in_task, self._in_task[-1])
                )
            self.ops.append(op)

        for info in self.tasks.values():
            if info.begin_index is not None and info.end_index is None:
                # A task still running when the trace was cut short: tolerate,
                # the HB rules only need begin.
                pass

    def _task(self, name: str) -> TaskInfo:
        info = self.tasks.get(name)
        if info is None:
            info = TaskInfo(name)
            self.tasks[name] = info
        return info

    # -- the paper's helper functions ---------------------------------------

    def thread_of(self, index: int) -> str:
        """``thread(α)`` — the thread executing operation ``index``."""
        return self.ops[index].thread

    def task_of(self, index: int) -> Optional[Tuple[str, str]]:
        """``task(α)`` — (thread, task) pair for operations executed inside
        an asynchronous task, else ``None``."""
        name = self._in_task[index]
        if name is None:
            return None
        return (self.ops[index].thread, name)

    def task_name_of(self, index: int) -> Optional[str]:
        return self._in_task[index]

    def looped_before(self, thread: str, index: int) -> bool:
        """True iff ``loopOnQ(thread)`` occurs before position ``index``
        (premise of NO-Q-PO vs ASYNC-PO, Figure 6)."""
        loop = self.loop_index.get(thread)
        return loop is not None and loop < index

    def post_chain(self, index: int) -> List[int]:
        """``chain(α)`` of §4.3 — indices of the maximal chain of post
        operations ``β1 … βm`` with ``callee(βj) = task(βj+1)`` and
        ``callee(βm) = task(α)``, oldest first."""
        chain: List[int] = []
        task_name = self._in_task[index]
        seen = set()
        while task_name is not None and task_name not in seen:
            seen.add(task_name)
            info = self.tasks.get(task_name)
            if info is None or info.post_index is None:
                break
            chain.append(info.post_index)
            task_name = info.posted_in_task
        chain.reverse()
        return chain

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __getitem__(self, index: int) -> Operation:
        return self.ops[index]

    def memory_accesses(self) -> Iterator[Operation]:
        return (op for op in self.ops if op.is_memory_access)

    def locations(self) -> List[str]:
        seen: Dict[str, None] = {}
        for op in self.ops:
            if op.is_memory_access and op.location not in seen:
                seen[op.location] = None
        return list(seen)

    def fields(self) -> List[str]:
        """Distinct *fields*: the paper reports a field of a class once even
        if accessed through many objects.  Our locations are ``object.field``
        strings; the field identity is ``Class.field``."""
        seen: Dict[str, None] = {}
        for loc in self.locations():
            seen[field_of_location(loc)] = None
        return list(seen)

    def threads_with_queue(self) -> List[str]:
        return [t for t in self.threads if t in self.attach_index]

    def threads_without_queue(self) -> List[str]:
        return [t for t in self.threads if t not in self.attach_index]

    def async_task_count(self) -> int:
        return sum(1 for info in self.tasks.values() if info.begin_index is not None)

    def without_cancelled_posts(self, cancelled: Iterable[str]) -> "ExecutionTrace":
        """Return a trace with the posts of cancelled tasks removed (§4.2:
        'The cancellation of posted tasks is handled by removing the
        corresponding post operations from the trace')."""
        gone = set(cancelled)
        kept = [
            op
            for op in self.ops
            if not (op.kind is OpKind.POST and op.task in gone)
        ]
        return ExecutionTrace(kept, name=self.name)

    # -- (de)serialization ----------------------------------------------------

    def to_jsonl(self) -> str:
        """Canonical JSONL serialization: one record per operation, keys
        sorted, no trace name — byte-identical for equal operation
        sequences, which is what :meth:`canonical_digest` keys on."""
        lines = [json.dumps(operation_to_record(op), sort_keys=True) for op in self.ops]
        return "\n".join(lines) + "\n"

    def canonical_digest(self) -> str:
        """SHA-256 hex digest of the canonical serialization.

        Content-addressed identity for trace stores and result caches:
        two traces with the same operations share a digest regardless of
        their (display) names.
        """
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    @classmethod
    def from_jsonl(
        cls, text: str, name: str = "trace", strict: bool = True
    ) -> "ExecutionTrace":
        return cls.from_lines(text.splitlines(), name=name, strict=strict)

    @classmethod
    def from_lines(
        cls, lines: Iterable[str], name: str = "trace", strict: bool = True
    ) -> "ExecutionTrace":
        """Build a trace from an iterable of JSONL lines (streaming — a
        file handle works and is never read into memory at once).

        With ``strict=True`` (default) a malformed record raises
        :class:`TraceFormatError` naming the offending line; with
        ``strict=False`` bad lines are skipped with a warning — the mode
        corpus batch analysis uses so one broken record degrades one
        trace instead of failing a batch.
        """
        ops = []
        for line_number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                # Built at its final position, so ``_ingest`` keeps the
                # operation as is instead of constructing it a second time.
                ops.append(operation_from_record(json.loads(stripped), len(ops)))
            except (ValueError, KeyError, TypeError) as exc:
                error = TraceFormatError(line_number, _format_reason(exc), stripped)
                if strict:
                    raise error from exc
                warnings.warn("skipping bad trace record: %s" % error, stacklevel=2)
        return cls(ops, name=name)

    @classmethod
    def load(
        cls,
        path: Union[str, "os.PathLike[str]"],
        name: Optional[str] = None,
        strict: bool = True,
    ) -> "ExecutionTrace":
        """Stream a JSONL trace file from disk."""
        from repro.obs import current_tracer

        with current_tracer().span("trace.load", path=str(path)) as span:
            with open(path, "r", encoding="utf-8") as handle:
                trace = cls.from_lines(handle, name=name or str(path), strict=strict)
            span.set(ops=len(trace))
            return trace

    def render(self) -> str:
        """Human-readable rendering in the style of the paper's Figure 3."""
        width = max((len(t) for t in self.threads), default=4)
        lines = []
        for op in self.ops:
            pad = " " * (4 * self.threads.index(op.thread))
            lines.append("%4d  %s%s" % (op.index + 1, pad.ljust(width), op.render()))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "ExecutionTrace(%s, %d ops, %d threads, %d tasks)" % (
            self.name,
            len(self.ops),
            len(self.threads),
            len(self.tasks),
        )


#: Optional operation fields serialized when present, in record order.
_RECORD_FIELDS = ("task", "target", "lock", "location", "delay", "event", "source")


def operation_to_record(op: Operation) -> dict:
    """The JSON-serializable record of one operation (canonical form:
    ``kind``/``thread`` always present, optional fields only when set)."""
    rec = {"kind": op.kind.value, "thread": op.thread}
    for key in _RECORD_FIELDS:
        value = getattr(op, key)
        if value is not None:
            rec[key] = value
    if op.at_front:
        rec["at_front"] = True
    return rec


def operation_from_record(rec: dict, index: Optional[int] = None) -> Operation:
    """Inverse of :func:`operation_to_record`.

    ``index`` is the operation's trace position; when given it overrides
    any ``"index"`` key the record carries (a trace loader knows each
    record's position, a stored race endpoint does not).

    Raises ``ValueError`` with a meaningful message for records missing
    required keys or naming unknown op kinds (instead of a bare
    ``KeyError``).
    """
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object: %r" % (rec,))
    rec = dict(rec)
    try:
        kind_value = rec.pop("kind")
    except KeyError:
        raise ValueError("record is missing the 'kind' field")
    try:
        kind = OpKind(kind_value)
    except ValueError:
        raise ValueError(
            "unknown op kind %r (expected one of: %s)"
            % (kind_value, ", ".join(k.value for k in OpKind))
        )
    try:
        thread = rec.pop("thread")
    except KeyError:
        raise ValueError("record is missing the 'thread' field")
    if index is not None:
        rec["index"] = index
    try:
        return Operation(kind, thread, **rec)
    except TypeError as exc:
        raise ValueError("bad operation field: %s" % exc)


def _format_reason(exc: BaseException) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return "invalid JSON (%s)" % exc.msg
    if isinstance(exc, MalformedOperationError):
        return "malformed operation (%s)" % exc
    return str(exc) or exc.__class__.__name__


def field_of_location(location: str) -> str:
    """Map a memory-location name ``Class@instance.field`` (or
    ``object.field``) to its field identity ``Class.field``."""
    if "." in location:
        obj, _, fld = location.rpartition(".")
        cls = obj.split("@", 1)[0]
        return "%s.%s" % (cls, fld)
    return location


def _reindex(op: Operation, index: int) -> Operation:
    return Operation(
        op.kind,
        op.thread,
        index=index,
        task=op.task,
        target=op.target,
        lock=op.lock,
        location=op.location,
        in_task=op.in_task,
        delay=op.delay,
        at_front=op.at_front,
        event=op.event,
        source=op.source,
        metadata=op.metadata,
    )


class TraceBuilder:
    """Incremental trace construction with task-instance renaming.

    Hand-encoded traces (tests, examples reproducing the paper's Figures 3
    and 4) use this builder; the simulated runtime builds operations itself
    through :class:`repro.android.env.AndroidEnv`.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self._ops: List[Operation] = []
        self._task_instances: Dict[str, int] = {}

    def add(self, op: Operation) -> Operation:
        op = _reindex(op, len(self._ops))
        self._ops.append(op)
        return op

    def extend(self, ops: Sequence[Operation]) -> None:
        for op in ops:
            self.add(op)

    def unique_task(self, base: str) -> str:
        """Return a fresh task-instance name for procedure ``base``
        (``base``, ``base#2``, ``base#3``, …)."""
        n = self._task_instances.get(base, 0) + 1
        self._task_instances[base] = n
        return base if n == 1 else "%s#%d" % (base, n)

    def build(self) -> ExecutionTrace:
        return ExecutionTrace(self._ops, name=self.name)

    def __len__(self) -> int:
        return len(self._ops)
