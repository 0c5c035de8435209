"""Stream programs: ordered launches + synchronisation over one module.

A :class:`StreamProgram` models what a host program does between kernel
launches — the part of a GPU application the single-launch checker
cannot see. It is an ordered list of steps over the kernels of *one*
multi-kernel MiniCUDA source:

* :class:`Launch` — enqueue one kernel launch on a stream, binding
  pointer parameters to named device buffers and scalars to values;
* :class:`SyncOp` — a synchronisation edge: ``device_sync``
  (cudaDeviceSynchronize), ``stream_sync`` (cudaStreamSynchronize),
  ``event_record`` / ``event_wait`` (cudaEventRecord /
  cudaStreamWaitEvent).

Same-stream launches are FIFO-ordered by construction; everything else
is concurrent unless a sync edge orders it (:mod:`repro.streams.hb`).

Programs are plain data: they round-trip through ``to_dict`` /
``from_dict`` (the service ships them inside a ``stream`` JobSpec) and
load from a small JSON launch-script format (:func:`load_stream_script`)::

    {
      "name": "pipeline",
      "source_file": "kernels.cu",          // or inline "source": "..."
      "buffers": {"a": 64, "b": 64},        // name -> element count
      "steps": [
        {"launch": "produce", "block": 64, "stream": 0,
         "args": {"a": "a"}},
        {"sync": "device"},
        {"launch": "consume", "block": 64, "stream": 1,
         "args": {"a": "a", "b": "b"}}
      ]
    }

Sync step forms: ``{"sync": "device"}``, ``{"sync": "stream",
"stream": N}``, ``{"sync": "event_record", "event": "e", "stream": N}``,
``{"sync": "event_wait", "event": "e", "stream": N}``.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

Dim3 = Tuple[int, int, int]

#: the synchronisation edge kinds a program may contain
SYNC_KINDS = ("device_sync", "stream_sync", "event_record", "event_wait")


def _dim3(value) -> Dim3:
    if isinstance(value, int):
        return (value, 1, 1)
    t = tuple(int(v) for v in value)
    while len(t) < 3:
        t += (1,)
    if len(t) != 3 or any(v < 1 for v in t):
        raise ValueError(f"bad dim3 {value!r}")
    return t  # type: ignore[return-value]


class StreamProgramError(ValueError):
    """A launch script that can never run: unknown kernel, unbound
    buffer, malformed step. Raised by loading and :meth:`validate`."""


@dataclass
class Launch:
    """One kernel launch step."""

    kernel: str
    grid_dim: Dim3 = (1, 1, 1)
    block_dim: Dim3 = (64, 1, 1)
    stream: int = 0
    #: pointer parameter name -> program buffer name
    args: Dict[str, str] = field(default_factory=dict)
    #: concrete values for scalar parameters
    scalar_values: Dict[str, int] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        self.grid_dim = _dim3(self.grid_dim)
        self.block_dim = _dim3(self.block_dim)

    @property
    def name(self) -> str:
        return self.label or self.kernel

    def to_dict(self) -> dict:
        return {"launch": self.kernel,
                "grid": list(self.grid_dim),
                "block": list(self.block_dim),
                "stream": self.stream,
                "args": dict(self.args),
                "scalars": dict(self.scalar_values),
                "label": self.label}


@dataclass
class SyncOp:
    """One synchronisation step (see :data:`SYNC_KINDS`)."""

    kind: str
    stream: Optional[int] = None
    event: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SYNC_KINDS:
            raise StreamProgramError(
                f"unknown sync kind {self.kind!r} "
                f"(expected one of {', '.join(SYNC_KINDS)})")
        if self.kind == "stream_sync" and self.stream is None:
            raise StreamProgramError("stream_sync needs a stream")
        if self.kind.startswith("event_"):
            if not self.event:
                raise StreamProgramError(f"{self.kind} needs an event")
            if self.stream is None:
                raise StreamProgramError(f"{self.kind} needs a stream")

    def to_dict(self) -> dict:
        kind = {"device_sync": "device", "stream_sync": "stream"}.get(
            self.kind, self.kind)
        out: dict = {"sync": kind}
        if self.stream is not None:
            out["stream"] = self.stream
        if self.event is not None:
            out["event"] = self.event
        return out


Step = Union[Launch, SyncOp]


@dataclass
class StreamProgram:
    """An ordered multi-kernel launch sequence over shared buffers."""

    name: str
    source: str
    #: device buffer name -> element count
    buffers: Dict[str, int] = field(default_factory=dict)
    steps: List[Step] = field(default_factory=list)

    def launches(self) -> List[Launch]:
        """The launch steps, in program (and launch-index) order."""
        return [s for s in self.steps if isinstance(s, Launch)]

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Reject programs that can never run
        (:class:`StreamProgramError`): no launches, undeclared buffers,
        kernels/parameters the compiled module does not have."""
        if not isinstance(self.source, str) or not self.source.strip():
            raise StreamProgramError(
                f"stream program {self.name!r}: source is empty")
        launches = self.launches()
        if not launches:
            raise StreamProgramError(
                f"stream program {self.name!r} has no launches")
        for buf, count in self.buffers.items():
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 1:
                raise StreamProgramError(
                    f"buffer {buf!r} element count {count!r} must be a "
                    f"positive integer")
        for launch in launches:
            for param, buf in launch.args.items():
                if buf not in self.buffers:
                    raise StreamProgramError(
                        f"launch {launch.name!r} binds {param!r} to "
                        f"undeclared buffer {buf!r}")
        from ..service.cache import shared_module
        module = shared_module(self.source).module
        from .. import ir
        for launch in launches:
            try:
                kernel = module.get_kernel(launch.kernel)
            except (KeyError, ValueError) as exc:
                raise StreamProgramError(
                    f"launch {launch.name!r}: {exc.args[0] if exc.args else exc}"
                ) from None
            pointer_params = {a.name for a in kernel.args
                              if isinstance(a.type, ir.PointerType)}
            for param in launch.args:
                if param not in pointer_params:
                    raise StreamProgramError(
                        f"launch {launch.name!r}: kernel "
                        f"{launch.kernel!r} has no pointer parameter "
                        f"{param!r}")

    # -- serialisation -------------------------------------------------

    def to_dict(self, include_source: bool = True) -> dict:
        out = {"name": self.name,
               "buffers": dict(self.buffers),
               "steps": [step.to_dict() for step in self.steps]}
        if include_source:
            out["source"] = self.source
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StreamProgram":
        if not isinstance(data, dict):
            raise StreamProgramError(
                f"stream program: expected an object, got "
                f"{type(data).__name__}")
        source = data.get("source")
        if not isinstance(source, str):
            raise StreamProgramError("stream program needs a 'source'")
        steps = [parse_step(s) for s in data.get("steps") or []]
        return cls(name=data.get("name") or "stream",
                   source=source,
                   buffers=dict(data.get("buffers") or {}),
                   steps=steps)


def parse_step(data: dict) -> Step:
    """One launch-script step dict → :class:`Launch` / :class:`SyncOp`."""
    if not isinstance(data, dict):
        raise StreamProgramError(
            f"bad step {data!r}: expected an object")
    if "launch" in data:
        try:
            return Launch(
                kernel=data["launch"],
                grid_dim=_dim3(data.get("grid", 1)),
                block_dim=_dim3(data.get("block", 64)),
                stream=int(data.get("stream", 0)),
                args=dict(data.get("args") or {}),
                scalar_values=dict(data.get("scalars") or {}),
                label=data.get("label"))
        except (TypeError, ValueError) as exc:
            raise StreamProgramError(
                f"bad launch step {data!r}: {exc}") from None
    if "sync" in data:
        kind = {"device": "device_sync", "stream": "stream_sync"}.get(
            data["sync"], data["sync"])
        stream = data.get("stream")
        return SyncOp(kind=kind,
                      stream=int(stream) if stream is not None else None,
                      event=data.get("event"))
    raise StreamProgramError(
        f"bad step {data!r}: needs 'launch' or 'sync'")


def load_stream_script(path: str) -> StreamProgram:
    """Load a JSON launch script; ``source_file`` paths resolve relative
    to the script's own directory."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StreamProgramError(
            f"cannot read {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise StreamProgramError(
            f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise StreamProgramError(
            f"{path!r}: launch script must be a JSON object")
    if "source" not in data and "source_file" in data:
        source_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                   data["source_file"])
        try:
            with open(source_path, "r", encoding="utf-8") as fh:
                data = dict(data, source=fh.read())
        except OSError as exc:
            raise StreamProgramError(
                f"cannot read source_file {source_path!r}: "
                f"{exc.strerror or exc}") from None
    data.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    return StreamProgram.from_dict(data)
