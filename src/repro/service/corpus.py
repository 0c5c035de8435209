"""Corpus enumeration: turning kernel collections into job specs.

Two sources of work:

* the **built-in suites** of :mod:`repro.kernels` (the paper's Tables
  I-IV benchmarks), addressed as ``builtin`` or ``builtin:<suite>``;
* **user directories / files** of MiniCUDA sources (``*.cu``),
  enumerated recursively and addressed by path.

Each kernel becomes one :class:`~repro.service.jobs.JobSpec` carrying
the launch configuration the paper used (for built-ins) or the CLI
defaults (for user sources).
"""
from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from ..kernels import (
    ALL_KERNELS, DIVERGENT_KERNELS, Kernel, LONESTAR_KERNELS,
    PAPER_EXAMPLES, PARBOIL_KERNELS, REDUCTION_FAMILY, SDK_KERNELS,
)
from ..sym.config import LaunchConfig
from .jobs import JobSpec

#: suite name → kernel list, mirroring the paper's tables
SUITES: Dict[str, List[Kernel]] = {
    "paper": list(PAPER_EXAMPLES),
    "sdk": list(SDK_KERNELS),
    "reductions": list(REDUCTION_FAMILY),
    "divergent": list(DIVERGENT_KERNELS),
    "lonestar": list(LONESTAR_KERNELS),
    "parboil": list(PARBOIL_KERNELS),
}

SOURCE_SUFFIXES = (".cu", ".minicuda")


def spec_from_kernel(kernel: Kernel, engine: str = "sesa",
                     suite: Optional[str] = None) -> JobSpec:
    """A job spec running *kernel* under its paper configuration."""
    return JobSpec(
        job_id=f"builtin/{suite or 'all'}/{kernel.name}",
        source=kernel.source,
        kernel_name=kernel.kernel_name,
        engine=engine,
        config=kernel.launch_config(),
        needs_concrete_graph=kernel.table.startswith("Table III"),
        meta={"kernel": kernel.name, "suite": suite, "table": kernel.table,
              "expected_issues": list(kernel.expected_issues)})


def stream_jobs() -> List[JobSpec]:
    """Specs for the built-in stream-program suite
    (:mod:`repro.kernels.streams`): one ``stream`` job per program."""
    from ..kernels.streams import STREAM_CASES
    return [
        JobSpec(
            job_id=f"builtin/streams/{case.name}",
            source=case.program.source,
            kind="stream",
            stream_program=case.program.to_dict(include_source=False),
            meta={"suite": "streams", "program": case.name,
                  "expected_racy": case.expected_racy,
                  "notes": case.notes})
        for case in STREAM_CASES
    ]


def builtin_jobs(suite: Optional[str] = None,
                 engine: str = "sesa") -> List[JobSpec]:
    """Specs for one built-in suite, or the whole corpus.

    ``streams`` is a special suite of whole stream *programs*; it is
    addressed explicitly (``builtin:streams``) and deliberately not
    part of the no-suite full corpus, which stays kernels-only.
    """
    if suite == "streams":
        return stream_jobs()
    if suite is None:
        out = []
        for name, kernels in SUITES.items():
            out.extend(spec_from_kernel(k, engine, name) for k in kernels)
        return out
    try:
        kernels = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r} "
            f"(expected one of {', '.join(sorted(SUITES) + ['streams'])})"
        ) from None
    return [spec_from_kernel(k, engine, suite) for k in kernels]


def file_job(path: str, engine: str = "sesa",
             root: Optional[str] = None, **config) -> JobSpec:
    """A spec for one MiniCUDA source file; *config* holds
    :class:`~repro.sym.LaunchConfig` keyword arguments."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    job_id = os.path.relpath(path, root) if root else path
    return JobSpec(job_id=job_id, source=source, engine=engine,
                   config=LaunchConfig(**config))


def directory_jobs(path: str, engine: str = "sesa",
                   **config) -> List[JobSpec]:
    """Specs for every kernel source under *path* (recursive, sorted)."""
    found: List[str] = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                found.append(os.path.join(dirpath, name))
    return [file_job(p, engine, root=path, **config) for p in found]


def load_corpus(targets: Sequence[str], engine: str = "sesa",
                **config) -> List[JobSpec]:
    """Resolve CLI corpus targets into job specs.

    A target is ``builtin``, ``builtin:<suite>``, a directory, or a
    single source file. No targets means the full built-in corpus.
    """
    if not targets:
        targets = ["builtin"]
    specs: List[JobSpec] = []
    for target in targets:
        if target == "builtin":
            specs.extend(builtin_jobs(None, engine))
        elif target.startswith("builtin:"):
            specs.extend(builtin_jobs(target.split(":", 1)[1], engine))
        elif os.path.isdir(target):
            specs.extend(directory_jobs(target, engine, **config))
        elif os.path.isfile(target):
            specs.append(file_job(target, engine, **config))
        else:
            raise FileNotFoundError(
                f"corpus target {target!r} is neither a built-in suite "
                f"nor an existing path")
    return specs
