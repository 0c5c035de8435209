"""repro — a Python reproduction of SESA (SC'14).

SESA: practical symbolic race checking of GPU programs via parametric
symbolic execution plus static (taint / data-flow) analysis.

Public entry points:

* :class:`repro.core.SESA` — compile a MiniCUDA kernel, run the static
  analyses, execute parametrically, and report races / OOBs with witnesses.
* :mod:`repro.core.baselines` — GKLEE- and GKLEEp-style comparators.
* :mod:`repro.kernels` — the benchmark kernel suite from the paper.
"""

import hashlib as _hashlib
import os as _os
import threading as _threading

__version__ = "1.0.0"

#: sha256 over the package's ``.py`` sources, computed on first use
_code_digest = None
_code_digest_lock = _threading.Lock()


def code_digest() -> str:
    """A SHA-256 digest of every ``.py`` file in this package.

    Result-cache keys and stream fingerprints mix this in rather than
    ``__version__``, which does not change when the analysis code
    does: an entry written by other checker code is then a miss, never
    a stale verdict. Computed lazily, once per process.
    """
    global _code_digest
    if _code_digest is None:
        with _code_digest_lock:
            if _code_digest is None:
                root = _os.path.dirname(_os.path.abspath(__file__))
                digest = _hashlib.sha256()
                for dirpath, dirnames, filenames in _os.walk(root):
                    dirnames[:] = sorted(d for d in dirnames
                                         if d != "__pycache__")
                    for name in sorted(filenames):
                        if not name.endswith(".py"):
                            continue
                        path = _os.path.join(dirpath, name)
                        rel = _os.path.relpath(path, root)
                        digest.update(rel.replace(_os.sep, "/").encode())
                        with open(path, "rb") as fh:
                            digest.update(b"\0" + fh.read() + b"\0")
                _code_digest = digest.hexdigest()
    return _code_digest
