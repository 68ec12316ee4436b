"""The numeric kernels this host gives numpy, as one JSON line.

    python tests/kernels.py

Prints ``{"openblas_core": ..., "simd": [...]}``: the core type whose
kernels OpenBLAS selected (read from numpy's bundled OpenBLAS through
``ctypes``, or ``"unknown"`` where numpy bundles none), and numpy's SIMD
targets that this CPU enables (``__cpu_dispatch__`` filtered by
``__cpu_features__``). Printed figures are reproducible byte for byte only
for one kernel and one SIMD level, so a byte-level test failure is read
against this line. ``OPENBLAS_CORETYPE`` and ``NPY_DISABLE_CPU_FEATURES``
change both. pytest does not collect this file.
"""

from __future__ import annotations

import ctypes
import json
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


def simd() -> list[str]:
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


if __name__ == "__main__":
    print(json.dumps({"openblas_core": openblas_core(), "simd": simd()}))
