"""The package's C loops (_loops.c), built into one cached library at first use.

Each numeric loop does the operations of its numpy twin in its order,
so a run writes the same bytes with the library as without it; the
twins of mc_block, moment_rows, state_steps and bicc_steps
(adversary._numpy_mc_block, adversary._numpy_moment_rows,
protocols._numpy_state_steps, protocols._numpy_bicc_steps) take the C
function's arguments, and their callers pick `function(name) or twin`
once.  The Monte Carlo block also draws each trial's interceptions,
from the same Philox words as numpy.  The CSV row writer (harness)
writes the bytes of the Python writer, with an exact %.17g.  `library`
is the one switch: ... until the first function() call, then the
loaded library, or None where it cannot be built or loaded, in which
case every caller runs its numpy (or Python) loop.  Tests set it to
choose the loops.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# -O3 vectorizes the Monte Carlo lanes; -ffp-contract=off: no fused multiply-add; the
# source comes on stdin; -lm for floor and ldexp
_BUILD = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared", "-x", "c", "-", "-x", "none",
          "-lm")
library = ...


def function(name):
    """The C function `name`, or None where the library is unavailable.

    `name` is mc_block, state_steps, bicc_steps, csv_rows or moment_rows.

    The library is built and loaded at the first call: compiled with
    the system's `cc` into $XDG_CACHE_HOME/pcsim (~/.cache/pcsim when
    unset, made with mode 0700, and used only while no other user can
    write it), named by the SHA-256 of the source, the build command
    and the platform, and renamed into place from a temporary name, so
    concurrent first runs never load a partial file.  Any failure (no
    compiler, a directory that cannot be written, a failed load) leaves
    the numpy loops and the Python CSV writer in use, silently.
    """
    global library
    if library is ...:
        try:
            library = _load()
        except Exception:  # a failure only costs speed: numpy writes the same bytes
            library = None
    return None if library is None else getattr(library, name)


def _load():
    """The cached library with its functions typed, built first if missing; raises on failure."""
    import ctypes
    import hashlib
    import sysconfig

    source = Path(__file__).with_name("_loops.c").read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_BUILD).encode(), sysconfig.get_platform().encode()]))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "pcsim"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:  # others could plant a library
        raise PermissionError(f"{cache} is not private to this user")
    path = cache / f"loops-{key.hexdigest()}.so"
    if not path.exists():
        import subprocess  # only to build: importing it costs every run memory
        import tempfile

        fd, part = tempfile.mkstemp(suffix=".so.part", dir=cache)
        os.close(fd)
        try:
            subprocess.run([*_BUILD, "-o", part], input=source, capture_output=True, check=True,
                           timeout=120)
            os.replace(part, path)
        finally:
            Path(part).unlink(missing_ok=True)
    loaded = ctypes.CDLL(str(path))
    size = ctypes.c_ssize_t
    rows = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    flags = np.ctypeslib.ndpointer(np.bool_, ndim=2, flags="C_CONTIGUOUS")
    indices = np.ctypeslib.ndpointer(np.intp, ndim=1, flags="C_CONTIGUOUS")
    column = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    words = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS")  # keys, lane words

    class maybe_rows(rows):  # or None, passed as NULL
        @classmethod
        def from_param(cls, obj):
            return None if obj is None else rows.from_param(obj)

    loaded.mc_block.argtypes = [
        words, size, maybe_rows, rows, size, size, ctypes.c_int, ctypes.c_uint64, words, words,
        rows, rows, column, column]
    loaded.state_steps.argtypes = [
        indices, indices, column, size, size, size, size, rows, maybe_rows]
    loaded.bicc_steps.argtypes = [
        indices, indices, column, size, size, column, ctypes.c_int, size, size, rows, rows, rows,
        flags]
    loaded.mc_block.restype = loaded.state_steps.restype = loaded.bicc_steps.restype = None
    loaded.csv_rows.argtypes = [
        size, size, size, size, np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.uintp, ndim=1, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")]
    loaded.csv_rows.restype = size
    real = ctypes.c_double
    loaded.moment_rows.argtypes = [
        rows, ctypes.c_int, size, size, size, real, real, real, column, column, column,
        maybe_rows, real]
    loaded.moment_rows.restype = real
    return loaded
