"""Shared build helper for the optional compiled C kernels.

Three hot loops have C twins: the IPC timing recurrence
(:mod:`repro.core.ipc_native`), the ensemble Newton / whole-timestep
solver (:mod:`repro.spice.backends.native`) and the pipeline leveler
(:mod:`repro.synthesis.pipeline`).  Each is a :class:`Kernel`: its C
source is compiled with whatever system compiler exists (``cc`` /
``gcc`` / ``clang``) in one subprocess call, cached under
:func:`native_dir` keyed by a hash of source and flags (so the compile
cost is paid once per machine, and a flag change never reuses a stale
binary), published atomically, and bound through :mod:`ctypes`.

Every kernel is strictly optional: no compiler, a failed compile or an
unloadable object logs one warning through the owning module's logger
and leaves the kernel unavailable, and its caller runs the pure-Python
or NumPy path instead (same results, just slower).  ``REPRO_NATIVE=0``
disables all of them.  Nothing is installed and no third-party build
system is involved.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from ctypes import CDLL
from pathlib import Path
from typing import Callable

#: Set to ``0`` to run every kernel's pure-Python/NumPy fallback.
NATIVE_ENV = "REPRO_NATIVE"

#: Override the directory where compiled kernels are cached.
NATIVE_DIR_ENV = "REPRO_NATIVE_DIR"

#: Every kernel constructed in this process (fault injection resets them).
KERNELS: list["Kernel"] = []


def native_dir() -> Path:
    """Directory holding compiled kernel objects."""
    override = os.environ.get(NATIVE_DIR_ENV)
    if override:
        return Path(override)
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except RuntimeError:                           # no resolvable home
        return Path(tempfile.gettempdir()) / "repro-native"


def find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


class Kernel:
    """One C kernel: source, compile flags, ctypes binding, load state.

    *flag_sets* are tried in order until one compiles (a portable retry
    after ``-march=native``, say); *bind* turns the loaded
    :class:`ctypes.CDLL` into whatever the caller invokes.  *what* names
    the kernel and *fallback* the path that runs without it, in warnings.
    """

    def __init__(self, stem: str, source: str, bind: Callable,
                 logger: logging.Logger, what: str, fallback: str,
                 flag_sets: tuple[tuple[str, ...], ...] = (("-O2",),),
                 libs: tuple[str, ...] = ()) -> None:
        self.stem, self.source, self.bind = stem, source, bind
        self.logger, self.what, self.fallback = logger, what, fallback
        self.flag_sets, self.libs = flag_sets, libs
        # "unset" until first use, then the bound kernel or None; _built
        # ignores REPRO_NATIVE, _state honours it.  Never retried within
        # a process unless reset.
        self._built: object = "unset"
        self._state: object = "unset"
        KERNELS.append(self)

    def so_path(self) -> Path:
        key = "|".join([self.source, *map(" ".join, self.flag_sets),
                        *self.libs])
        tag = hashlib.sha256(key.encode()).hexdigest()[:16]
        return native_dir() / f"{self.stem}_{tag}.so"

    def _compile(self) -> Path | None:
        """Compile (or reuse) the shared object; None on any failure."""
        so_path = self.so_path()
        if so_path.exists():
            return so_path
        compiler = find_compiler()
        if compiler is None:
            self.logger.warning("no C compiler found; %s falls back to %s",
                                self.what, self.fallback)
            return None
        try:
            so_path.parent.mkdir(parents=True, exist_ok=True)
            src_path = so_path.with_suffix(".c")
            src_path.write_text(self.source)
            with tempfile.NamedTemporaryFile(
                    dir=so_path.parent, suffix=".so", delete=False) as tmp:
                tmp_path = Path(tmp.name)
            for flags in self.flag_sets:
                result = subprocess.run(
                    [compiler, *flags, "-shared", "-fPIC",
                     "-o", str(tmp_path), str(src_path), *self.libs],
                    capture_output=True, text=True, timeout=120)
                if result.returncode == 0:
                    os.replace(tmp_path, so_path)  # atomic publish
                    return so_path
            self.logger.warning(
                "%s compile failed (%s); falling back to %s:\n%s",
                self.what, compiler, self.fallback, result.stderr.strip())
            tmp_path.unlink(missing_ok=True)
        except OSError as exc:
            self.logger.warning("%s build unavailable (%s); falling back "
                                "to %s", self.what, exc, self.fallback)
        return None

    def build(self):
        """The bound kernel whatever ``REPRO_NATIVE`` says, or None when
        it cannot be built (cached).  Oracle checks call this."""
        if self._built == "unset":
            so_path = self._compile()
            self._built = None
            if so_path is not None:
                try:
                    self._built = self.bind(CDLL(str(so_path)))
                except OSError as exc:             # stale/foreign object
                    self.logger.warning(
                        "%s load failed (%s); falling back to %s",
                        self.what, exc, self.fallback)
        return self._built

    def load(self):
        """The bound kernel, or None when disabled or unavailable (cached)."""
        if self._state == "unset":
            self._state = (None if os.environ.get(NATIVE_ENV, "1") == "0"
                           else self.build())
        return self._state

    def reset(self, state: object = "unset") -> None:
        """Forget the load state; ``reset(None)`` pins it to unavailable
        (tests toggle ``REPRO_NATIVE`` around this)."""
        self._built = "unset"
        self._state = state
