"""The shared build helper every compiled kernel goes through."""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import ipc_native
from repro.runtime import native
from repro.spice.backends import native as spice_native
from repro.synthesis import pipeline


def test_every_kernel_resolves_one_dir_without_a_home(monkeypatch):
    """No resolvable home: all kernels fall back to one temp directory."""
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv(native.NATIVE_DIR_ENV, raising=False)
    monkeypatch.setattr(Path, "home", no_home)
    kernels = [ipc_native._KERNEL, spice_native._KERNEL, pipeline._KERNEL]
    dirs = {kernel.so_path().parent for kernel in kernels}
    assert dirs == {Path(tempfile.gettempdir()) / "repro-native"}
    assert len({kernel.so_path() for kernel in kernels}) == 3


def test_flags_are_part_of_the_cache_key(monkeypatch, tmp_path):
    monkeypatch.setenv(native.NATIVE_DIR_ENV, str(tmp_path))
    kernel = spice_native._KERNEL
    tuned = kernel.so_path()
    monkeypatch.setattr(kernel, "flag_sets", kernel.flag_sets[1:])
    assert kernel.so_path().parent == tuned.parent == tmp_path
    assert kernel.so_path() != tuned
