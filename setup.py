"""Build the native kernels into the package.

`src/minclue/_ckernels.c` is compiled by the function that also builds it
on first import (`minclue._cbuild.build`), into the cache the loader
reads, so an installed package needs no compiler at run time.  A failed
build is not fatal: the package then compiles the kernels on first import
when a compiler is present, and falls back to pure Python otherwise.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from setuptools import Distribution, setup
from setuptools.command.build_py import build_py

CBUILD = Path(__file__).resolve().parent / "src" / "minclue" / "_cbuild.py"


def load_cbuild():
    spec = importlib.util.spec_from_file_location("minclue_cbuild", CBUILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class BuildPyWithKernels(build_py):
    def run(self):
        super().run()
        cbuild = load_cbuild()
        target = Path(self.build_lib, "minclue", "__pycache__", cbuild.library_name())
        try:
            cbuild.build(target)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            print(f"warning: native kernels not built: {detail}", file=sys.stderr)


class PlatformDistribution(Distribution):
    """The wheel carries a compiled library, so tag it for this platform."""

    def has_ext_modules(self):
        return True


setup(
    cmdclass={"build_py": BuildPyWithKernels},
    distclass=PlatformDistribution,
)
