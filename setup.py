"""Build script: compiles the optional exact-arithmetic kernel extension.

The extension is cythonized from ``src/tumax/_ckernels.pyx`` at build
time. The package is fully functional without it (a pure-Python fallback
is selected at import time), so any failure to cythonize or compile
downgrades to a pure build instead of aborting.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize
    from setuptools import Extension

    ext_modules = cythonize(
        [Extension("tumax._ckernels", ["src/tumax/_ckernels.pyx"])],
        compiler_directives={"language_level": "3", "boundscheck": False},
    )
except Exception as exc:  # pragma: no cover - build-env dependent
    print(f"warning: building without compiled kernels ({exc})")
    ext_modules = []

setup(ext_modules=ext_modules)
