"""Build hook for the compiled jet kernels.

The package is pure Python plus one hand-written C extension,
``finsq._jetcore``, holding the hot coefficient kernels.  The extension is
optional: without a C compiler the build skips it and ``finsq._kernels``
runs the bit-identical numpy tier instead.  ``-ffp-contract=off`` stops the
compiler from fusing multiply-adds, which would break that bit identity on
targets with FMA such as aarch64.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("finsq._jetcore", ["src/finsq/_jetcore.c"],
              extra_compile_args=["-O3", "-ffp-contract=off"], optional=True),
])
