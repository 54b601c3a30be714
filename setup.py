"""Packaging for the ``repro`` library (src layout, pure Python).

numpy is the one runtime dependency, and it is required: the engine's
default execution strategy is the vectorized array-kernel executor
(``repro/core/kernels.py``), shard-side tasks run on the same kernels,
and scatter rounds cross the shard wire as packed numpy buffers.
``import repro`` without numpy is an ``ImportError``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Bounded pattern queries in big graphs — an ICDE 2015 "
                "reproduction with a query-serving engine",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
