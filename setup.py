"""Package metadata for ``repro``.

This file is the project's only build configuration.  ``pip install -e .``
works in offline environments without the ``wheel`` package (pip then
falls back to ``setup.py develop``); running from a checkout needs no
install at all with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'MOM: a Matrix SIMD Instruction Set Architecture for "
        "Multimedia Applications' (SC'99)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
