"""Setuptools entry point.

Kept as an executable ``setup.py`` (rather than a fully declarative
``pyproject.toml``) so that the package installs in editable mode on
machines without the ``wheel`` package (offline environments where
``pip install -e .`` cannot build an editable wheel):
``python setup.py develop --user`` or
``pip install -e . --no-build-isolation`` both work through it.

The long description is the top-level ``README.md``.
"""

import os

from setuptools import find_packages, setup

_HERE = os.path.abspath(os.path.dirname(__file__))


def _read(relative_path):
    with open(os.path.join(_HERE, relative_path), encoding="utf-8") as handle:
        return handle.read()


_VERSION = {}
exec(_read(os.path.join("src", "repro", "_version.py")), _VERSION)

setup(
    name="repro-leader-election",
    version=_VERSION["__version__"],
    description=(
        "Reproduction of 'Four Shades of Deterministic Leader Election in "
        "Anonymous Networks' (Gorain, Miller, Pelc; SPAA 2021)"
    ),
    long_description=_read("README.md"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.8",
    # The library is dependency-free by design; numpy unlocks the refinement
    # engine's vector passes (byte-identical results, just faster passes on
    # graphs where many nodes change class).
    extras_require={"fast": ["numpy"]},
    entry_points={
        "console_scripts": [
            "repro-leader-election = repro.cli:main",
        ]
    },
)
