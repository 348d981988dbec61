"""Setuptools entry point.

The pyproject.toml carries the project metadata; this file exists so that
``pip install -e .`` also works on environments with an older setuptools that
cannot build PEP 660 editable wheels (it falls back to the legacy
``setup.py develop`` code path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of DEKG-ILP: Disconnected Emerging Knowledge Graph "
        "Oriented Inductive Link Prediction (ICDE 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy>=1.8"],
)
