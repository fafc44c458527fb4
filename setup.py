"""Offline install path: ``python setup.py develop`` needs only the
installed setuptools, while ``pip install -e .`` needs ``wheel`` (see
the note in pyproject.toml and README "Offline install")."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
