"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that ``pip install -e .`` works in
offline environments where build isolation cannot download setuptools/wheel.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One version, read from the package, so the two can never disagree.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "CrowdFusion: a crowdsourced approach on data fusion refinement "
        "(ICDE 2017) — full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    extras_require={
        "dev": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0"],
    },
    entry_points={"console_scripts": ["crowdfusion = repro.cli:main"]},
)
