"""Setuptools entry point.

Declares the package layout and the ``[test]`` extra (pytest plus hypothesis
for the property-based suites under ``tests/``).  Runtime dependencies are
numpy and scipy: Jarvis' model-based plan is the LP of Eq. 3 solved with
scipy's HiGHS backend, and the golden results pin that path.  Without scipy
the solver's proportional fallback keeps runs going, but its plans differ
from the goldens.
"""

from setuptools import find_packages, setup

setup(
    name="repro-jarvis",
    version="0.4.0",
    description=(
        "Epoch-driven reproduction of Jarvis-style data/operator partitioning "
        "for edge stream monitoring queries"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "scipy",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
        ],
    },
)
