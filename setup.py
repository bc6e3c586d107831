"""Setup shim for environments whose setuptools predates PEP 660 editable
installs (the offline box has no wheel package, so ``pip install -e .`` falls
back to this legacy path)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of DeepOD: Effective Travel Time Estimation "
        "(SIGMOD 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
