import re

from setuptools import find_packages, setup

with open("README.md", encoding="utf-8") as f:
    long_description = f.read()

with open("src/repro/__init__.py", encoding="utf-8") as f:
    version = re.search(r'^__version__ = "([^"]+)"', f.read(), re.M).group(1)

setup(
    name="matex-repro",
    version=version,
    description=(
        "MATEX: distributed matrix-exponential transient simulation of "
        "power distribution networks (reproduction of Zhuang et al., "
        "DAC 2014)"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    author="MATEX reproduction contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=2.0",
        "scipy>=1.8",
    ],
    extras_require={
        "test": [
            "pytest>=7",
            "hypothesis>=6",
        ],
    },
    entry_points={
        "console_scripts": [
            "matex=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
