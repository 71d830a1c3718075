from setuptools import find_packages, setup

setup(
    name="repro-wunderlich-dac86",
    description=(
        "Reproduction of Wunderlich & Rosenstiel (DAC 1986): PROTEST-era "
        "probabilistic testability analysis for MOS technologies"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy is a hard runtime dependency: weighted pattern sampling and
    # the exact/Monte-Carlo estimators use it, and the vector engine
    # (repro.simulate.vector) is built on uint64 lane arrays.  It is the
    # only one: the switch-level path search and conduction check are
    # in-repo, and the graph library their reference implementation
    # uses (tests/transmission_reference.py) is a test dependency.
    install_requires=["numpy>=1.22"],
)
