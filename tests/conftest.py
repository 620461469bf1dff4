"""Shared fixtures: small named bases reused across the test modules."""

from fractions import Fraction

import pytest

from conecert.corpus import corpus_bases, named_basis
from conecert.linalg import QVector

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def qv(*coords) -> QVector:
    return QVector(coords)


def frac(num, den=1) -> Fraction:
    return Fraction(num, den)


@pytest.fixture(scope="session")
def a2():
    return named_basis("A2")


@pytest.fixture(scope="session")
def b2():
    return named_basis("B2")


@pytest.fixture(scope="session")
def a3():
    return named_basis("A3")


@pytest.fixture(scope="session")
def g2():
    return named_basis("G2")


@pytest.fixture(scope="session")
def corpus():
    return corpus_bases()
