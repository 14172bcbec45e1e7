import json
from pathlib import Path

import pytest

from rifs_lab import Frame, ProbVector, minimal_frame
from rifs_lab.rifs import validate_spec

DATA = Path(__file__).parent / "data"


def two_ifs_doc() -> dict:
    """Half/half mix of a pair-of-halves system and a pair-of-quarters system."""
    return {
        "probabilities": {"kind": "finite", "values": [0.5, 0.5]},
        "family": {"kind": "explicit", "ifs": [
            {"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]},
            {"maps": [{"log2_ratio": -2.0, "multiplicity": 2}]},
        ]},
    }


def frame_family_doc(levels: int = 5, d: int = 1) -> dict:
    return {
        "probabilities": {"kind": "inverse_square"},
        "family": {"kind": "frame", "frame": {"rule": "minimal", "levels": levels}, "d": d},
    }


@pytest.fixture(scope="session")
def two_ifs_spec():
    return validate_spec(two_ifs_doc())


@pytest.fixture(scope="session")
def frame_family_spec():
    return validate_spec(frame_family_doc())


@pytest.fixture(scope="session")
def frame5():
    return minimal_frame(5)


@pytest.fixture(scope="session")
def pseudo_frame():
    """Levels (1, 1), (2, 2), (3, 3): small enough for enumeration oracles,
    so they break the growth axiom, which only :meth:`Frame.explicit` checks."""
    return Frame([(1, 1), (2, 2), (3, 3)])


@pytest.fixture(scope="session")
def inverse_square():
    return ProbVector("inverse_square")


def load_json(name: str):
    return json.loads((DATA / name).read_text())
