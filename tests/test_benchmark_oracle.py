"""The benchmark oracle (perfbench/oracle.py) and the sampler agree on the tail rule.

The benchmark predicts from the oracle which seeds end in RareTailError and
checks the program against that prediction, so a change to the rule in the
library alone would otherwise surface only in a benchmark run.  This test
reads perfbench/ and changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rifs_lab import ProbVector, RareTailError, sample_scenery

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle",
                                                  ROOT / "perfbench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def oracle_cdf(oracle):
    return oracle.InverseSquareCDF()


# the benchmark's fault seeds (92 at 1e6, 884 at 1e4, `sample --seed 0` at
# 1e6) and a seed whose largest draw lies 1.54e-10 below the capped CDF
@pytest.mark.parametrize("seed, horizon, verdict", [
    (92, 10 ** 6, "F2"), (884, 10 ** 4, "F2"), (0, 10 ** 6, "F2"), (287345256, 10 ** 6, "ok"),
])
def test_tail_verdict_matches_the_sampler(oracle, oracle_cdf, seed, horizon, verdict):
    assert oracle_cdf.tail_verdict(oracle.max_draw(seed, horizon)) == verdict
    if verdict == "F2":
        with pytest.raises(RareTailError):
            sample_scenery(ProbVector("inverse_square"), horizon, seed)
    else:
        assert len(sample_scenery(ProbVector("inverse_square"), horizon, seed)) == horizon
