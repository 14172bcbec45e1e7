import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rifs_lab import (
    ProbVector,
    RareTailError,
    load_spec,
    pressure,
    sample_scenery,
    sampler,
    scenery_csv,
)
from rifs_lab.rifs import INVERSE_SQUARE_CDF, zeta_probability, zeta_tail
from rifs_lab.sampler import SceneryPath, record_sequences

from conftest import DATA
from oracles import (
    independent_record_check,
    inverse_square_cdf,
    pair_two_stall_probability,
    past_cap,
    record_pairs_reference,
    scenery_csv_reference,
)

D1_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "counterexample_d1.json"
TWO_IFS_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "two_ifs.json"

GOLDEN_SEED42 = [3, 1, 4, 2, 1, 25, 3, 3, 1, 1]


class TestSampling:
    def test_deterministic_regeneration(self, inverse_square):
        a = sample_scenery(inverse_square, 500, seed=7)
        b = sample_scenery(inverse_square, 500, seed=7)
        assert (a.symbols == b.symbols).all()

    def test_prefix_consistency(self, inverse_square):
        long = sample_scenery(inverse_square, 400, seed=11)
        short = sample_scenery(inverse_square, 150, seed=11)
        assert (long.symbols[:150] == short.symbols).all()

    def test_golden_seed42(self, inverse_square):
        path = sample_scenery(inverse_square, 10, seed=42)
        assert list(path.symbols) == GOLDEN_SEED42

    def test_golden_csv_bytes(self, inverse_square):
        path = sample_scenery(inverse_square, 10, seed=42)
        golden = (DATA / "scenery_seed42_len10.csv").read_text()
        assert scenery_csv(path) == golden

    def test_finite_deterministic_symbol(self):
        pv = ProbVector("finite", (1.0,))
        path = sample_scenery(pv, 50, seed=3)
        assert (path.symbols == 1).all()

    def test_finite_two_symbol_frequencies(self):
        pv = ProbVector("finite", (0.25, 0.75))
        path = sample_scenery(pv, 100_000, seed=5)
        freq = float(np.mean(path.symbols == 2))
        assert freq == pytest.approx(0.75, abs=3 * math.sqrt(0.25 * 0.75 / 100_000))

    def test_inverse_square_symbol_one_frequency(self, inverse_square):
        path = sample_scenery(inverse_square, 200_000, seed=7)
        p1 = zeta_probability(1)
        sigma = math.sqrt(p1 * (1 - p1) / 200_000)
        assert float(np.mean(path.symbols == 1)) == pytest.approx(p1, abs=3 * sigma)

    def test_rare_tail_abort_names_variate(self, inverse_square, monkeypatch):
        monkeypatch.setattr(sampler, "MAX_SYMBOL", 10)
        with pytest.raises(RareTailError) as err:
            sample_scenery(inverse_square, 100, seed=0)
        assert 0.0 < err.value.variate < 1.0
        assert err.value.cap == 10

    def test_symbols_are_read_only(self, inverse_square, inversions):
        path = sample_scenery(inverse_square, 10, seed=1)
        with pytest.raises(ValueError):
            path.head(3)[0] = 99
        assert inversions == [3]
        with pytest.raises(ValueError):
            path.head(5)[0] = 99
        with pytest.raises(ValueError):
            path.symbols[0] = 99


@pytest.fixture
def inversions(monkeypatch) -> list[int]:
    """The number of draws of every inversion from now on."""
    sizes: list[int] = []
    invert = sampler._invert

    def spy(draws, cdf):
        sizes.append(len(draws))
        return invert(draws, cdf)

    monkeypatch.setattr(sampler, "_invert", spy)
    return sizes


def spy_head(path: SceneryPath) -> list[int]:
    """Record the prefix length of every ``path.head`` call from now on."""
    reads: list[int] = []
    head = path.head

    def spy(k):
        reads.append(k)
        return head(k)

    path.head = spy
    return reads


class TestLazyInversion:
    def test_lazy_path_matches_full_inversion(self, inverse_square):
        checked = 0
        for seed in range(200):
            try:
                lazy = sample_scenery(inverse_square, 100_000, seed=seed)
            except RareTailError:
                continue
            seqs = record_sequences(lazy, 3)
            last = max((p.position for p in seqs.pairs), default=1)
            head = lazy.head(last)
            full = SceneryPath(sample_scenery(inverse_square, 100_000, seed=seed).symbols)
            assert record_sequences(full, 3) == seqs
            assert (full.head(last) == head).all()
            checked += 1
        assert checked >= 180

    def test_draws_past_the_kept_cdf_match_the_full_cdf(self):
        # seed 2 at horizon 1e6 completes, with draws far past the kept prefix
        probs = ProbVector("inverse_square")
        path = sample_scenery(probs, 10 ** 6, seed=2)
        u = np.random.Generator(np.random.PCG64(2)).random(10 ** 6)
        expected = np.searchsorted(inverse_square_cdf(sampler.MAX_SYMBOL), u) + 1
        assert (expected > 2 * sampler._CDF_BLOCK).sum() >= 3
        assert (path.symbols == expected).all()
        assert np.shares_memory(probs.prefix_cdf(sampler._CDF_BLOCK), INVERSE_SQUARE_CDF)

    def test_record_recursion_inverts_only_what_it_reads(self, inverse_square, inversions):
        for seed in (2, 3):
            path = sample_scenery(inverse_square, 1_000_000, seed=seed)
            reads = spy_head(path)
            inversions.clear()
            record_sequences(path, 3)
            assert reads and max(reads) < 1000
            assert inversions and max(inversions) <= 2 * max(reads)

    def test_rare_tail_beyond_every_window_read(self, inverse_square, monkeypatch):
        # seed 4 at horizon 1e4: the recursion reads 27 symbols, while the only
        # draw past symbol 1000 sits at position 4977
        path = sample_scenery(inverse_square, 10_000, seed=4)
        reads = spy_head(path)
        record_sequences(path, 3)
        read = max(reads)
        over = np.flatnonzero(path.symbols > 1000)
        assert len(over) == 1 and over[0] + 1 > read
        u = np.random.Generator(np.random.PCG64(4)).random(10_000)
        monkeypatch.setattr(sampler, "MAX_SYMBOL", 1000)
        with pytest.raises(RareTailError) as err:
            sample_scenery(inverse_square, 10_000, seed=4)
        assert err.value.variate == float(u.max())
        assert err.value.cap == 1000


CSV_PROBS = {
    "inverse_square": ProbVector("inverse_square"),
    "two_ifs": load_spec(TWO_IFS_CONFIG.read_text()).probabilities,
}


class TestSceneryCsv:
    @pytest.mark.parametrize("law", sorted(CSV_PROBS))
    @pytest.mark.parametrize("length", [1, sampler._CSV_BLOCK - 1, sampler._CSV_BLOCK,
                                        sampler._CSV_BLOCK + 1, 10 ** 5])
    def test_matches_row_writer(self, law, length):
        path = sample_scenery(CSV_PROBS[law], length, seed=0)
        assert scenery_csv(path) == scenery_csv_reference(path)

    def test_row_writer_match_covers_draws_past_the_table(self):
        # the 10^5 case above places symbols by blocks of the CDF beyond the table
        path = sample_scenery(CSV_PROBS["inverse_square"], 10 ** 5, seed=0)
        assert int((path.symbols > sampler._CDF_BLOCK).sum()) == 6

    def test_full_read_drops_the_draws(self, inverse_square):
        # seed 2 at 10^6 completes; its int64 symbols are 8 MB, and the
        # float64 draws would be 8 MB more
        tracemalloc.start()
        try:
            path = sample_scenery(inverse_square, 10 ** 6, seed=2)
            symbols = path.symbols
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 12 * 2 ** 20
        assert (path.head(10) == symbols[:10]).all()


def max_draw(seed: int, length: int) -> float:
    return float(np.random.Generator(np.random.PCG64(seed)).random(length).max())


def fixed_draws(monkeypatch, draws: list[float]) -> None:
    """Make the uniform stream that sample_scenery opens return ``draws``."""

    class Stream:
        def random(self, n):
            assert n == len(draws)
            return np.asarray(draws, dtype=np.float64)

    monkeypatch.setattr(np.random, "Generator", lambda bit_generator: Stream())


def spy_cdf_lengths(monkeypatch, probs: ProbVector) -> list[int]:
    """Record the length of every CDF that ``probs`` hands out from now on."""
    lengths: list[int] = []
    prefix_cdf = probs.prefix_cdf

    def spy(n):
        cdf = prefix_cdf(n)
        lengths.append(len(cdf))
        return cdf

    monkeypatch.setattr(probs, "prefix_cdf", spy)
    return lengths


def edge_and_margin(cap: int) -> tuple[float, float]:
    """The sampler's certificate: 1 - zeta_tail(cap) and its stated margin."""
    return 1.0 - zeta_tail(cap), (cap + 8) * 2.0 ** -52


def tail_probes(cap: int) -> list[float]:
    """Largest draws at T(cap), the float CDF at the cap, at its neighbours,
    and one ulp either side of edge - margin and edge + margin."""
    t = float(inverse_square_cdf(cap)[-1])
    edge, margin = edge_and_margin(cap)
    probes = [np.nextafter(t, 0.0), t, np.nextafter(t, 2.0)]
    for bound in (edge - margin, edge + margin):
        probes += [np.nextafter(bound, 0.0), bound, np.nextafter(bound, 2.0)]
    return [float(u) for u in probes]


class TestCertifiedTailVerdict:
    """The certified cap rule against the whole one-shot CDF at the cap."""

    @pytest.mark.parametrize("cap", [10, 1000, 10_001, 10 ** 6])
    def test_raises_exactly_when_the_full_cdf_does(self, monkeypatch, cap):
        monkeypatch.setattr(sampler, "MAX_SYMBOL", cap)
        verdicts = set()
        for umax in tail_probes(cap):
            fixed_draws(monkeypatch, [0.5, umax])
            expected = past_cap(umax, cap)
            verdicts.add(expected)
            if expected:
                with pytest.raises(RareTailError) as err:
                    sample_scenery(ProbVector("inverse_square"), 2, seed=0)
                assert err.value.variate == umax and err.value.cap == cap
            else:
                path = sample_scenery(ProbVector("inverse_square"), 2, seed=0)
                assert 1 <= path.symbols[1] <= cap
        assert verdicts == {True, False}

    @pytest.mark.parametrize("cap", [10_001, 10 ** 6])
    def test_outside_the_band_builds_no_cdf(self, monkeypatch, cap):
        monkeypatch.setattr(sampler, "MAX_SYMBOL", cap)
        edge, margin = edge_and_margin(cap)
        for umax, fails in ((np.nextafter(edge - margin, 0.0), False),
                            (np.nextafter(edge + margin, 2.0), True)):
            probs = ProbVector("inverse_square")
            lengths = spy_cdf_lengths(monkeypatch, probs)
            fixed_draws(monkeypatch, [0.5, float(umax)])
            if fails:
                with pytest.raises(RareTailError):
                    sample_scenery(probs, 2, seed=0)
            else:
                sample_scenery(probs, 2, seed=0)
            assert lengths == []

    def test_band_seed_completes_through_the_capped_cdf(self, monkeypatch):
        # seed 287345256 at horizon 1e6: the largest draw sits 1.54e-10 below
        # T(10^6), inside the margin, so only the capped CDF decides it; the
        # CDF is walked to the cap in blocks past the fixed table
        cap = sampler.MAX_SYMBOL
        umax = max_draw(287345256, 10 ** 6)
        edge, margin = edge_and_margin(cap)
        assert abs(umax - edge) <= margin and not past_cap(umax, cap)
        probs = ProbVector("inverse_square")
        lengths = spy_cdf_lengths(monkeypatch, probs)
        reached: list[int] = []
        cdf_block = probs.cdf_block

        def spy(lo, hi, start):
            reached.append(hi)
            return cdf_block(lo, hi, start)

        monkeypatch.setattr(probs, "cdf_block", spy)
        path = sample_scenery(probs, 10 ** 6, seed=287345256)
        assert max(reached) == cap
        assert max(lengths) == len(INVERSE_SQUARE_CDF) == sampler._CDF_BLOCK
        assert len(path) == 10 ** 6

    @pytest.mark.parametrize("seed, horizon", [(92, 10 ** 6), (884, 10 ** 4), (0, 10 ** 6)])
    def test_fault_seeds_name_their_largest_draw(self, inverse_square, seed, horizon):
        umax = max_draw(seed, horizon)
        assert past_cap(umax, sampler.MAX_SYMBOL)
        with pytest.raises(RareTailError) as err:
            sample_scenery(inverse_square, horizon, seed=seed)
        assert err.value.variate == umax
        assert err.value.cap == sampler.MAX_SYMBOL


class TestCdfTable:
    def test_one_read_only_table_shared_and_left_unchanged(self):
        assert len(INVERSE_SQUARE_CDF) == 1 << 14
        assert not INVERSE_SQUARE_CDF.flags.writeable
        before = INVERSE_SQUARE_CDF.copy()
        spec = load_spec(D1_CONFIG.read_text())
        for probs in (spec.probabilities, ProbVector("inverse_square")):
            cdf = probs.prefix_cdf(1 << 14)
            assert np.shares_memory(cdf, INVERSE_SQUARE_CDF) and not cdf.flags.writeable
        with pytest.raises(ValueError):
            spec.probabilities.prefix_cdf((1 << 14) + 1)
        # the band seed's verdict walks blocks to the cap, and seed 2 inverted
        # whole places draws far past the table
        for seed in (2, 3, 287345256):
            pressure.run_seed(spec, seed, 10 ** 6, 3, [0.0])
        sample_scenery(spec.probabilities, 10 ** 6, seed=2).symbols
        assert np.array_equal(INVERSE_SQUARE_CDF, before)


class TestDominationStart:
    """Prefix sums of symbols >= 1 dominate their length from n = 1, the
    start that :func:`record_sequences` takes."""

    def test_prefix_sum_oracle(self, inverse_square):
        path = sample_scenery(inverse_square, 2000, seed=123)
        sums = np.cumsum(path.symbols)
        assert all(sums[k] >= k + 1 for k in range(len(sums)))

    def test_rejects_symbols_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            SceneryPath(np.asarray([2, 0, 1], dtype=np.int64))

    def test_all_ones_boundary(self):
        path = SceneryPath(np.ones(64, dtype=np.int64))
        assert (path.prefix_sums == np.arange(1, 65)).all()


class TestRecordSequences:
    def test_hand_trace(self):
        path = SceneryPath(np.asarray([3, 1, 2, 5, 1, 1, 1], dtype=np.int64))
        seqs = record_sequences(path, 2)
        assert [(p.window, p.position) for p in seqs.pairs] == [(1, 1), (4, 4)]
        assert not seqs.degenerate and not seqs.truncated

    def test_low_entropy_path_flags_degenerate(self):
        path = SceneryPath(np.ones(32, dtype=np.int64))
        seqs = record_sequences(path, 3)
        assert [(p.window, p.position) for p in seqs.pairs] == [(1, 1)]
        assert seqs.degenerate

    def test_window_past_horizon_flags_truncated(self):
        path = SceneryPath(np.asarray([5, 1, 1], dtype=np.int64))
        seqs = record_sequences(path, 2)
        assert seqs.truncated
        assert len(seqs.pairs) == 1

    def test_matches_reference_recursion(self, inverse_square):
        for seed in range(200):
            path = sample_scenery(inverse_square, 2000, seed=seed)
            seqs = record_sequences(path, 3)
            ref_pairs, ref_deg, ref_trunc = record_pairs_reference(path.symbols, 3)
            assert [(p.window, p.position) for p in seqs.pairs] == ref_pairs
            assert seqs.degenerate == ref_deg and seqs.truncated == ref_trunc

    def test_properties_over_thousand_seeds(self, inverse_square):
        # all four record clauses on every returned pair, re-checked independently
        for seed in range(1000, 2000):
            path = sample_scenery(inverse_square, 2000, seed=seed)
            seqs = record_sequences(path, 3)
            independent_record_check(path.symbols, seqs)

    def test_pair_two_stall_rate_matches_the_law(self, inverse_square):
        # pre-registered: seeds 0..3999 at horizon 10^4, 4 binomial SDs;
        # seeds that draw past the symbol cap are excluded and counted
        law = pair_two_stall_probability()
        assert law == pytest.approx(0.591155, abs=1e-6)
        stalled = completed = rare = 0
        for seed in range(4000):
            try:
                path = sample_scenery(inverse_square, 10_000, seed=seed)
            except RareTailError:
                rare += 1
                continue
            seqs = record_sequences(path, 2)
            completed += 1
            stalled += seqs.degenerate and len(seqs.pairs) == 1
        assert rare < 100
        sd = math.sqrt(law * (1 - law) / completed)
        assert abs(stalled / completed - law) <= 4 * sd, (stalled, completed, rare)


@pytest.fixture(scope="module")
def max_prefix_means(inverse_square):
    out = []
    for seed in range(100, 200):
        try:
            path = sample_scenery(inverse_square, 100_000, seed=seed)
        except RareTailError:
            continue
        out.append(float(path.prefix_means.max()))
    return out


class TestHeavyTailDivergence:
    """Prefix means grow without bound; rates pinned from a measured run."""

    def test_every_seed_exceeds_six(self, max_prefix_means):
        assert len(max_prefix_means) >= 95
        assert min(max_prefix_means) > 6.0

    @pytest.mark.xfail(
        reason="threshold 10 at horizon 1e5 is reached by ~75-80% of seeds, "
               "not 99%; measured over bases 100-500 in the pre-registered run",
        strict=True,
    )
    def test_stated_threshold_ten_for_99_seeds(self, max_prefix_means):
        hits = sum(1 for m in max_prefix_means if m > 10.0)
        assert hits >= 99

    def test_median_mean_grows_between_scales(self, inverse_square):
        at_100, at_10k = [], []
        for seed in range(1000, 1100):
            try:
                path = sample_scenery(inverse_square, 10_000, seed=seed)
            except RareTailError:
                continue
            at_100.append(float(path.prefix_means[99]))
            at_10k.append(float(path.prefix_means[-1]))
        assert np.median(at_10k) > np.median(at_100) > 1.0

    @pytest.mark.xfail(
        reason="per-seed mean growth 1e2 -> 1e4 holds for ~76% of seeds, "
               "not 95%; a single early heavy symbol dominates both scales",
        strict=True,
    )
    def test_stated_per_seed_growth_rate(self, inverse_square):
        wins = total = 0
        for seed in range(1000, 1100):
            try:
                path = sample_scenery(inverse_square, 10_000, seed=seed)
            except RareTailError:
                continue
            total += 1
            wins += path.prefix_means[-1] > path.prefix_means[99]
        assert wins >= 0.95 * total
