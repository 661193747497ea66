"""Tests of the simulation decoders against brute-force enumerations.

The covering rank is counted and the binning scan hashes the sequence
space in blocks; each is checked here against the plain enumeration of all
|Y|^n output sequences, which is kept in this file as the reference. The
remaining tests pin the typed errors of oversized campaigns and covering
runs at block lengths the enumeration could not reach.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrate import sim
from actrate.binary import make_binary_example
from actrate.cli import main
from actrate.errors import DomainError, SearchSpaceError
from actrate.model import ActionPolicy, AuxiliaryChoice, spec_to_json
from actrate.sim import (
    SimConfig,
    _bin_members,
    _splitmix64,
    _typical_pairs,
    _TypicalCounter,
    _U64,
    is_jointly_typical,
    run_campaign,
)


def all_sequences(alphabet, n):
    """(alphabet^n, n) symbol rows; the row index is the canonical order."""
    idx = np.arange(alphabet**n, dtype=np.int64)
    place = alphabet ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // place[None, :]) % alphabet


def typical_rows(cells, n, flat_joint, epsilon):
    """Robust typicality of each row of flattened tuple indices."""
    rows, k = cells.shape[0], flat_joint.size
    offsets = np.arange(rows, dtype=np.int64) * k
    counts = np.bincount(
        (cells + offsets[:, None]).reshape(-1), minlength=rows * k
    ).reshape(rows, k)
    return np.all(
        np.abs(counts / n - flat_joint[None, :]) <= epsilon * flat_joint[None, :],
        axis=1,
    )


def brute_members(p_vy, vhat, epsilon):
    """Canonical indices of every y typical with vhat, by enumeration."""
    n, y_size = len(vhat), p_vy.shape[1]
    cells = vhat[None, :] * y_size + all_sequences(y_size, n)
    return np.flatnonzero(typical_rows(cells, n, p_vy.reshape(-1), epsilon))


def xor_mask_aux():
    return AuxiliaryChoice(
        policy=ActionPolicy(np.array([[0, 1], [1, 0]])),
        v_given_s=np.full((2, 2), 0.5),
    )


@st.composite
def rank_cases(draw):
    v_size = draw(st.integers(1, 3))
    y_size = draw(st.integers(2, 3))
    n = draw(st.integers(1, 10 if y_size == 2 else 8))
    weights = np.array(
        draw(st.lists(st.integers(1, 9), min_size=v_size * y_size,
                      max_size=v_size * y_size)),
        dtype=float,
    )
    if draw(st.booleans()):
        weights[draw(st.integers(0, weights.size - 1))] = 0.0
    p_vy = (weights / weights.sum()).reshape(v_size, y_size)
    vhat = np.array(draw(st.lists(st.integers(0, v_size - 1), min_size=n,
                                  max_size=n)), dtype=np.int64)
    y_seq = np.array(draw(st.lists(st.integers(0, y_size - 1), min_size=n,
                                   max_size=n)), dtype=np.int64)
    epsilon = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
    member_pick = draw(st.integers(0, 10**6))
    return p_vy, vhat, y_seq, epsilon, member_pick


class TestCountedRank:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(rank_cases())
    def test_rank_and_typicality_match_the_enumeration(self, case):
        """For a random y and for a random member of the typical set, the
        counted (typical, rank) equals membership and the searchsorted
        position in the enumerated typical set, and the counted set size
        equals the enumerated one."""
        p_vy, vhat, y_seq, epsilon, member_pick = case
        n, y_size = len(vhat), p_vy.shape[1]
        members = brute_members(p_vy, vhat, epsilon)
        counter = _TypicalCounter(p_vy, n, epsilon)
        place = y_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
        probes = [y_seq]
        if len(members):
            pick = int(members[member_pick % len(members)])
            probes.append((pick // place) % y_size)
        for probe in probes:
            index = int(probe @ place)
            typical, rank = counter.rank(vhat, probe)
            assert typical == (index in set(members.tolist()))
            assert rank == int(np.searchsorted(members, index))
        v_size = p_vy.shape[0]
        size = np.prod([
            counter.completions(v, (0,) * y_size, int(np.sum(vhat == v)))
            for v in range(v_size)
        ], dtype=object)
        assert size == len(members)

    def test_counts_stay_exact_beyond_int64(self):
        """At n = 80 the binary typical set has more than 2^63 members; the
        last sequence in canonical order that is typical has rank size - 1."""
        n = 80
        p_vy = np.array([[0.5, 0.5]])
        counter = _TypicalCounter(p_vy, n, 0.5)
        size = counter.completions(0, (0, 0), n)
        assert size > 2**63
        # the largest typical sequence: the most ones allowed, ones first
        ones = counter.hi[0][1]
        y_seq = np.array([1] * ones + [0] * (n - ones), dtype=np.int64)
        typical, rank = counter.rank(np.zeros(n, dtype=np.int64), y_seq)
        assert typical
        assert rank == size - 1


class TestTypicalPairs:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_pairs_match_the_per_pair_test(self, data):
        """Every (row, other) verdict equals ``is_jointly_typical`` on the
        pair, zero-mass cells included."""
        v_size = data.draw(st.integers(1, 3))
        k_size = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        joint = rng.random((v_size, k_size))
        joint[rng.random((v_size, k_size)) < 0.2] = 0.0
        if joint.sum() == 0.0:
            joint[0, 0] = 1.0
        joint /= joint.sum()
        epsilon = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
        # rows drawn near the joint's marginals, so some pairs are typical
        rows = rng.choice(v_size, size=(7, n), p=joint.sum(1))
        others = rng.choice(k_size, size=(9, n), p=joint.sum(0))
        got = _typical_pairs(rows, others, joint, epsilon)
        want = [[is_jointly_typical([r, o], joint, epsilon) for o in others]
                for r in rows]
        assert got.tolist() == want

    def test_blocks_do_not_change_the_verdicts(self, monkeypatch):
        rng = np.random.default_rng(5)
        joint = np.array([[0.3, 0.2], [0.1, 0.4]])
        rows = rng.integers(0, 2, size=(50, 6))
        others = rng.integers(0, 2, size=(20, 6))
        whole = _typical_pairs(rows, others, joint, 1.0)
        assert whole.any() and not whole.all()
        monkeypatch.setattr(sim, "_PAIR_BLOCK", 1)
        assert np.array_equal(_typical_pairs(rows, others, joint, 1.0), whole)


class TestBlockedHash:
    def test_hash_is_the_reference_splitmix64(self):
        """Inputs k * gamma give the first outputs of splitmix64 seeded
        with 0, as published with the generator."""
        gamma = 0x9E3779B97F4A7C15
        x = np.array([k * gamma % 2**64 for k in range(4)], dtype=_U64)
        assert [int(h) for h in _splitmix64(x)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
            0x06C45D188009454F, 0xF88BB8A8724C81EC,
        ]

    @pytest.mark.parametrize("salt", [0, 123456789, 2**63 + 11, 2**64 - 1])
    @pytest.mark.parametrize("n_bins", [1, 8, 1 << 12])
    def test_blocked_scan_matches_one_shot_hash(self, salt, n_bins):
        """3^10 = 59049 is not a multiple of the block size; every bin's
        members equal the one-shot ``_splitmix64(arange ^ salt) % n_bins``."""
        n_seq = 3**10
        assert n_seq % sim._HASH_BLOCK
        bins = _splitmix64(np.arange(n_seq, dtype=_U64) ^ _U64(salt)) % _U64(n_bins)
        for target in sorted({0, n_bins - 1, int(bins[12345])}):
            got = _bin_members(n_seq, _U64(salt), n_bins, _U64(target))
            assert np.array_equal(got, np.flatnonzero(bins == _U64(target)))

    def test_small_blocks_partition_the_space(self, monkeypatch):
        monkeypatch.setattr(sim, "_HASH_BLOCK", 1000)
        n_seq, n_bins, salt = 2**12 + 3, 16, _U64(977)
        parts = [_bin_members(n_seq, salt, n_bins, _U64(b)) for b in range(n_bins)]
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n_seq))
        bins = _splitmix64(np.arange(n_seq, dtype=_U64) ^ salt) % _U64(n_bins)
        for b, part in enumerate(parts):
            assert np.array_equal(part, np.flatnonzero(bins == _U64(b)))


class TestLongCovering:
    def test_covering_at_n_40_runs_under_the_default_ceiling(self):
        """|Y|^40 is far above the default ceiling; covering no longer
        enumerates it, so the campaign runs and its breakdown sums to its
        errors."""
        cfg = SimConfig(n=40, trials=25, seed=3, mode="covering",
                        codebook_rate_v=0.25, epsilon=0.5)
        assert 2**40 > cfg.ceiling
        rep = run_campaign(make_binary_example(0.1), xor_mask_aux(), cfg)
        assert sum(rep.breakdown.values()) == round(rep.error_rate * rep.trials)
        assert rep.error_rate < 1.0
        assert rep.codebook_size == 2**10
        assert rep.rank_capacity == 2**39
        assert rep.rate == (10 + 39) / 40

    def test_rate_with_a_rank_capacity_beyond_2_64(self):
        rep = run_campaign(
            make_binary_example(0.1), xor_mask_aux(),
            SimConfig(n=80, trials=3, seed=1, mode="covering",
                      codebook_rate_v=0.1, epsilon=0.5),
        )
        assert rep.rank_capacity == 2**78
        assert rep.rate == (8 + 78) / 80
        assert json.loads(rep.to_json())["rank_capacity"] == 2**78


class TestOversizedTables:
    def test_codebook_over_the_ceiling_is_refused(self):
        for mode in ("binning", "covering"):
            with pytest.raises(SearchSpaceError) as info:
                run_campaign(
                    make_binary_example(0.1), xor_mask_aux(),
                    SimConfig(n=12, trials=1, seed=0, mode=mode, rate=0.8,
                              codebook_rate_v=3.0),
                )
            assert info.value.required == 2**36
            assert info.value.allowed == 1 << 20

    def test_bin_count_needs_a_64_bit_hash(self):
        spec, aux = make_binary_example(0.1), xor_mask_aux()
        with pytest.raises(DomainError):
            run_campaign(spec, aux, SimConfig(n=12, trials=1, seed=0,
                                              mode="timeshare", rate=6.0))
        with pytest.raises(DomainError):
            run_campaign(spec, aux, SimConfig(n=16, trials=1, seed=0,
                                              mode="timeshare", rate=4.0))
        rep = run_campaign(spec, aux, SimConfig(n=9, trials=2, seed=0,
                                                mode="timeshare", rate=7.0))
        assert rep.n_bins == 2**63

    def test_non_finite_rates_are_domain_errors(self):
        spec, aux = make_binary_example(0.1), xor_mask_aux()
        for rate, vrate in ((float("inf"), 0.1), (float("nan"), 0.1),
                            (0.5, float("nan"))):
            with pytest.raises(DomainError):
                run_campaign(spec, aux, SimConfig(n=8, trials=1, seed=0,
                                                  rate=rate, codebook_rate_v=vrate))

    @pytest.mark.parametrize("extra, needle", [
        (["--mode", "binning", "--rate", "0.8", "--vrate", "3.0"], "codebook of 2^36 rows"),
        (["--mode", "covering", "--vrate", "3.0"], "codebook of 2^36 rows"),
        (["--mode", "binning", "--rate", "6.0", "--vrate", "0.1"], "2^72"),
        (["--mode", "timeshare", "--rate", "6.0"], "2^72"),
    ])
    def test_cli_exits_2_with_a_message(self, tmp_path, capsys, extra, needle):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(make_binary_example(0.1)))
        aux_path = tmp_path / "aux.json"
        aux_path.write_text(json.dumps({
            "policy": [[0, 1], [1, 0]],
            "v_given_s": [[0.5, 0.5], [0.5, 0.5]],
        }))
        code = main(["simulate", "--spec", str(spec_path), "--aux", str(aux_path),
                     "--n", "12", "--trials", "2", "--epsilon", "0.5", *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err

