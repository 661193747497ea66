"""Finite-blocklength Monte Carlo checks of the coding arguments.

Three trial protocols, selected by ``SimConfig.mode``:

  binning:   random codebook of v-sequences plus random binning of the
             output sequence. The encoder covers the state sequence with a
             typical codeword and acts; the decoder receives only the bin
             index, scans every output sequence in that bin, and accepts
             the ones jointly typical with its side information and ANY
             codeword. A trial succeeds when the accepted set is exactly
             the true output sequence.
  timeshare: the state-independent variant; one shared v-sequence drawn
             i.i.d. from p(v) replaces the codebook (both ends know it),
             the decoder otherwise behaves as in binning.
  covering:  a constructive description of the output: pick a codeword
             typical with the realized output and send its index together
             with the output's rank inside the canonical (index-ordered)
             enumeration of sequences typical with that codeword. The rank
             channel has 2^ceil(n*(H(Y|V) + epsilon)) slots; overflow is an
             error. Requires trivial side information (|Z| = 1).

Typicality is the robust kind: every symbol tuple's empirical frequency
has to sit within a factor (1 +- epsilon) of its probability, which forces
zero counts on zero-probability tuples. On short blocks this is a harsh
criterion; small probability cells can make the typical set empty unless
epsilon is generous, and the interesting regimes here are exactly the
short blocks, so choose epsilon against the smallest cell of the joint.

Binning uses a splitmix64 hash of the sequence index salted per trial, so
bins are reproducible from the seed alone. The binning and timeshare
decoders hash every index of the |Y|^n output-sequence space in fixed
blocks and expand only the members of the received bin to symbol rows, so
their cost is |Y|^n hashes. The covering rank is counted, not enumerated:
the typical set given a codeword factors over the codeword's symbols, and
the number of typical sequences below y in canonical order is a sum of
products of multinomial counts (enumerative coding within a type class,
Cover 1973), so covering costs polynomial time in n. ``ceiling`` bounds
what a trial enumerates: the |Y|^n hash scan and the codebook rows; larger
requests refuse with SearchSpaceError rather than thrash. Every trial
re-draws state, codebook, binning, and channel noise; trial seeds are
spawned from one SeedSequence, so campaigns are reproducible end to end
and individual trials can be replayed in isolation.
"""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, SearchSpaceError, UsageError
from .kernel import entropy_bits
from .model import AuxiliaryChoice, ProblemSpec, assemble_joint

__all__ = [
    "SimConfig",
    "TrialOutcome",
    "SimulationReport",
    "is_jointly_typical",
    "run_campaign",
]

_MODES = ("binning", "timeshare", "covering")

_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = _U64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = _U64(0x94D049BB133111EB)
_HASH_BLOCK = 1 << 15  # indices per block of the bin scan
_PAIR_BLOCK = 1 << 20  # array entries per block of a typicality test


@dataclass(frozen=True)
class SimConfig:
    """Campaign parameters.

    ``rate`` is the bin-index rate in bits per symbol (binning and
    timeshare modes; the bin count is 2^ceil(n * rate)).
    ``codebook_rate_v`` sizes the v codebook the same way (binning and
    covering). ``ceiling`` bounds what one trial enumerates: the |Y|^n
    sequences the binning and timeshare decoders hash, and the codebook
    rows of the binning and covering modes. The covering rank is counted,
    so covering is not bounded by |Y|^n.
    """

    n: int
    trials: int
    seed: int
    mode: str = "binning"
    rate: float | None = None
    codebook_rate_v: float | None = None
    epsilon: float = 0.15
    ceiling: int = 1 << 20

    def __post_init__(self):
        if self.mode not in _MODES:
            raise UsageError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.n < 1:
            raise UsageError("n must be >= 1")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DomainError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if self.mode in ("binning", "timeshare"):
            if self.rate is None or self.rate <= 0.0:
                raise UsageError(f"{self.mode} mode needs a positive rate")
        if self.mode in ("binning", "covering"):
            if self.codebook_rate_v is None or self.codebook_rate_v < 0.0:
                raise UsageError(f"{self.mode} mode needs codebook_rate_v >= 0")


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    bucket: str | None
    cost: float
    covering_failed: bool = False
    accepted_count: int | None = None
    vhat_mismatch: bool | None = None


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate of one campaign; ``breakdown`` buckets sum to the errors."""

    mode: str
    n: int
    trials: int
    seed: int
    epsilon: float
    rate: float
    error_rate: float
    breakdown: dict
    empirical_cost: float
    empirical_cost_se: float
    n_bins: int | None = None
    codebook_size: int | None = None
    rank_capacity: int | None = None
    covering_failure_rate: float | None = None
    vhat_mismatch_rate: float | None = None
    vhat_mismatch_count: int | None = None
    vhat_mismatch_decoded_ok: int | None = None
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def is_jointly_typical(sequences, joint: np.ndarray, epsilon: float) -> bool:
    """Robust joint typicality of aligned symbol sequences.

    ``sequences`` is one integer array per axis of ``joint``, all the same
    length. True iff every tuple's empirical frequency f satisfies
    |f - p| <= epsilon * p (zero-probability tuples must not occur).
    """
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    if len(seqs) != np.ndim(joint):
        raise UsageError(
            f"got {len(seqs)} sequences for a {np.ndim(joint)}-axis joint"
        )
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise UsageError("sequences must share one length")
    flat = np.ravel_multi_index(seqs, np.shape(joint))
    counts = np.bincount(flat, minlength=joint.size)
    return bool(
        np.all(np.abs(counts / n - joint.reshape(-1)) <= epsilon * joint.reshape(-1))
    )


def _count_window(joint: np.ndarray, n: int, epsilon: float):
    """Per-cell (lo, hi) bounds of the tuple counts k that are typical.

    The robust test |k/n - p| <= epsilon * p is evaluated in float64 for
    every k = 0..n, exactly as ``is_jointly_typical`` evaluates it. Its
    left side falls and then rises in k (k/n - p is monotone in k even when
    rounded), so the passing counts form the interval [lo, hi]; a cell that
    no count passes gets lo = n + 1, hi = -1.
    """
    k = np.arange(n + 1, dtype=np.int64)
    p = joint[..., None]
    ok = np.abs(k / n - p) <= epsilon * p
    some = ok.any(axis=-1)
    lo = np.where(some, ok.argmax(axis=-1), n + 1)
    hi = np.where(some, n - ok[..., ::-1].argmax(axis=-1), -1)
    return lo, hi


def _typical_pairs(rows: np.ndarray, others: np.ndarray, joint: np.ndarray,
                   epsilon: float) -> np.ndarray:
    """(len(rows), len(others)) mask of robust joint typicality.

    ``rows`` is (r, n) of symbols on axis 0 of the 2-axis ``joint``,
    ``others`` is (m, n) of symbols on its axis 1. Tuple counts come from a
    product of one-hot tables, exact in float32 below 2^24, and are checked
    against ``_count_window``, so the test is ``is_jointly_typical``'s bit
    for bit. Rows are taken in blocks whose one-hot table and counts hold
    about ``_PAIR_BLOCK`` entries.
    """
    n = rows.shape[1]
    v_size, k_size = joint.shape
    dtype = np.float32 if n < 1 << 24 else np.float64
    lo, hi = (b[:, None, :, None].astype(dtype)
              for b in _count_window(joint, n, epsilon))
    # (n, k * m) letter-major one-hot of ``others``; the counts then come
    # out (v, row, k, other), so the test reduces over whole slabs
    hot = others[None, :, :] == np.arange(k_size)[:, None, None]
    hot = hot.transpose(2, 0, 1).reshape(n, -1).astype(dtype)
    out = np.empty((len(rows), len(others)), dtype=bool)
    step = max(1, _PAIR_BLOCK // (v_size * (n + hot.shape[1])))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        rows_hot = block[None, :, :] == np.arange(v_size)[:, None, None]
        counts = (rows_hot.reshape(-1, n).astype(dtype) @ hot).reshape(
            v_size, len(block), k_size, len(others)
        )
        out[start:start + step] = np.all((counts >= lo) & (counts <= hi), axis=(0, 2))
    return out


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser of a uint64 array, as a new array (wraps mod 2^64)."""
    x = np.asarray(x, dtype=_U64) + _SPLITMIX_GAMMA
    x ^= x >> _U64(30)
    x *= _SPLITMIX_M1
    x ^= x >> _U64(27)
    x *= _SPLITMIX_M2
    x ^= x >> _U64(31)
    return x


def _bin_members(n_seq: int, salt, n_bins: int, target) -> np.ndarray:
    """Ascending indices i < n_seq with splitmix64(i ^ salt) in bin ``target``.

    ``n_bins`` is a power of two, so a bin is the hash's low bits. The index
    range is hashed in blocks of ``_HASH_BLOCK``, so memory stays flat in
    n_seq.
    """
    mask = _U64(n_bins - 1)
    found = []
    for start in range(0, n_seq, _HASH_BLOCK):
        block = np.arange(start, min(start + _HASH_BLOCK, n_seq), dtype=_U64)
        block ^= salt
        hashed = _splitmix64(block)
        hashed &= mask
        found.append(np.flatnonzero(hashed == target) + start)
    return np.concatenate(found)


def _size_bits(n: int, rate: float, what: str, max_bits: int | None = None) -> int:
    """ceil(n * rate): the base-2 exponent of a table of 2^(n * rate) entries."""
    bits = n * rate
    if not math.isfinite(bits):
        raise DomainError(f"{what} = {rate!r} gives a non-finite table size at n = {n}")
    bits = int(np.ceil(bits))
    if max_bits is not None and bits > max_bits:
        raise DomainError(
            f"{what} = {rate!r} at n = {n} needs 2^{bits} entries; "
            f"64-bit indices allow at most 2^{max_bits}"
        )
    return bits


class _TypicalCounter:
    """Exact counts over the sequences y typical with a fixed codeword vhat.

    Tuple (v, y) may occur lo[v][y]..hi[v][y] times (``_count_window`` of
    the (v, y) joint), so membership agrees with ``_typical_pairs`` bit for
    bit. Typicality constrains each codeword symbol's positions separately,
    so every count is a product over v of completion counts: multinomial
    sums over the allowed final counts. Python ints keep them exact at any n.
    """

    def __init__(self, p_vy: np.ndarray, n: int, epsilon: float):
        self.lo, self.hi = (b.tolist() for b in _count_window(p_vy, n, epsilon))
        self._memo = {}

    def completions(self, v: int, counts: tuple, left: int) -> int:
        """Ways to fill ``left`` more positions of symbol v, given its tuple
        counts so far, so that every final count is allowed."""
        key = (v, counts, left)
        found = self._memo.get(key)
        if found is None:
            lo, hi = self.lo[v], self.hi[v]
            # ways[s]: fillings of s labelled positions by the letters so far;
            # the last letter needs only s = left
            ways = [int(lo[0] <= counts[0] + s <= hi[0]) for s in range(left + 1)]
            for y in range(1, len(counts)):
                least, most = lo[y] - counts[y], hi[y] - counts[y]
                sizes = range(left + 1) if y < len(counts) - 1 else (left,)
                ways = [
                    sum(ways[s - j] * math.comb(s, j)
                        for j in range(max(least, 0), min(most, s) + 1))
                    for s in sizes
                ]
            found = self._memo[key] = ways[-1]
        return found

    def rank(self, vhat: np.ndarray, y_seq: np.ndarray) -> tuple[bool, int]:
        """(y typical with vhat, count of such sequences before y).

        The order is the canonical one (position 0 most significant): the
        rank sums, over positions t and letters b < y_t, the typical
        sequences that share y's first t letters and have b at t.
        """
        v_size, y_size = len(self.lo), len(self.lo[0])
        left = np.bincount(vhat, minlength=v_size).tolist()
        counts = [(0,) * y_size] * v_size
        ways = [self.completions(v, counts[v], left[v]) for v in range(v_size)]
        rank = 0
        for v, y in zip(vhat.tolist(), y_seq.tolist()):
            left[v] -= 1
            others = math.prod(ways[:v] + ways[v + 1:])
            c = counts[v]
            if others:
                for b in range(y):
                    bumped = c[:b] + (c[b] + 1,) + c[b + 1:]
                    rank += others * self.completions(v, bumped, left[v])
            counts[v] = c[:y] + (c[y] + 1,) + c[y + 1:]
            ways[v] = self.completions(v, counts[v], left[v])
        return all(ways), rank


def _sample_rows(rng, kernel_rows: np.ndarray, row_idx: np.ndarray) -> np.ndarray:
    """Per-position draw from kernel_rows[row_idx[t]] via inverse CDF."""
    cdf = np.cumsum(kernel_rows, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(len(row_idx))
    return np.argmax(u[:, None] < cdf[row_idx], axis=1).astype(np.int64)


class _Campaign:
    """Shared tables for one (spec, aux, config) campaign."""

    def __init__(self, spec: ProblemSpec, aux: AuxiliaryChoice, config: SimConfig):
        aux.policy.check_against(spec)
        n = config.n
        hashed = config.mode in ("binning", "timeshare")
        self.n_seq = spec.y_size**n
        if hashed and self.n_seq > config.ceiling:
            raise SearchSpaceError(
                self.n_seq, config.ceiling, f"output sequence space |Y|^{n}"
            )
        if config.mode == "covering" and spec.z_size != 1:
            raise UsageError("covering mode needs trivial side information (|Z| = 1)")
        self.spec = spec
        self.aux = aux
        self.config = config
        joint = assemble_joint(spec, aux, causal=aux.causal)
        ax = joint.axis
        self.p_vzy = joint.marginal((ax("v"), ax("z"), ax("y")))
        self.p_vs = joint.marginal((ax("v"), ax("s")))
        self.p_vy = self.p_vzy.sum(axis=1)
        self.p_v = aux.v_weights(spec)
        self.v_size = len(self.p_v)
        p_y_given_v = self.p_vy / np.where(
            self.p_vy.sum(1) == 0.0, 1.0, self.p_vy.sum(1)
        )[:, None]
        self.h_y_given_v = float(
            sum(
                self.p_vy.sum(1)[v] * entropy_bits(p_y_given_v[v])
                for v in range(self.v_size)
            )
        )
        self.state_flat = spec.state_joint.reshape(-1)
        self.n_bins = self.codebook_size = self.rank_capacity = None
        if hashed:
            self.n_bins = 1 << _size_bits(n, config.rate, "rate", max_bits=63)
            # symbol weights of the canonical order: index = y @ place
            self.place = spec.y_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
        if config.mode in ("binning", "covering"):
            self.codebook_bits = _size_bits(
                n, config.codebook_rate_v, "codebook_rate_v", max_bits=63
            )
            self.codebook_size = 1 << self.codebook_bits
            if self.codebook_size > config.ceiling:
                raise SearchSpaceError(
                    self.codebook_size, config.ceiling,
                    f"codebook of 2^{self.codebook_bits} rows",
                )
        if config.mode == "covering":
            self.rank_bits = _size_bits(
                n, self.h_y_given_v + config.epsilon, "H(Y|V) + epsilon"
            )
            self.rank_capacity = 1 << self.rank_bits
            self.typical = _TypicalCounter(self.p_vy, n, config.epsilon)

    def draw_state(self, rng):
        idx = rng.choice(
            self.spec.s_size * self.spec.z_size, size=self.config.n, p=self.state_flat
        )
        return idx // self.spec.z_size, idx % self.spec.z_size

    def act_and_transmit(self, rng, s_seq, v_seq):
        a_seq = self.aux.policy.table[s_seq, v_seq]
        rows = self.spec.channel.reshape(-1, self.spec.y_size)
        flat = a_seq * self.spec.s_size + s_seq
        y_seq = _sample_rows(rng, rows, flat)
        cost = float(self.spec.cost[a_seq, s_seq, y_seq].mean())
        return a_seq, y_seq, cost

    def cover_state(self, rng, codebook, s_seq):
        """Uniform pick among codewords typical with the state sequence."""
        mask = _typical_pairs(codebook, s_seq[None, :], self.p_vs,
                              self.config.epsilon)
        hits = np.flatnonzero(mask[:, 0])
        if not len(hits):
            # no typical codeword: pick a random index and press on anyway
            return int(rng.integers(len(codebook))), True
        return int(rng.choice(hits)), False

    def accepted_in_bin(self, rng, codebook, z_seq, y_seq):
        """Decoder scan for binning/timeshare: returns accepted row indices."""
        salt = (_U64(rng.integers(0, 1 << 32)) << _U64(32)) | _U64(
            rng.integers(0, 1 << 32)
        )
        y_index = int(y_seq @ self.place)
        y_bin = _splitmix64(np.array([y_index], dtype=_U64) ^ salt)[0] & _U64(
            self.n_bins - 1
        )
        in_bin = _bin_members(self.n_seq, salt, self.n_bins, y_bin)
        cand = (in_bin[:, None] // self.place[None, :]) % self.spec.y_size
        zy = z_seq[None, :] * self.spec.y_size + cand  # (cand, n) of z*Y + y
        accepted = _typical_pairs(
            codebook, zy, self.p_vzy.reshape(self.v_size, -1), self.config.epsilon
        ).any(axis=0)
        return in_bin[accepted], y_index


def _run_binning_trial(camp: _Campaign, rng) -> TrialOutcome:
    s_seq, z_seq = camp.draw_state(rng)
    codebook = rng.choice(camp.v_size, size=(camp.codebook_size, camp.config.n),
                          p=camp.p_v)
    pick, failed = camp.cover_state(rng, codebook, s_seq)
    _, y_seq, cost = camp.act_and_transmit(rng, s_seq, codebook[pick])
    accepted, y_index = camp.accepted_in_bin(rng, codebook, z_seq, y_seq)
    success = accepted.tolist() == [y_index]
    if success:
        bucket = None
    elif failed:
        bucket = "encoder-covering-failure"
    elif y_index not in accepted:
        bucket = "decoder-none"
    else:
        bucket = "decoder-ambiguous"
    return TrialOutcome(success, bucket, cost, covering_failed=failed,
                        accepted_count=len(accepted))


def _run_timeshare_trial(camp: _Campaign, rng) -> TrialOutcome:
    s_seq, z_seq = camp.draw_state(rng)
    v_seq = rng.choice(camp.v_size, size=camp.config.n, p=camp.p_v)
    _, y_seq, cost = camp.act_and_transmit(rng, s_seq, v_seq)
    accepted, y_index = camp.accepted_in_bin(rng, v_seq[None, :], z_seq, y_seq)
    success = accepted.tolist() == [y_index]
    if success:
        bucket = None
    elif y_index not in accepted:
        bucket = "decoder-none"
    else:
        bucket = "decoder-ambiguous"
    return TrialOutcome(success, bucket, cost, accepted_count=len(accepted))


def _run_covering_trial(camp: _Campaign, rng) -> TrialOutcome:
    s_seq, _ = camp.draw_state(rng)
    codebook = rng.choice(camp.v_size, size=(camp.codebook_size, camp.config.n),
                          p=camp.p_v)
    pick, failed = camp.cover_state(rng, codebook, s_seq)
    _, y_seq, cost = camp.act_and_transmit(rng, s_seq, codebook[pick])
    # describe y: a codeword typical with it, then y's rank inside that
    # codeword's conditional typical set (canonical sequence order)
    mask = _typical_pairs(codebook, y_seq[None, :], camp.p_vy, camp.config.epsilon)
    hits = np.flatnonzero(mask[:, 0])
    if not len(hits):
        bucket = "encoder-covering-failure" if failed else "decoder-none"
        return TrialOutcome(False, bucket, cost, covering_failed=failed,
                            vhat_mismatch=None)
    vhat_idx = int(rng.choice(hits))
    vhat = codebook[vhat_idx]
    mismatch = not np.array_equal(vhat, codebook[pick])
    # vhat is typical with y by construction (``hits``), so only the rank
    # channel's capacity can fail here
    _, rank = camp.typical.rank(vhat, y_seq)
    if rank >= camp.rank_capacity:
        bucket = "encoder-covering-failure" if failed else "decoder-ambiguous"
        return TrialOutcome(False, bucket, cost, covering_failed=failed,
                            vhat_mismatch=mismatch)
    return TrialOutcome(True, None, cost, covering_failed=failed, vhat_mismatch=mismatch)


_TRIAL_RUNNERS = {
    "binning": _run_binning_trial,
    "timeshare": _run_timeshare_trial,
    "covering": _run_covering_trial,
}


def run_campaign(
    spec: ProblemSpec, aux: AuxiliaryChoice, config: SimConfig
) -> SimulationReport:
    """Run ``config.trials`` independent trials and aggregate them."""
    camp = _Campaign(spec, aux, config)
    runner = _TRIAL_RUNNERS[config.mode]
    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    outcomes = [runner(camp, np.random.default_rng(c)) for c in children]

    errors = [o for o in outcomes if not o.success]
    breakdown = {
        "encoder-covering-failure": 0,
        "decoder-none": 0,
        "decoder-ambiguous": 0,
    }
    for o in errors:
        breakdown[o.bucket] += 1
    costs = np.array([o.cost for o in outcomes])
    if config.mode == "covering":
        eff_rate = (camp.codebook_bits + camp.rank_bits) / config.n
        flagged = [o for o in outcomes if o.vhat_mismatch is not None]
        mismatched = [o for o in flagged if o.vhat_mismatch]
        mismatch_rate = len(mismatched) / len(flagged) if flagged else 0.0
        mismatch_count = len(mismatched)
        mismatch_ok = sum(1 for o in mismatched if o.success)
    else:
        eff_rate = float(config.rate)
        mismatch_rate = None
        mismatch_count = None
        mismatch_ok = None
    if config.mode in ("binning", "covering"):
        fail_rate = float(np.mean([o.covering_failed for o in outcomes]))
    else:
        fail_rate = None
    return SimulationReport(
        mode=config.mode,
        n=config.n,
        trials=config.trials,
        seed=config.seed,
        epsilon=config.epsilon,
        rate=float(eff_rate),
        error_rate=len(errors) / config.trials,
        breakdown=breakdown,
        empirical_cost=float(costs.mean()),
        empirical_cost_se=float(costs.std(ddof=1) / np.sqrt(config.trials))
        if config.trials > 1
        else 0.0,
        n_bins=camp.n_bins,
        codebook_size=camp.codebook_size,
        rank_capacity=camp.rank_capacity,
        covering_failure_rate=fail_rate,
        vhat_mismatch_rate=mismatch_rate,
        vhat_mismatch_count=mismatch_count,
        vhat_mismatch_decoded_ok=mismatch_ok,
        config=asdict(config),
    )
