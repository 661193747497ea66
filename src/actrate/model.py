"""Problem description and exact evaluation of rate objectives.

A problem instance couples a memoryless state S with decoder side
information Z through a joint pmf p(s, z), an action-dependent channel
p(y | a, s), a per-symbol cost cost[a, s, y] >= 0, and optionally a
distortion table d[y, yhat]. An encoding strategy is an auxiliary
description V together with a deterministic action policy a = f(s, v).

Two information patterns are supported:

* non-causal: V is generated from the whole state sequence, modeled here
  by a conditional pmf p(v | s);
* causal: V must be chosen before seeing the state, modeled by a marginal
  pmf p(v) independent of S.

``assemble_joint`` builds the full joint table over (z, s, v, a, y) plus
optional reconstruction/description axes; the evaluation functions below
compute the operational rate expressions from that table. Everything here
is the exact reference path; the search code in ``solver`` has its own
vectorized evaluator and is cross-checked against these functions.
"""

import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistributionError, SpecFormatError, UsageError
from .kernel import (
    JointTable,
    MASS_TOL,
    conditional_entropy,
    conditional_mutual_information,
)

__all__ = [
    "ProblemSpec",
    "ActionPolicy",
    "AuxiliaryChoice",
    "assemble_joint",
    "reduced_cost",
    "expected_cost",
    "expected_distortion",
    "noncausal_rate",
    "causal_rate",
    "causal_lossy_rate",
    "lossy_bound_si_both",
    "lossy_bound_si_decoder",
    "lossy_bound_si_decoder_vaware",
    "spec_to_json",
    "spec_from_json",
    "aux_from_json",
    "aux_to_json",
]

# Markov/feasibility slack used by the structural check flags.
STRUCT_TOL = 1e-10


def _ro(arr, dtype=np.float64) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """A finite rate-cost problem instance.

    Fields:
      state_joint: p(s, z), shape (s_size, z_size), sums to 1.
      channel:     p(y | a, s), shape (a_size, s_size, y_size), rows sum to 1.
      cost:        cost[a, s, y] >= 0, same leading shape as channel.
      distortion:  optional d[y, yhat] >= 0 for lossy reconstruction.

    Every entry must be finite.
    """

    state_joint: np.ndarray
    channel: np.ndarray
    cost: np.ndarray
    distortion: np.ndarray | None = None

    def __post_init__(self):
        sj = _ro(self.state_joint)
        ch = _ro(self.channel)
        co = _ro(self.cost)
        if sj.ndim != 2:
            raise UsageError("state_joint must be 2-D (s, z)")
        if ch.ndim != 3:
            raise UsageError("channel must be 3-D (a, s, y)")
        if co.shape != ch.shape:
            raise UsageError(f"cost shape {co.shape} != channel shape {ch.shape}")
        if ch.shape[1] != sj.shape[0]:
            raise UsageError(
                f"channel s-axis {ch.shape[1]} != state_joint s-axis {sj.shape[0]}"
            )
        for name, arr in (("state_joint", sj), ("channel", ch), ("cost", co)):
            if not np.all(np.isfinite(arr)):
                raise InvalidDistributionError(f"{name} entries must be finite")
        if np.any(sj < 0.0) or abs(float(sj.sum()) - 1.0) > MASS_TOL:
            raise InvalidDistributionError("state_joint is not a pmf")
        if np.any(ch < 0.0) or np.any(np.abs(ch.sum(axis=-1) - 1.0) > MASS_TOL):
            raise InvalidDistributionError("channel rows are not pmfs")
        if np.any(co < 0.0):
            raise InvalidDistributionError("cost entries must be >= 0")
        di = self.distortion
        if di is not None:
            di = _ro(di)
            if di.ndim != 2 or di.shape[0] != ch.shape[2]:
                raise UsageError("distortion must be 2-D with leading y axis")
            if not np.all(np.isfinite(di)) or np.any(di < 0.0):
                raise InvalidDistributionError("distortion entries must be finite and >= 0")
        object.__setattr__(self, "state_joint", sj)
        object.__setattr__(self, "channel", ch)
        object.__setattr__(self, "cost", co)
        object.__setattr__(self, "distortion", di)

    @property
    def s_size(self) -> int:
        return int(self.state_joint.shape[0])

    @property
    def z_size(self) -> int:
        return int(self.state_joint.shape[1])

    @property
    def a_size(self) -> int:
        return int(self.channel.shape[0])

    @property
    def y_size(self) -> int:
        return int(self.channel.shape[2])

    @property
    def yhat_size(self) -> int | None:
        return None if self.distortion is None else int(self.distortion.shape[1])

    @property
    def state_marginal(self) -> np.ndarray:
        return self.state_joint.sum(axis=1)

    @property
    def side_info_marginal(self) -> np.ndarray:
        return self.state_joint.sum(axis=0)

    def fingerprint(self) -> str:
        """Stable content hash, used as a cache key by the solver."""
        h = hashlib.sha256()
        for arr in (self.state_joint, self.channel, self.cost):
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        if self.distortion is not None:
            h.update(str(self.distortion.shape).encode())
            h.update(self.distortion.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class ActionPolicy:
    """Deterministic action choice a = f(s, v), stored as table[s, v]."""

    table: np.ndarray

    def __post_init__(self):
        arr = np.array(self.table, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise UsageError("policy table must be 2-D (s, v)")
        if np.any(arr < 0):
            raise UsageError("policy actions must be nonnegative indices")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @property
    def v_size(self) -> int:
        return int(self.table.shape[1])

    def check_against(self, spec: ProblemSpec) -> None:
        if self.table.shape[0] != spec.s_size:
            raise UsageError(
                f"policy s-axis {self.table.shape[0]} != spec s-axis {spec.s_size}"
            )
        if int(self.table.max()) >= spec.a_size:
            raise UsageError("policy uses an action outside the spec's alphabet")


@dataclass(frozen=True)
class AuxiliaryChoice:
    """One concrete encoding strategy.

    Exactly one of ``v_given_s`` (non-causal, shape (s, v)) and
    ``v_marginal`` (causal, shape (v,)) must be set. Optional extras:

      recon:       p(yhat | y, v, z), shape (y, v, z, yhat), for exact lossy
                   objectives and the both-sided lossy bound.
      u_given_y:   p(u | y), shape (y, u), decoder-side description that may
                   not look at V.
      u_given_yv:  p(u | y, v), shape (y, v, u), description that may.
    """

    policy: ActionPolicy
    v_given_s: np.ndarray | None = None
    v_marginal: np.ndarray | None = None
    recon: np.ndarray | None = None
    u_given_y: np.ndarray | None = None
    u_given_yv: np.ndarray | None = None

    def __post_init__(self):
        if (self.v_given_s is None) == (self.v_marginal is None):
            raise UsageError("set exactly one of v_given_s and v_marginal")
        if self.u_given_y is not None and self.u_given_yv is not None:
            raise UsageError("set at most one of u_given_y and u_given_yv")
        for name in ("v_given_s", "v_marginal", "recon", "u_given_y", "u_given_yv"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = _ro(val)
            # a non-finite entry fails one of these comparisons, so the
            # finiteness test costs nothing on the solvers' hot path
            if np.any(arr < 0.0) or not np.all(np.abs(arr.sum(axis=-1) - 1.0) <= MASS_TOL):
                if not np.all(np.isfinite(arr)):
                    raise InvalidDistributionError(f"{name} entries must be finite")
                raise InvalidDistributionError(f"{name} rows are not pmfs")
            object.__setattr__(self, name, arr)

    @property
    def causal(self) -> bool:
        return self.v_marginal is not None

    @property
    def v_size(self) -> int:
        return self.policy.v_size

    def v_weights(self, spec: ProblemSpec) -> np.ndarray:
        """Marginal pmf of V under this choice and the spec's state law."""
        if self.causal:
            return np.array(self.v_marginal)
        return spec.state_marginal @ self.v_given_s

    def summary(self) -> str:
        """Compact one-line description, used in CSV argmin columns."""
        pol = json.dumps(self.policy.table.tolist(), separators=(",", ":"))
        if self.causal:
            probs = json.dumps(
                [round(float(x), 6) for x in self.v_marginal], separators=(",", ":")
            )
            return f"v_size={self.v_size};pv={probs};policy={pol}"
        probs = json.dumps(
            [[round(float(x), 6) for x in row] for row in self.v_given_s],
            separators=(",", ":"),
        )
        return f"v_size={self.v_size};pv_s={probs};policy={pol}"


def assemble_joint(spec: ProblemSpec, aux: AuxiliaryChoice, causal: bool) -> JointTable:
    """Build the joint pmf over (z, s, v, a, y) plus optional axes.

    The base factorization is p(z, s) * p(v | s) * 1{f(s, v) = a} * p(y | a, s)
    (with p(v) replacing p(v | s) in the causal pattern). When present,
    ``recon`` appends a "yhat" axis via p(yhat | y, v, z) and a description
    kernel appends a "u" axis via p(u | y) or p(u | y, v).

    ``causal`` must match how the aux stores its V distribution; a mismatch
    is a usage error rather than a silent reinterpretation.
    """
    aux.policy.check_against(spec)
    if causal != aux.causal:
        stored = "causal" if aux.causal else "non-causal"
        raise UsageError(f"causal={causal} but the aux stores a {stored} V law")
    s_size, z_size = spec.state_joint.shape
    v_size = aux.v_size
    y_size = spec.y_size

    if aux.causal:
        pv_s = np.broadcast_to(aux.v_marginal, (s_size, v_size))
    else:
        if aux.v_given_s.shape != (s_size, v_size):
            raise UsageError(
                f"v_given_s shape {aux.v_given_s.shape} != {(s_size, v_size)}"
            )
        pv_s = aux.v_given_s

    # T[s, v, y] = p(y | f(s, v), s)
    t = spec.channel[aux.policy.table, np.arange(s_size)[:, None], :]
    base = (
        spec.state_joint.T[:, :, None, None]
        * pv_s[None, :, :, None]
        * t[None, :, :, :]
    )  # (z, s, v, y)
    joint = np.zeros((z_size, s_size, v_size, spec.a_size, y_size))
    s_idx, v_idx = np.indices((s_size, v_size))
    joint[:, s_idx, v_idx, aux.policy.table, :] = base  # a = f(s, v)
    names = ["z", "s", "v", "a", "y"]
    mass = joint

    if aux.recon is not None:
        recon = aux.recon
        if spec.distortion is None:
            raise UsageError("recon given but the spec has no distortion table")
        want = (y_size, v_size, z_size, spec.yhat_size)
        if recon.shape != want:
            raise UsageError(f"recon shape {recon.shape} != {want}")
        # p(yhat | y, v, z) indexed (y, v, z, yhat) -> broadcast over (s, a)
        factor = np.transpose(recon, (2, 1, 0, 3))  # (z, v, y, yhat)
        mass = mass[..., None] * factor[:, None, :, None, :, :]
        names.append("yhat")

    u_kernel = aux.u_given_y if aux.u_given_y is not None else aux.u_given_yv
    if u_kernel is not None:
        if aux.u_given_y is not None:
            if u_kernel.shape[0] != y_size:
                raise UsageError("u_given_y leading axis must be y")
            shape = [1] * mass.ndim + [u_kernel.shape[1]]
            shape[4] = y_size
            factor = u_kernel.reshape(shape)
        else:
            if u_kernel.shape[:2] != (y_size, v_size):
                raise UsageError("u_given_yv leading axes must be (y, v)")
            shape = [1] * mass.ndim + [u_kernel.shape[2]]
            shape[4] = y_size
            shape[2] = v_size
            factor = np.transpose(u_kernel, (1, 0, 2)).reshape(shape)
        mass = mass[..., None] * factor
        names.append("u")

    return JointTable(mass=mass, axis_names=tuple(names))


def reduced_cost(spec: ProblemSpec) -> np.ndarray:
    """Channel-averaged cost table, shape (s, a).

    Averaging the per-symbol cost over the channel output leaves expected
    cost unchanged for every strategy, so searches may use this 2-D table.
    """
    return np.einsum("asy,asy->sa", spec.channel, spec.cost)


def expected_cost(joint: JointTable, spec: ProblemSpec) -> float:
    """E[cost(A, S, Y)] under an assembled joint."""
    axes = [joint.axis("a"), joint.axis("s"), joint.axis("y")]
    p_asy = joint.marginal(axes)
    return float(np.einsum("asy,asy->", p_asy, spec.cost))


def expected_distortion(joint: JointTable, spec: ProblemSpec) -> float:
    """E[d(Y, Yhat)] from a "yhat" axis, if present.

    Without a "yhat" axis the joint cannot carry a reconstruction; use
    ``expected_distortion_mapped`` for the deterministic yhat(z, u) form.
    """
    if spec.distortion is None:
        raise UsageError("spec has no distortion table")
    p_y_yhat = joint.marginal([joint.axis("y"), joint.axis("yhat")])
    return float(np.einsum("yh,yh->", p_y_yhat, spec.distortion))


def expected_distortion_mapped(
    joint: JointTable, spec: ProblemSpec, yhat_map: np.ndarray
) -> float:
    """E[d(Y, yhat(Z, U))] for a deterministic reconstruction table (z, u)."""
    if spec.distortion is None:
        raise UsageError("spec has no distortion table")
    p_zuy = joint.marginal([joint.axis("z"), joint.axis("u"), joint.axis("y")])
    z_size, u_size, _ = p_zuy.shape
    yhat_map = np.asarray(yhat_map, dtype=np.int64)
    if yhat_map.shape != (z_size, u_size):
        raise UsageError(f"yhat_map shape {yhat_map.shape} != {(z_size, u_size)}")
    d_rows = spec.distortion[:, yhat_map]  # (y, z, u)
    return float(np.einsum("zuy,yzu->", p_zuy, d_rows))


def noncausal_rate(joint: JointTable) -> float:
    """I(V; S | Z) + H(Y | V, Z): description rate, state seen in advance."""
    zax, sax, vax, yax = (joint.axis(n) for n in ("z", "s", "v", "y"))
    return conditional_mutual_information(joint, [vax], [sax], [zax]) + conditional_entropy(
        joint, [yax], [vax, zax]
    )


def causal_rate(joint: JointTable) -> float:
    """H(Y | V, Z): description rate when V must be fixed before the state."""
    zax, vax, yax = (joint.axis(n) for n in ("z", "v", "y"))
    return conditional_entropy(joint, [yax], [vax, zax])


def causal_lossy_rate(joint: JointTable) -> float:
    """I(Y; Yhat | V, Z): exact lossy rate for the causal pattern."""
    zax, vax, yax = (joint.axis(n) for n in ("z", "v", "y"))
    hax = joint.axis("yhat")
    return conditional_mutual_information(joint, [yax], [hax], [vax, zax])


def lossy_bound_si_both(joint: JointTable) -> float:
    """I(V; S | Z) + I(Yhat; Y | V, Z): lossy rate when the encoder also sees Z.

    An achievable upper bound for the decoder-only-side-information problem.
    With an identity reconstruction kernel it reduces exactly to
    ``noncausal_rate``.
    """
    zax, sax, vax, yax = (joint.axis(n) for n in ("z", "s", "v", "y"))
    hax = joint.axis("yhat")
    return conditional_mutual_information(
        joint, [vax], [sax], [zax]
    ) + conditional_mutual_information(joint, [hax], [yax], [vax, zax])


def lossy_bound_si_decoder(joint: JointTable) -> tuple[float, bool]:
    """I(V; S | Z) + I(U; Y | V, Z) with U generated from Y alone.

    Returns (value, markov_ok) where markov_ok confirms I(U; V,Z | Y) is 0
    within STRUCT_TOL, i.e. the description really only looked at Y. A joint
    lacking a "u" axis is a usage error.
    """
    zax, sax, vax, yax = (joint.axis(n) for n in ("z", "s", "v", "y"))
    uax = joint.axis("u")
    value = conditional_mutual_information(
        joint, [vax], [sax], [zax]
    ) + conditional_mutual_information(joint, [uax], [yax], [vax, zax])
    leak = conditional_mutual_information(joint, [uax], [vax, zax], [yax])
    return value, bool(leak <= STRUCT_TOL)


def lossy_bound_si_decoder_vaware(joint: JointTable) -> tuple[float, bool]:
    """Same bound with U generated from (Y, V).

    Returns (value, feasible); the scheme needs the decoder to recover V
    first, which requires I(V; S) <= I(V; Y) (within STRUCT_TOL).
    """
    zax, sax, vax, yax = (joint.axis(n) for n in ("z", "s", "v", "y"))
    uax = joint.axis("u")
    value = conditional_mutual_information(
        joint, [vax], [sax], [zax]
    ) + conditional_mutual_information(joint, [uax], [yax], [vax, zax])
    i_vs = conditional_mutual_information(joint, [vax], [sax], [])
    i_vy = conditional_mutual_information(joint, [vax], [yax], [])
    return value, bool(i_vs <= i_vy + STRUCT_TOL)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# A probability row in a JSON document may be off by this much before the
# loader rejects it (looser than MASS_TOL: documents round-trip as decimal).
JSON_MASS_TOL = 1e-9


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SpecFormatError(path, message)


def _num_list(obj, path: str, length: int | None = None) -> list[float]:
    _require(isinstance(obj, list), path, "expected a list of numbers")
    if length is not None:
        _require(len(obj) == length, path, f"expected length {length}, got {len(obj)}")
    out = []
    for i, x in enumerate(obj):
        _require(isinstance(x, (int, float)) and not isinstance(x, bool),
                 f"{path}[{i}]", "expected a number")
        # also rejects NaN, which json accepts, and ints too large for a float
        _require(abs(x) <= sys.float_info.max, f"{path}[{i}]", "expected a finite number")
        out.append(float(x))
    return out


def spec_from_json(text: str) -> ProblemSpec:
    """Parse a problem-description JSON document.

    Schema (sizes from "alphabets"): state_joint is a flat row-major list
    over (s, z); channel and cost are nested [a][s][y]; distortion, if
    present, is nested [y][yhat]. Probability rows off by more than 1e-9
    are rejected with the offending path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFormatError("$", f"not valid JSON: {e}") from None
    _require(isinstance(doc, dict), "$", "top level must be an object")
    alph = doc.get("alphabets")
    _require(isinstance(alph, dict), "alphabets", "missing or not an object")
    sizes = {}
    for key in ("s", "z", "a", "y"):
        val = alph.get(key)
        _require(isinstance(val, int) and not isinstance(val, bool) and val >= 1,
                 f"alphabets.{key}", "must be an integer >= 1")
        sizes[key] = val
    if "yhat" in alph:
        val = alph["yhat"]
        _require(isinstance(val, int) and not isinstance(val, bool) and val >= 1,
                 "alphabets.yhat", "must be an integer >= 1")
        sizes["yhat"] = val

    flat = _num_list(doc.get("state_joint"), "state_joint",
                     sizes["s"] * sizes["z"])
    state_joint = np.array(flat).reshape(sizes["s"], sizes["z"])
    _require(bool(np.all(state_joint >= 0.0)), "state_joint", "negative entry")
    _require(abs(float(state_joint.sum()) - 1.0) <= JSON_MASS_TOL,
             "state_joint", f"mass sums to {float(state_joint.sum()):.12g}")

    def nested_asy(name: str) -> np.ndarray:
        rows = doc.get(name)
        _require(isinstance(rows, list) and len(rows) == sizes["a"],
                 name, f"expected {sizes['a']} action slices")
        out = np.empty((sizes["a"], sizes["s"], sizes["y"]))
        for a, slice_a in enumerate(rows):
            _require(isinstance(slice_a, list) and len(slice_a) == sizes["s"],
                     f"{name}[{a}]", f"expected {sizes['s']} state rows")
            for s, row in enumerate(slice_a):
                out[a, s] = _num_list(row, f"{name}[{a}][{s}]", sizes["y"])
        return out

    channel = nested_asy("channel")
    for a in range(sizes["a"]):
        for s in range(sizes["s"]):
            row = channel[a, s]
            _require(bool(np.all(row >= 0.0)), f"channel[{a}][{s}]", "negative entry")
            _require(abs(float(row.sum()) - 1.0) <= JSON_MASS_TOL,
                     f"channel[{a}][{s}]", f"row sums to {float(row.sum()):.12g}")
    # Renormalize the 1e-9-level decimal dust so internal invariants hold.
    channel = channel / channel.sum(axis=-1, keepdims=True)
    state_joint = state_joint / state_joint.sum()

    cost = nested_asy("cost")
    _require(bool(np.all(cost >= 0.0)), "cost", "negative entry")

    distortion = None
    if "distortion" in doc:
        rows = doc["distortion"]
        yhat = sizes.get("yhat")
        _require(yhat is not None, "alphabets.yhat",
                 "required when distortion is given")
        _require(isinstance(rows, list) and len(rows) == sizes["y"],
                 "distortion", f"expected {sizes['y']} rows")
        distortion = np.empty((sizes["y"], yhat))
        for y, row in enumerate(rows):
            distortion[y] = _num_list(row, f"distortion[{y}]", yhat)
        _require(bool(np.all(distortion >= 0.0)), "distortion", "negative entry")

    return ProblemSpec(
        state_joint=state_joint,
        channel=channel,
        cost=cost,
        distortion=distortion,
    )


def spec_to_json(spec: ProblemSpec) -> str:
    """Serialize a ProblemSpec to the JSON schema read by spec_from_json."""
    doc = {
        "alphabets": {
            "s": spec.s_size,
            "z": spec.z_size,
            "a": spec.a_size,
            "y": spec.y_size,
        },
        "state_joint": [float(x) for x in spec.state_joint.reshape(-1)],
        "channel": spec.channel.tolist(),
        "cost": spec.cost.tolist(),
    }
    if spec.distortion is not None:
        doc["alphabets"]["yhat"] = spec.yhat_size
        doc["distortion"] = spec.distortion.tolist()
    return json.dumps(doc, indent=2, sort_keys=True)


def aux_from_json(text: str, spec: ProblemSpec) -> AuxiliaryChoice:
    """Parse an encoding-strategy JSON document against a spec.

    Schema: {"policy": [s][v] action table, and exactly one of
    "v_given_s": [s][v] or "v_marginal": [v]}.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFormatError("$", f"not valid JSON: {e}") from None
    _require(isinstance(doc, dict), "$", "top level must be an object")
    pol = doc.get("policy")
    _require(isinstance(pol, list) and len(pol) == spec.s_size,
             "policy", f"expected {spec.s_size} state rows")
    v_size = None
    table = []
    for s, row in enumerate(pol):
        _require(isinstance(row, list) and row, f"policy[{s}]", "expected a list")
        if v_size is None:
            v_size = len(row)
        _require(len(row) == v_size, f"policy[{s}]", "ragged policy rows")
        for v, a in enumerate(row):
            _require(isinstance(a, int) and not isinstance(a, bool)
                     and 0 <= a < spec.a_size,
                     f"policy[{s}][{v}]", f"action must be in [0, {spec.a_size})")
        table.append(row)
    has_cond = "v_given_s" in doc
    has_marg = "v_marginal" in doc
    _require(has_cond != has_marg, "$",
             "need exactly one of v_given_s and v_marginal")
    if has_cond:
        rows = doc["v_given_s"]
        _require(isinstance(rows, list) and len(rows) == spec.s_size,
                 "v_given_s", f"expected {spec.s_size} rows")
        parsed = [
            _num_list(row, f"v_given_s[{s}]", v_size) for s, row in enumerate(rows)
        ]
        arr = np.array(parsed)
        for s in range(spec.s_size):
            _require(bool(np.all(arr[s] >= 0.0)), f"v_given_s[{s}]", "negative entry")
            _require(abs(float(arr[s].sum()) - 1.0) <= JSON_MASS_TOL,
                     f"v_given_s[{s}]", f"row sums to {float(arr[s].sum()):.12g}")
        arr = arr / arr.sum(axis=-1, keepdims=True)
        return AuxiliaryChoice(policy=ActionPolicy(table), v_given_s=arr)
    row = np.array(_num_list(doc["v_marginal"], "v_marginal", v_size))
    _require(bool(np.all(row >= 0.0)), "v_marginal", "negative entry")
    _require(abs(float(row.sum()) - 1.0) <= JSON_MASS_TOL,
             "v_marginal", f"sums to {float(row.sum()):.12g}")
    return AuxiliaryChoice(policy=ActionPolicy(table), v_marginal=row / row.sum())


def aux_to_json(aux: AuxiliaryChoice) -> str:
    doc: dict = {"policy": aux.policy.table.tolist()}
    if aux.causal:
        doc["v_marginal"] = [float(x) for x in aux.v_marginal]
    else:
        doc["v_given_s"] = aux.v_given_s.tolist()
    return json.dumps(doc, indent=2, sort_keys=True)
