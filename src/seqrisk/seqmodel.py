"""Token-sequence models, stopping horizons, and trajectory sampling.

A sequence model is anything that maps a token prefix to a probability
distribution over the next token.  A :class:`Vocabulary` designates one
token as the outcome of interest, an optional terminal set, and per-token
time increments; a :class:`HorizonPolicy` bounds generation.  Trajectories
record, at every generated position, the *unrestricted* probability that
the next token would have been the outcome token (the hazard), which is
what the downstream estimators consume.

Generation stops after the first token that is the outcome (standard mode
only), is terminal, pushes cumulative time past the limit, or fills the
step cap.  In ``outcome_excluded`` mode the outcome token is removed from
the candidate pool and the remaining mass renormalized; the hazards still
come from the unrestricted distribution.  A step with no remaining mass to
speak of (:func:`_degenerate`) draws no token and ends the trajectory.

One sampler implements these rules, on the model's own ``vocabulary`` and
``horizon``: :func:`sample_batch` advances a whole batch of trajectories of
any :class:`SequenceModel` at once and returns only their sub-estimator
values.  It reads one uniform per drawn token and nothing more.  Its
values depend only on the model's distributions, not on its class: a
:class:`MarkovModel` has its per-state draw tables built once, any other
model the same tables built at each step from the running trajectories'
prefixes.  It is the one-model case of a core that also advances the
trajectories of a stack of chains together, each chain drawing from its
own stream exactly what it draws alone; the synthetic cohort samples all
of its patients this way, its streams given as Philox keys, from which
groups of its chains draw their uniforms ahead.  A token is drawn by one
inverse-CDF rule: the next token is the number of cumulative
probabilities at or below the uniform ``u``, where every entry from the
last token that can be drawn onward is 1, so no ``u`` draws a token of
probability 0.  A chain that steps alone looks that count up in an exact
bucket table (Chen & Asau's guide table), falling back to the comparison
only where a cumulative probability lies inside ``u``'s bucket; it reads
its uniforms as the 64-bit words they are made of, so a stream over
MT19937, whose doubles take two 32-bit words, is rejected.

A :class:`MarkovModel` is validated once, at construction.  The
distributions of any other model are checked as the sampler and the
enumeration oracles read them (:func:`_read_rows`): a vector that is not a
probability distribution over the vocabulary raises
:class:`ModelValidationError`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import ModelValidationError
from .rng import KeyedStream

STANDARD = "standard"
OUTCOME_EXCLUDED = "outcome_excluded"
MODES = (STANDARD, OUTCOME_EXCLUDED)

#: outcome mass at or above this is treated as degenerate (restricted
#: distribution undefined); see :func:`_degenerate`
DEGENERATE_HAZARD = 1.0 - 1e-15

#: tolerance for "sums to one" checks on probability vectors
PROBABILITY_TOL = 1e-12

#: buckets per state of the inverse-CDF table in :func:`_sample_stack`; a
#: power of two, so ``u * _BINS`` and ``cum * _BINS`` are exact
_BINS = 1024

#: running rows a step of :func:`_sample_stack` advances at once; its block
#: buffers hold this many entries whatever the batch size
_BLOCK = 65536

#: uniforms a keyed stack in :func:`_sample_stack` draws ahead at most,
#: whatever its size: the buffer of one group of chains
_GROUP = 1 << 17


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown trajectory mode {mode!r}; expected one of {MODES}")


def _check_number(name: str, value, kind=numbers.Real) -> None:
    """Raise ValueError unless ``value`` is a ``kind`` number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def _check_keys(d: dict, known, what: str, required=()) -> None:
    """Raise ValueError unless ``d`` is a dict, naming the keys of ``d``
    outside ``known``, or the ``required`` keys it lacks."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{what} lacks the required keys {missing}")


def _from_dict(cls, d: dict, what: str):
    """``cls(**d)`` for a dataclass; ValueError naming the keys of ``d`` that
    are not fields of ``cls``, or the required fields it lacks."""
    _check_keys(d, [f.name for f in fields(cls)], what,
                [f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING])
    return cls(**d)


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Token universe: size, outcome token, terminal tokens, per-token times.

    ``time_map[v]`` is the calendar time contributed by token ``v``; tokens
    that do not represent the passage of time must map to exactly 0.  The
    outcome token may be a member of the terminal set.
    """

    size: int
    outcome: int
    terminal: frozenset[int] = frozenset()
    time_map: np.ndarray | None = None

    def __post_init__(self):
        for name in ("size", "outcome"):
            _check_number(name, getattr(self, name), numbers.Integral)
        for t in self.terminal:
            _check_number("terminal token", t, numbers.Integral)
        if self.size < 1:
            raise ValueError("vocabulary size must be positive")
        if not 0 <= self.outcome < self.size:
            raise ValueError(f"outcome token {self.outcome} outside [0, {self.size})")
        if any(not 0 <= t < self.size for t in self.terminal):
            raise ValueError("terminal set contains out-of-range tokens")
        object.__setattr__(self, "terminal", frozenset(int(t) for t in self.terminal))
        tm = self.time_map
        if tm is None:
            tm = np.zeros(self.size)
        tm = np.asarray(tm, dtype=float)
        if tm.shape != (self.size,):
            raise ValueError("time_map must have one entry per token")
        if not np.all(np.isfinite(tm)) or np.any(tm < 0):
            raise ValueError("time_map entries must be finite and >= 0")
        tm = tm.copy()
        tm.flags.writeable = False
        object.__setattr__(self, "time_map", tm)

    @classmethod
    def unit_steps(cls, size: int, outcome: int) -> "Vocabulary":
        """Vocabulary where every token advances time by exactly one step."""
        return cls(size=size, outcome=outcome, time_map=np.ones(size))


@dataclass(frozen=True)
class HorizonPolicy:
    """Generation bounds: a hard step cap plus an optional time limit.

    ``max_steps`` is mandatory so every trajectory terminates even when the
    model emits only zero-time tokens.  When ``time_limit`` is set,
    generation stops after the first token that pushes cumulative time
    strictly past it.
    """

    max_steps: int
    time_limit: float | None = None

    def __post_init__(self):
        _check_number("max_steps", self.max_steps, numbers.Integral)
        if self.max_steps < 1:
            raise ValueError("max_steps must be a positive integer")
        if self.time_limit is not None:
            _check_number("time_limit", self.time_limit)
            if not (np.isfinite(self.time_limit) and self.time_limit >= 0):
                raise ValueError("time_limit must be finite and >= 0 when set")

    def to_dict(self) -> dict:
        d = {"max_steps": self.max_steps}
        if self.time_limit is not None:
            d["time_limit"] = self.time_limit
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HorizonPolicy":
        return _from_dict(cls, d, "horizon")


@runtime_checkable
class SequenceModel(Protocol):
    """Anything that maps a token prefix to a next-token distribution.

    ``vocabulary`` names the outcome, terminal tokens and token times, and
    ``horizon`` bounds generation; the estimators and oracles ask their
    question about these two.
    """

    @property
    def vocabulary(self) -> Vocabulary: ...

    @property
    def horizon(self) -> HorizonPolicy: ...

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Finite-state sequence model driven by a row-stochastic matrix.

    The next-token distribution depends only on the most recent token (or
    on ``initial_state`` for an empty prefix).  States double as tokens;
    every token advances time by one unit, so a horizon in step-count mode
    carries ``time_limit == max_steps == number of steps``.  Construction
    rejects a matrix that is not row-stochastic with
    :class:`ModelValidationError`, one diagnostic per bad row or entry.
    """

    n_states: int
    transition: np.ndarray
    initial_state: int
    outcome_state: int
    horizon: HorizonPolicy
    _vocab: Vocabulary = field(init=False, repr=False)

    def __post_init__(self):
        _check_number("n_states", self.n_states, numbers.Integral)
        t = np.asarray(self.transition, dtype=float)
        if t.shape != (self.n_states, self.n_states):
            raise ValueError(
                f"transition must be {self.n_states}x{self.n_states}, got {t.shape}"
            )
        for name in ("initial_state", "outcome_state"):
            v = getattr(self, name)
            _check_number(name, v, numbers.Integral)
            if not 0 <= v < self.n_states:
                raise ValueError(f"{name} {v} outside [0, {self.n_states})")
        violations = validate(t)
        if violations:
            raise ModelValidationError(violations)
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "transition", t)
        object.__setattr__(
            self, "_vocab", Vocabulary.unit_steps(self.n_states, self.outcome_state)
        )

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @classmethod
    def step_mode(
        cls, transition, initial_state: int, outcome_state: int, steps: int
    ) -> "MarkovModel":
        """Chain observed for a fixed number of steps (unit time per token)."""
        transition = np.asarray(transition, dtype=float)
        return cls(
            n_states=transition.shape[0],
            transition=transition,
            initial_state=initial_state,
            outcome_state=outcome_state,
            horizon=HorizonPolicy(max_steps=int(steps), time_limit=float(steps)),
        )

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        state = self.initial_state if len(prefix) == 0 else prefix[-1]
        if not 0 <= state < self.n_states:
            raise ValueError(f"invalid token id {state} in prefix")
        return self.transition[state]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_states": self.n_states,
                "transition": [float(x) for x in self.transition.ravel()],
                "initial_state": self.initial_state,
                "outcome_state": self.outcome_state,
                "horizon": self.horizon.to_dict(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MarkovModel":
        d = json.loads(text)
        keys = ("n_states", "transition", "initial_state", "outcome_state", "horizon")
        _check_keys(d, keys, "model", keys)
        n = d["n_states"]
        _check_number("n_states", n, numbers.Integral)
        entries = np.asarray(d["transition"], dtype=object).ravel()
        for x in entries:
            _check_number("transition entry", x)
        if entries.size != n * n:
            raise ValueError(f"transition has {entries.size} entries, expected {n * n}")
        return cls(
            n_states=n,
            transition=entries.astype(float).reshape(n, n),
            initial_state=d["initial_state"],
            outcome_state=d["outcome_state"],
            horizon=HorizonPolicy.from_dict(d["horizon"]),
        )


def validate(transition) -> list[str]:
    """Stochasticity diagnostics of one distribution, a transition matrix
    (``row i ...``) or a stack of them (``chain c row i ...``); empty means
    ok."""
    t = np.asarray(transition, dtype=float)
    # one whole-array check for the common valid case (an empty array has no
    # minimum and goes to the diagnostics); NaN fails every bound
    if (
        t.size
        and t.min() >= 0
        and t.max() <= 1
        and np.abs(t.sum(axis=-1) - 1.0).max() <= PROBABILITY_TOL
    ):
        return []
    if t.ndim == 1:
        return _violations(t)
    label = "row" if t.ndim == 2 else "chain"
    return [f"{label} {i} {v}" for i, part in enumerate(t) for v in validate(part)]


def _violations(dist: np.ndarray) -> list[str]:
    bad = np.nonzero(~((dist >= 0) & (dist <= 1)))[0]
    out = [f"entry {j} = {float(dist[j])!r} outside [0, 1]" for j in bad]
    if not out and abs(float(dist.sum()) - 1.0) > PROBABILITY_TOL:
        out.append(f"sums to {float(dist.sum())!r}, expected 1")
    return out


def _read_rows(model, prefixes: Sequence[list], size: int) -> np.ndarray:
    """``model.next_distribution(prefix)`` for every prefix, as a ``(k, size)``
    float array checked by :func:`validate`.

    Calls the model once per prefix, in order, and checks the whole matrix
    at once.  Raises :class:`ModelValidationError`, naming the first prefix
    whose vector is not a probability vector with ``size`` entries.  A
    :class:`MarkovModel`'s rows were checked at construction and are not
    checked again.
    """
    rows = np.empty((len(prefixes), size))
    for i, prefix in enumerate(prefixes):
        dist = np.asarray(model.next_distribution(prefix), dtype=float)
        if dist.shape != (size,):
            _check_rows(model, prefixes[:i], rows[:i])
            raise ModelValidationError(
                [f"next_distribution({list(prefix)}): shape {dist.shape}, expected ({size},)"]
            )
        rows[i] = dist
    _check_rows(model, prefixes, rows)
    return rows


def _check_rows(model, prefixes, rows) -> None:
    """Raise ModelValidationError for the first prefix whose row fails :func:`validate`."""
    if isinstance(model, MarkovModel) or not validate(rows):
        return
    for prefix, row in zip(prefixes, rows):
        violations = validate(row)
        if violations:
            raise ModelValidationError(
                [f"next_distribution({list(prefix)}): {v}" for v in violations]
            )


def _degenerate(hazard, rest_mass):
    """Whether an outcome-excluded step has nothing to draw from: its
    ``hazard`` is at least ``DEGENERATE_HAZARD``, or ``rest_mass``, the total
    probability of the other tokens (or any number that is 0 exactly when
    that total is), is 0.  Takes floats, or arrays with one entry per row."""
    return (hazard >= DEGENERATE_HAZARD) | (rest_mass <= 0.0)


def _stop_reason(vocab, horizon, mode, token, elapsed, n_tokens):
    """Why generation stops after appending ``token``, or None to continue."""
    if mode == STANDARD and token == vocab.outcome:
        return "outcome"
    if token in vocab.terminal:
        return "terminal"
    if horizon.time_limit is not None and elapsed > horizon.time_limit:
        return "time_limit"
    if n_tokens >= horizon.max_steps:
        return "max_steps"
    return None


def sample_batch(model: SequenceModel, mode: str, n: int, rng: np.random.Generator) -> tuple:
    """Sub-estimator values of ``n`` trajectories of any model, from one stream.

    The stop rules are the module's, on the model's own ``vocabulary`` and
    ``horizon``.  All trajectories advance together; each step draws
    ``rng.random(k)`` for the ``k`` still running, in index order, and
    nothing else, so a trajectory reads one uniform per token it draws, and
    ``rng`` is left right after the last uniform read.
    Standard mode returns the arrays ``(mc, scope)``: 1 for a trajectory
    that ends on the outcome, and the sum of its hazards in step order.
    Outcome-excluded mode returns ``(reach,)``: one minus the survival
    product ``prod(1 - h)``, exactly 1 for a trajectory that ends on a
    degenerate step.

    A :class:`MarkovModel` batch, of any size, reads the same uniforms as
    the 64-bit words ``rng.bit_generator.random_raw(k)`` they are made of:
    ``random()`` gives ``(word >> 11) * 2**-53`` on Philox, which every
    seqrisk stream uses, and on PCG64, PCG64DXSM and SFC64.  A Generator
    over MT19937, which makes a double from two 32-bit words, raises
    ValueError, as does an ``n`` that is not an integer of at least 0.

    The values depend only on the model's distributions.  A
    :class:`MarkovModel`'s draw tables are built once per state; any other
    model's are built at each step from one ``next_distribution`` call per
    running trajectory, and that path keeps every trajectory's tokens, ``n``
    lists of at most ``max_steps`` ints.  This is the one-model case of
    :func:`_sample_stack`, which reads ``rng`` step by step.
    """
    _check_number("n", n, numbers.Integral)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(getattr(rng, "bit_generator", None), np.random.MT19937):
        raise ValueError(
            "sample_batch reads a uniform as (word >> 11) * 2**-53 of one 64-bit "
            "word; MT19937 makes its doubles from two 32-bit words"
        )
    if isinstance(model, MarkovModel):
        source = (model.transition[None], model.initial_state)
    else:
        source = model
    values = _sample_stack(source, model.vocabulary, model.horizon, mode, n, rng)
    return tuple(v[0] for v in values)


def _draw_tables(dist: np.ndarray, outcome: int, excluded: bool) -> tuple:
    """``(hazard, cum, degenerate, keep)`` of every row of an ``(R, V)`` array
    of next-token distributions, as the batch draw reads them.

    ``cum`` holds the cumulative rows a uniform is compared with: of the
    distribution in standard mode, of the rest renormalized without the
    outcome in outcome-excluded mode.  Every entry from the last token with
    positive draw probability onward is 1, so no uniform draws a token of
    probability 0, except in the rows ``degenerate`` flags
    (:func:`_degenerate`; none in standard mode), which draw nothing.
    ``keep`` is ``1 - hazard``, a row's survival factor.
    """
    hazard = dist[:, outcome]
    if excluded:
        # a degenerate row draws nothing, whatever its scale
        scale = np.where(hazard >= DEGENERATE_HAZARD, 1.0, 1.0 - hazard)
        draw = dist / scale[:, None]
        draw[:, outcome] = 0.0
    else:
        draw = dist
    cum = np.cumsum(draw, axis=1)
    degenerate = _degenerate(hazard, cum[:, -1]) if excluded else np.zeros(len(dist), bool)
    size = dist.shape[1]
    last = size - 1 - np.argmax(draw[:, ::-1] > 0.0, axis=1)
    cum[(np.arange(size) >= last[:, None]) & ~degenerate[:, None]] = 1.0
    return hazard, cum, degenerate, 1.0 - hazard


def _sample_stack(source, vocab, horizon, mode, n, streams) -> tuple:
    """Sub-estimator values of ``n`` trajectories of every chain in a stack,
    or of one model.

    ``source`` is a pair ``(transition, initial_state)``, a ``(P, S, S)``
    stack of row-stochastic matrices sharing the initial state, whose
    :func:`_draw_tables` are built once per (chain, state); or any other
    model (``P = 1``), whose tables are built from the running trajectories'
    prefixes (:func:`_read_rows`).  Both share ``vocab`` and ``horizon``.
    Rows ``c * n`` up to ``(c + 1) * n`` are chain ``c``'s trajectories, and
    every step draws, for the ``k`` of them still running, the next ``k``
    uniforms of chain ``c``'s stream, so every chain gets exactly the values
    :func:`sample_batch` gives for it alone on its stream.  ``streams`` is
    one generator, read step by step and left where those draws leave it,
    for a lone chain or model; or a ``(P, 2)`` array of Philox keys
    (:func:`seqrisk.rng.stream_keys`), chain ``c``'s stream being
    ``Generator(Philox(key=streams[c]))`` from its start, read through one
    :class:`seqrisk.rng.KeyedStream`.  Returns ``(P, n)`` arrays in the
    order of :func:`sample_batch`.

    A keyed stack of several chains steps in groups of whole chains, each
    group through the whole step loop before the next.  A group first draws
    each chain's uniforms for every step, ``n`` per step, with one
    ``random(out=)`` call, and a step then gathers its rows' uniforms from
    them with one ``take``; chained draws of a stream give the doubles of
    one draw, so every row gets the uniform it reads step by step.  A group
    holds as many chains as fit in a buffer of ``_GROUP`` uniforms.  Where
    one chain's uniforms do not fit, a group of about ``sqrt(_GROUP / n)``
    chains draws ahead a window of fewer steps at a time, each chain
    resuming its stream at the Philox block (4 doubles) of its next
    uniform; only where not even that fits (``n`` above ``_GROUP / 4``) does
    a group hold one chain, which reads its stream step by step, as a lone
    chain does.

    The running rows' state is allocated once per group, freed before the
    next group's, and kept compacted at its front: their last tokens
    (int16, or int32 from 2**15 tokens on), hazard sums or survival
    products (float64), chain offsets (groups of several chains only),
    elapsed times (float64, non-unit times only) and row numbers in
    ascending order (only where a row can end before the last step); chain
    offsets and row numbers are int32 below 2**31 rows, else intp
    (:func:`_state_types`).  So a running row of one chain under unit
    times takes 14 bytes in standard mode (token, hazard sum, row number)
    plus 9 of results (value and hit), and 10 bytes in outcome-excluded
    mode where no row ends early: a group then multiplies its survival
    products in place in its rows of the result.  A step walks the running
    rows in order in blocks of ``_BLOCK``: a block takes its rows'
    uniforms, finds their next tokens into buffers of one block allocated
    once per call, writes them into the running state, writes the values
    of the rows that stop to the result, and moves the others forward in
    place.  Beyond the result arrays, a call allocates nothing that grows
    with the rows past one group.

    A row moves to token ``(cum[row] <= u).sum()``.  A group of one chain
    reads that count from its chain's :func:`_bucket_table`, built in the
    tokens' type, at ``floor(u * _BINS)``, the top ``log2(_BINS)`` bits of
    the word that ``u = (word >> 11) * 2**-53`` is made of (it draws the
    words ``bit_generator.random_raw(k)``); only rows whose bucket holds a
    cumulative probability (at most one bucket per token) build their ``u``
    and compare against the row.  Both ways give the same token for every
    ``u``.  A group of ``g > 1`` chains and any other model always compare,
    one column of the cumulative rows at a time, into the block buffers; the
    group's tables would take ``g * S * _BINS`` entries.
    With no stopping token and no time limit (the outcome-excluded mode of
    a chain), a step skips the stop test: only the step count, or a
    degenerate step, ends a row.
    """
    _check_mode(mode)
    size, o = vocab.size, vocab.outcome
    excluded = mode == OUTCOME_EXCLUDED
    n_chains = source[0].shape[0] if isinstance(source, tuple) else 1
    # chain offsets stay below P * S, far below 2**31 for any stack that
    # fits in memory (it holds P * S * S floats)
    token_type, row_type = _state_types(size, n_chains * n)
    if isinstance(source, tuple):
        transition, initial_state = source
        model = None
        if transition.shape[-1] != size:
            raise ValueError("vocabulary size does not match the model")
        # per-(chain, state) tables are flat: chain c's state s is entry c * S + s
        tables = _draw_tables(transition.reshape(-1, size), o, excluded)
        degenerate = tables[2]
        # a running row stands on the initial state or on a drawn token, and
        # an outcome-excluded draw never gives the outcome
        check_degenerate = excluded and (
            initial_state == o or bool(np.delete(degenerate.reshape(-1, size), o, axis=1).any())
        )
    else:
        # the initial state only fills ``st``, which holds each row's last token
        model, initial_state = source, 0
        prefixes = [[] for _ in range(n)]
        check_degenerate = excluded
    keyed = isinstance(streams, np.ndarray)
    if keyed and streams.shape != (n_chains, 2):
        raise ValueError(f"{n_chains} chains read {n_chains} Philox keys, "
                         f"got an array of shape {streams.shape}")
    if not keyed and n_chains > 1:
        raise ValueError("a stack of chains reads a (P, 2) array of Philox keys")
    # tokens after which a trajectory stops, whatever the time or step count
    stop_after = np.zeros(size, dtype=bool)
    stop_after[list(vocab.terminal)] = True
    if not excluded:
        stop_after[o] = True
    times = vocab.time_map
    if np.all(times == 1.0):
        # elapsed time is the token count: the time limit is a step cap
        steps, limit = effective_steps(vocab, horizon), None
    else:
        steps, limit = horizon.max_steps, horizon.time_limit
    # without a stopping token or a time limit, only the step count (or a
    # degenerate step) ends a row: no step needs the stop test
    can_stop = limit is not None or bool(stop_after.any())
    # when no row can end early, every row runs every step in place: row
    # numbers are positions and the products accumulate in the result
    ends_early = can_stop or check_degenerate
    # the bucket of a 64-bit word is its top log2(_BINS) bits
    shift = 64 - (_BINS.bit_length() - 1)
    # chains per group, the steps a group's chains draw ahead at a time, and
    # each chain's part of the buffer: a window of uniforms, plus up to 3
    # from the Philox block the window starts in
    per, window = 1, steps
    if keyed and n_chains > 1:
        if n * steps + 3 <= _GROUP:
            per = min(n_chains, _GROUP // (n * steps + 3))
        else:
            # windows of fewer steps, for groups of about sqrt(_GROUP / n) chains
            per = min(n_chains, max(1, math.isqrt(_GROUP // n)))
            window = max(1, (_GROUP // per - 3) // n)
    slot = n * window + 3
    rows = n_chains * n
    # a group of one chain reads its bucket table
    lookup = model is None and per == 1
    # each row's final hazard sum or survival product, and whether it drew
    # the outcome, written when it stops; a row that drew the outcome
    # stopped there, so none of the rows running at the end did
    final = np.empty(rows)
    hit = None if excluded else np.zeros(rows, dtype=bool)
    # one block's table rows (a group of several chains) or bucket-table
    # keys, flags, gathered floats and uniforms (comparison only); a lookup
    # gathers its floats into the key buffer while it holds no keys
    block = min(per * n, _BLOCK)
    idx_buf, flag_buf = np.empty(block, np.intp), np.empty(block, bool)
    got_buf, u_buf = (idx_buf.view(float), None) if lookup else (
        np.empty(block), np.empty(block))
    if per > 1:
        # the uniforms a group's chains drew ahead, one chain's slot after another
        uniforms, ramp = np.empty(per * slot), np.arange(block)
        slots = np.arange(per) * slot
    stream = KeyedStream() if keyed else None
    for c0 in range(0, n_chains, per):
        c1 = min(c0 + per, n_chains)
        k = (c1 - c0) * n
        # the group's running rows' state, compacted to the front of each
        # array: last token, hazard sum (survival product when excluded),
        # chain offset in the group's flat tables (one chain's states index
        # them directly), elapsed time and row number, ascending
        st = np.full(k, initial_state, dtype=token_type)
        acc = np.empty(k) if ends_early else final[c0 * n:c1 * n]
        acc.fill(1.0 if excluded else 0.0)
        off = np.repeat(np.arange(c1 - c0, dtype=row_type) * size, n) if per > 1 else None
        el = np.zeros(k) if limit is not None else None
        ids = np.arange(c0 * n, c1 * n, dtype=row_type) if ends_early else None
        running = [a for a in (st, acc, off, el, ids) if a is not None]
        if model is None:
            hazard, cum, degenerate, keep = (a[c0 * size:c1 * size] for a in tables)
        if lookup:
            table = _bucket_table(cum, token_type)
        if per == 1:
            rng = stream.at(streams[c0]) if keyed else streams
        else:
            # each chain's first offset, and one past the last chain's, in
            # the dtype of ``off``, so that searchsorted converts neither
            edges = np.arange(c1 - c0 + 1, dtype=row_type) * size
            # uniforms each chain of the group has read
            read = np.zeros(c1 - c0, dtype=np.intp)
        for t in range(steps):
            if per > 1 and t % window == 0:
                # each chain draws ahead from the Philox block (4 uniforms)
                # its next uniform is in; ``base + read`` indexes that uniform
                for i, c in enumerate(range(c0, c1)):
                    stream.at(streams[c], read[i] // 4).random(
                        out=uniforms[i * slot:(i + 1) * slot])
                base = slots[:c1 - c0] - read // 4 * 4
            # rows of this step kept so far, moved forward to positions 0 .. w
            w = 0
            for lo in range(0, k, _BLOCK):
                hi = min(lo + _BLOCK, k)
                m = hi - lo
                if model is not None:
                    dist = _read_rows(model, [prefixes[i] for i in ids[lo:hi].tolist()], size)
                    hazard, cum, degenerate, keep = _draw_tables(dist, o, excluded)
                    row = np.arange(m)
                elif off is not None:
                    row = np.add(off[lo:hi], st[lo:hi], out=idx_buf[:m])
                else:
                    row = st[lo:hi]
                if check_degenerate:
                    dead = _take(degenerate, row, flag_buf[:m])
                    if dead.any():
                        # such a step draws nothing and ends the row: survival 0, reach 1
                        final[ids[lo:hi][dead]] = 0.0
                        live = ~dead
                        row = row[live]
                        m = _compact(running, lo, hi, live, lo)
                        hi = lo + m
                        if m == 0:
                            continue
                got, flag, tokens = got_buf[:m], flag_buf[:m], st[lo:hi]
                if excluded:
                    acc[lo:hi] *= _take(keep, row, got)
                else:
                    acc[lo:hi] += _take(hazard, row, got)
                if not lookup:
                    u = u_buf[:m]
                    if per == 1:
                        rng.random(out=u)
                    else:
                        # each chain's rows take its next uniforms, in row order;
                        # ``off`` is compacted with the rows, so it is sorted
                        bounds = np.searchsorted(off[lo:hi], edges)
                        counts = np.diff(bounds)
                        pick = np.repeat(base + read - bounds[:-1], counts)
                        pick += ramp[:m]
                        _take(uniforms, pick, u)
                        read += counts
                    # (cum[row] <= u).sum() a column at a time; the last column,
                    # 1 in every row that draws, never counts
                    tokens.fill(0)
                    for column in cum.T[:-1]:
                        tokens += np.less_equal(_take(column, row, got), u, out=flag)
                else:
                    # random() turns a word into u = (word >> 11) * 2**-53, so u's
                    # bucket floor(u * _BINS) is the word's top bits, and a row's
                    # key is bucket * S + state, built in the intp buffer: scaled
                    # in place, the narrow tokens would overflow
                    word = rng.bit_generator.random_raw(m)
                    key = idx_buf[:m]
                    np.right_shift(word, shift, out=key.view(np.uint64))
                    key *= size
                    key += tokens
                    _take(table, key, tokens)
                    split = np.flatnonzero(np.less(tokens, 0, out=flag))
                    if split.size:
                        # about S / _BINS of the rows: gathering their whole rows is cheap
                        u = (word[split] >> 11) * 2.0**-53
                        tokens[split] = (cum[key[split] % size] <= u[:, None]).sum(axis=1)
                    del word
                if model is not None:
                    for i, token in zip(ids[lo:hi].tolist(), tokens.tolist()):
                        prefixes[i].append(token)
                at = ()
                if can_stop:
                    stop = _take(stop_after, tokens, flag)
                    if el is not None:
                        el[lo:hi] += _take(times, tokens, got)
                        stop |= el[lo:hi] > limit
                    # few rows stop in a step: index them by position, not by mask
                    at = np.flatnonzero(stop)
                if len(at):
                    # intp: numpy scatters through int32 indices 2-3 times slower
                    gone = ids[lo:hi][at].astype(np.intp)
                    final[gone] = acc[lo:hi][at]
                    if hit is not None:
                        hit[gone] = tokens[at] == o
                    w += _compact(running, lo, hi, np.logical_not(stop, out=stop), w)
                elif w < lo:
                    w += _compact(running, lo, hi, slice(None), w)
                else:
                    w = hi
            k = w
            if k == 0:
                break
        if ends_early:
            final[ids[:k]] = acc[:k]
        # free the running state before the next group's, and before the
        # standard mode's hits become floats
        del st, acc, off, el, ids, running
    shape = (n_chains, n)
    if excluded:
        return (np.subtract(1.0, final, out=final).reshape(shape),)
    return hit.astype(float).reshape(shape), final.reshape(shape)


def _take(a, index, out) -> np.ndarray:
    """``a[index]`` written into ``out``.  Mode "clip" writes there directly,
    where the default mode fills a copy of ``out`` first; every index here
    is in range."""
    return np.take(a, index, out=out, mode="clip")


def _compact(arrays, lo, hi, live, to) -> int:
    """Move the entries ``lo:hi`` of every array that ``live`` keeps (a
    boolean mask over them, or ``slice(None)`` for all of them) to ``to``
    onward, in order, and return their count; ``to <= lo``, so no entry is
    overwritten unread, and one array's copy is freed before the next."""
    count = hi - lo if isinstance(live, slice) else int(np.count_nonzero(live))
    for a in arrays:
        a[to:to + count] = a[lo:hi][live]
    return count


def _state_types(size: int, rows: int) -> tuple:
    """``(token type, row type)`` of :func:`_sample_stack`'s running state
    for a vocabulary of ``size`` tokens and indices below ``rows``: tokens
    (and the bucket table) in int16 below 2**15 tokens, else int32; row
    numbers and chain offsets in int32 below 2**31, else intp."""
    return (np.dtype(np.int16 if size < 1 << 15 else np.int32),
            np.dtype(np.int32 if rows < 1 << 31 else np.intp))


def _bucket_table(cum: np.ndarray, dtype) -> np.ndarray:
    """Inverse-CDF lookup table, in ``dtype``: the next token of ``cum[s]``
    by ``u``'s bucket.

    Entry ``b * R + s``, for the ``R`` rows of ``cum``, holds
    ``(cum[s] <= u).sum()``, the count every ``u`` in
    ``[b / _BINS, (b + 1) / _BINS)`` gives, or -1 when some entry of
    ``cum[s]`` lies strictly inside that interval and the count depends on
    ``u``.  It is exact because ``cum * _BINS`` is: an entry ``c`` is at
    most ``b / _BINS`` iff ``ceil(c * _BINS) <= b``, and below
    ``(b + 1) / _BINS`` iff ``floor(c * _BINS) <= b``, so two per-row
    histograms of those integers and their cumulative sums give both
    counts.  Rows need not be sorted.  Bucket-major entries let the sampler
    scale a bucket by ``R`` in place and add the row's state to it.
    """
    rows = cum.shape[0]
    scaled = cum * _BINS
    # one histogram slot per (bucket, row), plus a bucket for "above the last"
    offsets = np.arange(rows)[:, None]

    def at_or_below(edges):
        slot = np.clip(edges, 0, _BINS).astype(np.intp) * rows + offsets
        hist = np.bincount(slot.ravel(), minlength=(_BINS + 1) * rows)
        return hist.reshape(_BINS + 1, rows).cumsum(axis=0, dtype=dtype)[:_BINS]

    first = at_or_below(np.ceil(scaled))
    return np.where(first == at_or_below(np.floor(scaled)), first, -1).ravel()


def effective_steps(vocab: Vocabulary, horizon: HorizonPolicy) -> int:
    """Largest number of tokens a trajectory can contain under unit times.

    Only meaningful for vocabularies whose tokens all take time 1 (the
    Markov setting): the time limit then binds after ``floor(limit) + 1``
    tokens, the step cap after ``max_steps``.
    """
    cap = horizon.max_steps
    if horizon.time_limit is not None:
        cap = min(cap, int(np.floor(horizon.time_limit)) + 1)
    return cap
