"""Seeded synthesis of well-formed DSL programs (the scenario generator).

The synthesizer draws a declarative :class:`ProgramSpec` — shared objects
plus one flat, well-nested operation list per thread — from a
``random.Random`` seeded with the ``(seed, config)`` pair, then compiles the
spec into an ordinary :class:`~repro.runtime.program.Program`.  Splitting
generation (all randomness) from interpretation (none) is what makes every
guarantee checkable:

* **determinism** — same seed + config → byte-identical spec JSON, ground
  truth and program name; generation never consults global state.
* **termination** — thread bodies are loop-free (the single condvar-wait
  loop is bounded by the number of broadcasts), so any schedule finishes
  within the declared ``step_budget``.
* **base-program correctness** — before bug planting the spec is crash-free
  *and* sanitizer-clean under every schedule, by construction:

  - locks/semaphores are acquired in ascending global rank, well nested;
  - every multi-thread plain variable is a *counter* updated only inside
    its dedicated mutex section and asserted by the main thread after all
    joins (the crash oracle bug planting later subverts);
  - condition variables follow the monitor handshake (flag write + broadcast
    under the mutex; consumers re-check the flag in a wait loop), ordered so
    producers can never block behind their consumers;
  - barriers are arrived at only at nesting depth zero, by exactly their
    member threads, in a globally consistent round order.

Planting (:mod:`repro.gen.plant`) then perturbs one spec site to inject a
known bug and records the :class:`~repro.gen.plant.GroundTruth`.

Generated programs are addressable by name — ``gen:<seed>`` with default
knobs, ``gen:<seed>:<token>`` otherwise — so the benchmark registry, the
CLI, campaign workers and replay all reconstruct the identical program from
the name alone (serial == parallel for free).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterator

from repro.bench.registry import GEN_PREFIX
from repro.runtime.program import Program

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.gen.plant import GroundTruth

#: Bug kinds the planting stage can inject ("none" = keep the base program).
BUG_KINDS = ("race", "deadlock", "atomicity", "none")


# ----------------------------------------------------------------------
# Generator knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GenConfig:
    """Size/shape knobs of the synthesizer.

    All fields are integers (probabilities as percents) so a config is
    exactly representable in a program-name token and round-trips
    byte-identically through :meth:`to_token`/:meth:`from_token`.
    """

    #: Worker threads per program, drawn from [2, max_threads].
    max_threads: int = 4
    #: Phase-2 blocks per thread, drawn from [1, max_blocks].
    max_blocks: int = 6
    #: Padding ops inside planted bug windows, drawn from [0, max_window]
    #: (the controlled-interleaving-depth knob).
    max_window: int = 2
    #: Asserted shared counters, drawn from [1, max_counters].
    max_counters: int = 2
    #: Extra (non-counter) mutexes available for nested sections.
    max_extra_mutexes: int = 2
    #: Maximum critical-section nesting depth (ascending lock rank).
    max_nesting: int = 2
    #: Counting semaphores, drawn from [0, max_sems]; init >= 1.
    max_sems: int = 1
    #: Percent chance the program gets a barrier over >= 2 threads.
    barrier_pct: int = 35
    #: Percent chance the program gets a condvar producer/consumer handshake.
    condvar_pct: int = 35
    #: Relative weights of the planted bug kinds, in BUG_KINDS order.
    bug_mix: tuple[int, int, int, int] = (2, 2, 2, 2)

    _TOKEN_FIELDS = (
        ("t", "max_threads"),
        ("b", "max_blocks"),
        ("w", "max_window"),
        ("c", "max_counters"),
        ("x", "max_extra_mutexes"),
        ("n", "max_nesting"),
        ("s", "max_sems"),
        ("pb", "barrier_pct"),
        ("pc", "condvar_pct"),
    )

    def __post_init__(self) -> None:
        if self.max_threads < 2:
            raise ValueError("GenConfig.max_threads must be >= 2")
        if self.max_counters < 1:
            raise ValueError("GenConfig.max_counters must be >= 1")
        if len(self.bug_mix) != len(BUG_KINDS) or any(w < 0 for w in self.bug_mix):
            raise ValueError(f"GenConfig.bug_mix needs {len(BUG_KINDS)} weights >= 0")
        if sum(self.bug_mix) == 0:
            raise ValueError("GenConfig.bug_mix must have a positive total weight")

    def to_token(self) -> str:
        """Canonical name token: non-default fields only; "" for defaults."""
        default = _DEFAULT_CONFIG
        parts = [
            f"{key}={getattr(self, fname)}"
            for key, fname in self._TOKEN_FIELDS
            if getattr(self, fname) != getattr(default, fname)
        ]
        if self.bug_mix != default.bug_mix:
            mix = "".join(f"{k[0]}{w}" for k, w in zip(BUG_KINDS, self.bug_mix))
            parts.append(f"mix={mix}")
        return ",".join(parts)

    @classmethod
    def from_token(cls, token: str) -> "GenConfig":
        """Parse a :meth:`to_token` string back into a config."""
        if not token:
            return cls()
        kwargs: dict[str, Any] = {}
        short = {key: fname for key, fname in cls._TOKEN_FIELDS}
        grammar = f"valid knobs: {', '.join(f'{k}=<int>' for k in short)}, mix=r#d#a#n#"
        for part in token.split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed gen config token part {part!r}: "
                    f"expected <knob>=<value> ({grammar})"
                )
            if key == "mix":
                kwargs["bug_mix"] = _parse_mix(value)
            elif key in short:
                try:
                    kwargs[short[key]] = int(value)
                except ValueError:
                    raise ValueError(
                        f"malformed gen config token part {part!r}: "
                        f"knob {key!r} needs an integer, got {value!r} ({grammar})"
                    ) from None
            else:
                raise ValueError(
                    f"unknown gen config token key {key!r} in part {part!r} ({grammar})"
                )
        return cls(**kwargs)


def _parse_mix(value: str) -> tuple[int, int, int, int]:
    weights: list[int] = []
    index = 0
    for kind in BUG_KINDS:
        if index >= len(value) or value[index] != kind[0]:
            raise ValueError(f"malformed bug mix {value!r}; expected r..d..a..n..")
        index += 1
        digits = ""
        while index < len(value) and value[index].isdigit():
            digits += value[index]
            index += 1
        if not digits:
            raise ValueError(f"malformed bug mix {value!r}: no weight for {kind!r}")
        weights.append(int(digits))
    if index != len(value):
        raise ValueError(f"malformed bug mix {value!r}: trailing {value[index:]!r}")
    return tuple(weights)  # type: ignore[return-value]


_DEFAULT_CONFIG = GenConfig()


# ----------------------------------------------------------------------
# The spec IR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """One interpreted operation of a generated thread body.

    ``kind`` is one of: read, write, add, cas, lock, unlock, acquire,
    release, arrive, pause, ctr_read, ctr_write, cv_produce, cv_consume.
    ``target`` names the shared object; ``value``/``aux`` carry operands
    (write value, rmw delta, cas new/expected).
    """

    kind: str
    target: str = ""
    value: int = 0
    aux: int = 0

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind}
        if self.target:
            payload["target"] = self.target
        if self.value:
            payload["value"] = self.value
        if self.aux:
            payload["aux"] = self.aux
        return payload


@dataclass(frozen=True)
class VarSpec:
    """A shared variable.  ``mode``: counter | guarded | atomic | private |
    flag.  ``guard`` is the owning mutex for counter/guarded/flag vars;
    ``owner`` the owning tid for private vars."""

    name: str
    init: int = 0
    mode: str = "private"
    guard: str = ""
    owner: int = 0


@dataclass(frozen=True)
class CounterSpec:
    """An asserted counter: updated under ``mutex``, checked by main."""

    var: str
    mutex: str
    expected: int


@dataclass(frozen=True)
class SemSpec:
    name: str
    init: int


@dataclass(frozen=True)
class BarrierSpec:
    name: str
    members: tuple[int, ...]  # tids; parties == len(members)
    rounds: int


@dataclass(frozen=True)
class CondVarSpec:
    name: str
    mutex: str
    flag: str
    producer: int  # tid
    consumers: tuple[int, ...]  # tids


@dataclass(frozen=True)
class ThreadSpec:
    ops: tuple[OpSpec, ...]


@dataclass(frozen=True)
class ProgramSpec:
    """The complete declarative description of one generated program."""

    seed: int
    config_token: str
    vars: tuple[VarSpec, ...]
    mutexes: tuple[str, ...]  # global lock rank == tuple order
    sems: tuple[SemSpec, ...]
    barriers: tuple[BarrierSpec, ...]
    condvars: tuple[CondVarSpec, ...]
    counters: tuple[CounterSpec, ...]
    threads: tuple[ThreadSpec, ...]
    step_budget: int
    mc_supported: bool

    @property
    def name(self) -> str:
        return spec_name(self.seed, self.config_token)

    @property
    def total_ops(self) -> int:
        return sum(len(thread.ops) for thread in self.threads)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "config_token": self.config_token,
            "vars": [
                {
                    "name": v.name,
                    "init": v.init,
                    "mode": v.mode,
                    "guard": v.guard,
                    "owner": v.owner,
                }
                for v in self.vars
            ],
            "mutexes": list(self.mutexes),
            "sems": [{"name": s.name, "init": s.init} for s in self.sems],
            "barriers": [
                {"name": b.name, "members": list(b.members), "rounds": b.rounds}
                for b in self.barriers
            ],
            "condvars": [
                {
                    "name": c.name,
                    "mutex": c.mutex,
                    "flag": c.flag,
                    "producer": c.producer,
                    "consumers": list(c.consumers),
                }
                for c in self.condvars
            ],
            "counters": [
                {"var": c.var, "mutex": c.mutex, "expected": c.expected}
                for c in self.counters
            ],
            "threads": [[op.to_dict() for op in t.ops] for t in self.threads],
            "step_budget": self.step_budget,
            "mc_supported": self.mc_supported,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON form of the spec."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def spec_name(seed: int, config_token: str = "") -> str:
    """The registry name of a generated program."""
    return f"{GEN_PREFIX}{seed}:{config_token}" if config_token else f"{GEN_PREFIX}{seed}"


@dataclass(frozen=True)
class GeneratedProgram:
    """A synthesized scenario: spec, planted-bug label, runnable program."""

    spec: ProgramSpec
    ground_truth: "GroundTruth"
    program: Program

    @property
    def name(self) -> str:
        return self.spec.name

    def to_dict(self) -> dict[str, Any]:
        return {"spec": self.spec.to_dict(), "ground_truth": self.ground_truth.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------
def _rng_for(seed: int, token: str) -> random.Random:
    # String seeding is stable across processes and Python versions
    # (random.Random hashes str seeds with sha512, not PYTHONHASHSEED).
    return random.Random(f"rff-gen:{token}:{seed}")


def synthesize(seed: int, config: GenConfig | None = None) -> GeneratedProgram:
    """Deterministically synthesize one program (base draw + bug plant)."""
    from repro.gen.plant import plant_bug

    config = config or _DEFAULT_CONFIG
    token = config.to_token()
    rng = _rng_for(seed, token)
    spec = _synthesize_base(seed, token, rng, config)
    kind = rng.choices(BUG_KINDS, weights=config.bug_mix, k=1)[0]
    window = rng.randint(0, config.max_window)
    spec, truth = plant_bug(spec, kind, rng, window=window)
    return GeneratedProgram(spec=spec, ground_truth=truth, program=compile_spec(spec, truth))


def corpus(seed: int, count: int, config: GenConfig | None = None) -> list[GeneratedProgram]:
    """``count`` programs with consecutive seeds ``seed .. seed+count-1``."""
    if count < 1:
        raise ValueError("corpus needs count >= 1")
    return [synthesize(seed + index, config) for index in range(count)]


@lru_cache(maxsize=512)
def from_name(name: str) -> GeneratedProgram:
    """Reconstruct a generated program from its ``gen:`` name alone."""
    if not name.startswith(GEN_PREFIX):
        raise KeyError(f"not a generated-program name: {name!r}")
    body = name[len(GEN_PREFIX):]
    seed_text, _, token = body.partition(":")
    try:
        seed = int(seed_text)
    except ValueError:
        raise KeyError(
            f"malformed generated-program name {name!r}; expected gen:<seed>[:<token>]"
        ) from None
    try:
        config = GenConfig.from_token(token)
    except ValueError as exc:
        raise KeyError(f"malformed generated-program name {name!r}: {exc}") from None
    return synthesize(seed, config)


def _synthesize_base(
    seed: int, token: str, rng: random.Random, config: GenConfig
) -> ProgramSpec:
    """Draw a crash-free, sanitizer-clean base spec (see module docstring)."""
    n_threads = rng.randint(2, config.max_threads)
    tids = list(range(1, n_threads + 1))  # main is tid 0

    variables: list[VarSpec] = []
    mutexes: list[str] = []

    # Counters: one dedicated mutex each, asserted by main after the joins.
    n_counters = rng.randint(1, config.max_counters)
    counters_wip: list[dict[str, Any]] = []
    for index in range(n_counters):
        var_name, mutex_name = f"c{index}", f"mc{index}"
        mutexes.append(mutex_name)
        variables.append(VarSpec(var_name, init=rng.randint(0, 5), mode="counter", guard=mutex_name))
        counters_wip.append({"var": var_name, "mutex": mutex_name, "total": 0})

    # Extra mutexes guard one plain variable each (nested-section material).
    n_extra = rng.randint(0, config.max_extra_mutexes)
    guarded: list[tuple[str, str]] = []  # (var, mutex), ascending rank
    for index in range(n_extra):
        var_name, mutex_name = f"g{index}", f"mg{index}"
        mutexes.append(mutex_name)
        variables.append(VarSpec(var_name, init=0, mode="guarded", guard=mutex_name))
        guarded.append((var_name, mutex_name))

    # Atomic vars: rmw/cas only, race-free without locks.
    atomics = [f"a{index}" for index in range(rng.randint(0, 2))]
    variables.extend(VarSpec(name, init=0, mode="atomic") for name in atomics)

    # One private scratch var per thread (padding / busywork material).
    for tid in tids:
        variables.append(VarSpec(f"p{tid}", init=0, mode="private", owner=tid))

    sems = [
        SemSpec(f"s{index}", init=rng.randint(1, 2))
        for index in range(rng.randint(0, config.max_sems))
    ]

    barriers: list[BarrierSpec] = []
    if n_threads >= 2 and rng.randint(1, 100) <= config.barrier_pct:
        members = tuple(sorted(rng.sample(tids, rng.randint(2, n_threads))))
        barriers.append(BarrierSpec("bar0", members=members, rounds=rng.randint(1, 2)))

    condvars: list[CondVarSpec] = []
    if n_threads >= 2 and rng.randint(1, 100) <= config.condvar_pct:
        producer = rng.choice(tids)
        others = [tid for tid in tids if tid != producer]
        consumers = tuple(sorted(rng.sample(others, rng.randint(1, len(others)))))
        mutex_name, flag_name = "mcv0", "f0"
        mutexes.append(mutex_name)
        variables.append(VarSpec(flag_name, init=0, mode="flag", guard=mutex_name))
        condvars.append(
            CondVarSpec("cv0", mutex=mutex_name, flag=flag_name, producer=producer, consumers=consumers)
        )

    rank = {name: index for index, name in enumerate(mutexes)}

    # Per-thread bodies, built phase by phase (see module docstring).
    bodies: list[list[OpSpec]] = [[] for _ in tids]

    def emit_counter_update(body: list[OpSpec], tid: int, counter: dict[str, Any]) -> None:
        increment = rng.randint(1, 5)
        counter["total"] += increment
        body.append(OpSpec("lock", counter["mutex"]))
        body.append(OpSpec("ctr_read", counter["var"]))
        for _ in range(rng.randint(0, config.max_window)):
            body.append(_private_op(rng, tid))
        body.append(OpSpec("ctr_write", counter["var"], value=increment))
        body.append(OpSpec("unlock", counter["mutex"]))

    def emit_locked_block(body: list[OpSpec], tid: int, depth: int, min_rank: int) -> None:
        # A nested critical section over the guarded vars, ascending rank.
        available = [(v, m) for v, m in guarded if rank[m] >= min_rank]
        if not available:
            body.append(_private_op(rng, tid))
            return
        var_name, mutex_name = rng.choice(available)
        body.append(OpSpec("lock", mutex_name))
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                body.append(OpSpec("read", var_name))
            else:
                body.append(OpSpec("write", var_name, value=rng.randint(0, 9)))
        if depth + 1 < config.max_nesting and rng.random() < 0.4:
            emit_locked_block(body, tid, depth + 1, rank[mutex_name] + 1)
        body.append(OpSpec("unlock", mutex_name))

    for index, tid in enumerate(tids):
        body = bodies[index]
        # Phase 1: condvar production (never blocks behind consumers).
        for cv in condvars:
            if cv.producer == tid:
                body.append(OpSpec("cv_produce", cv.name))
        # Phase 2: general blocks.
        for _ in range(rng.randint(1, config.max_blocks)):
            choice = rng.random()
            if choice < 0.35:
                emit_counter_update(body, tid, rng.choice(counters_wip))
            elif choice < 0.55:
                emit_locked_block(body, tid, 0, 0)
            elif choice < 0.70 and atomics:
                body.append(OpSpec("add", rng.choice(atomics), value=rng.randint(1, 3)))
            elif choice < 0.80 and sems:
                sem = rng.choice(sems)
                body.append(OpSpec("acquire", sem.name))
                body.append(_private_op(rng, tid))
                body.append(OpSpec("release", sem.name))
            elif choice < 0.90:
                body.append(_private_op(rng, tid))
            else:
                body.append(OpSpec("pause"))
        # Phase 3: condvar consumption.
        for cv in condvars:
            if tid in cv.consumers:
                body.append(OpSpec("cv_consume", cv.name))
        # Phase 4: barrier rounds (depth 0, consistent order across members).
        for barrier in barriers:
            if tid in barrier.members:
                for _ in range(barrier.rounds):
                    body.append(OpSpec("arrive", barrier.name))

    counters = tuple(
        CounterSpec(
            var=c["var"],
            mutex=c["mutex"],
            expected=next(v.init for v in variables if v.name == c["var"]) + c["total"],
        )
        for c in counters_wip
    )
    threads = tuple(ThreadSpec(ops=tuple(body)) for body in bodies)
    spec = ProgramSpec(
        seed=seed,
        config_token=token,
        vars=tuple(variables),
        mutexes=tuple(mutexes),
        sems=tuple(sems),
        barriers=tuple(barriers),
        condvars=tuple(condvars),
        counters=counters,
        threads=threads,
        step_budget=0,  # placeholder; computed below
        mc_supported=False,
    )
    total = spec.total_ops
    mc = n_threads <= 3 and total <= 30
    return replace(spec, step_budget=compute_budget(spec), mc_supported=mc)


def compute_budget(spec: ProgramSpec) -> int:
    """Step budget sufficient for any schedule of ``spec``.

    Every op costs O(1) events (cv_consume: lock + bounded flag re-checks +
    wait + unlock; wakeup re-acquires surface as scheduler steps, not new
    events); 4x plus spawn/join/assert slack is a safe, checkable bound.
    """
    return (
        4 * spec.total_ops
        + 10 * len(spec.threads)
        + 16 * len(spec.condvars)
        + 8 * len(spec.counters)
        + 64
    )


def _private_op(rng: random.Random, tid: int) -> OpSpec:
    name = f"p{tid}"
    if rng.random() < 0.5:
        return OpSpec("read", name)
    return OpSpec("write", name, value=rng.randint(0, 9))


# ----------------------------------------------------------------------
# Compilation: spec -> Program
# ----------------------------------------------------------------------
def compile_spec(spec: ProgramSpec, truth: "GroundTruth") -> Program:
    """Compile a spec into a runnable :class:`Program` (pure interpretation)."""
    cv_by_name = {cv.name: cv for cv in spec.condvars}

    def thread_body(t, ops: tuple[OpSpec, ...], objects: dict[str, Any]):
        saved: dict[str, Any] = {}
        for op in ops:
            kind = op.kind
            if kind == "read":
                yield t.read(objects[op.target])
            elif kind == "write":
                yield t.write(objects[op.target], op.value)
            elif kind == "add":
                yield t.add(objects[op.target], op.value)
            elif kind == "cas":
                yield t.cas(objects[op.target], op.aux, op.value)
            elif kind == "lock":
                yield t.lock(objects[op.target])
            elif kind == "unlock":
                yield t.unlock(objects[op.target])
            elif kind == "acquire":
                yield t.acquire(objects[op.target])
            elif kind == "release":
                yield t.release(objects[op.target])
            elif kind == "arrive":
                yield t.arrive(objects[op.target])
            elif kind == "pause":
                yield t.pause()
            elif kind == "ctr_read":
                saved[op.target] = yield t.read(objects[op.target])
            elif kind == "ctr_write":
                yield t.write(objects[op.target], saved[op.target] + op.value)
            elif kind == "cv_produce":
                # The flag is an atomic (cas/rmw are sync kinds): the DSL's
                # happens-before model orders wait's implicit mutex release
                # on the condvar location only, so a *plain* flag access
                # around a wait would be flagged by FastTrack.  The mutex is
                # still what makes check-then-wait lost-wakeup-free.
                cv = cv_by_name[op.target]
                yield t.lock(objects[cv.mutex])
                yield t.cas(objects[cv.flag], 0, 1)
                yield t.broadcast(objects[cv.name])
                yield t.unlock(objects[cv.mutex])
            elif kind == "cv_consume":
                cv = cv_by_name[op.target]
                yield t.lock(objects[cv.mutex])
                while not (yield t.cas(objects[cv.flag], 1, 1)):
                    yield t.wait(objects[cv.name], objects[cv.mutex])
                yield t.unlock(objects[cv.mutex])
            else:  # pragma: no cover - specs are validated at build time
                raise ValueError(f"unknown generated op kind {kind!r}")

    def main(t):
        objects: dict[str, Any] = {}
        for var in spec.vars:
            objects[var.name] = t.var(var.name, var.init)
        for name in spec.mutexes:
            objects[name] = t.mutex(name)
        for sem in spec.sems:
            objects[sem.name] = t.sem(sem.name, sem.init)
        for barrier in spec.barriers:
            objects[barrier.name] = t.barrier(barrier.name, len(barrier.members))
        for cv in spec.condvars:
            objects[cv.name] = t.cond(cv.name)
        handles = []
        for thread in spec.threads:
            handles.append((yield t.spawn(thread_body, thread.ops, objects)))
        for handle in handles:
            yield t.join(handle)
        for counter in spec.counters:
            total = yield t.read(objects[counter.var])
            t.require(
                total == counter.expected,
                f"counter {counter.var} == {total}, expected {counter.expected}: lost update",
            )

    bug_kinds = (truth.crash_outcome,) if truth.crash_outcome else ()
    return Program(
        name=spec.name,
        main=main,
        bug_kinds=frozenset(bug_kinds),
        suite="Generated",
        mc_supported=spec.mc_supported,
        description=(
            f"generated scenario (seed {spec.seed}, planted bug: {truth.kind}, "
            f"{len(spec.threads)} threads, {spec.total_ops} ops)"
        ),
        max_steps=spec.step_budget,
        extra={"ground_truth": truth.to_dict()},
    )


# ----------------------------------------------------------------------
# Hypothesis integration
# ----------------------------------------------------------------------
def gen_configs():
    """Hypothesis strategy over token-representable :class:`GenConfig`."""
    from hypothesis import strategies as st

    return st.builds(
        GenConfig,
        max_threads=st.integers(2, 5),
        max_blocks=st.integers(1, 7),
        max_window=st.integers(0, 3),
        max_counters=st.integers(1, 3),
        max_extra_mutexes=st.integers(0, 2),
        max_nesting=st.integers(1, 3),
        max_sems=st.integers(0, 2),
        barrier_pct=st.integers(0, 100),
        condvar_pct=st.integers(0, 100),
        bug_mix=st.tuples(*[st.integers(0, 3)] * 4).filter(lambda mix: sum(mix) > 0),
    )


def program_specs(configs=None, seeds=None):
    """Hypothesis strategy yielding :class:`GeneratedProgram` instances.

    Hypothesis drives the *knobs* (seed + config); the synthesizer itself
    stays seed-deterministic, which is exactly what the property suite pins.
    """
    from hypothesis import strategies as st

    configs = configs if configs is not None else gen_configs()
    seeds = seeds if seeds is not None else st.integers(0, 2**32 - 1)
    return st.builds(lambda seed, config: synthesize(seed, config), seeds, configs)


def iter_names(seed: int, count: int, config: GenConfig | None = None) -> Iterator[str]:
    """The registry names of :func:`corpus` without synthesizing anything."""
    token = (config or _DEFAULT_CONFIG).to_token()
    for index in range(count):
        yield spec_name(seed + index, token)
