"""Fault injection for the campaign engines: seeded chaos plans.

The engines' robustness claims — bounded retries, per-slice timeouts, lease
expiry, crash isolation, store resume — are only testable if worker and
storage failure can be provoked on demand.  A :class:`ChaosPlan` is a pure
function of its seed and its ``cells`` targeting map: for any cell key or
store-write index it answers "which fault, if any, fires here?" —
identically on every call, in every process, under any start method.

A plan is armed through the environment only: :data:`ENV_PLAN` carries its
JSON form and :data:`ENV_PLAN_STATE` the directory of its claim files, and
:meth:`ChaosPlan.from_env` is their only reader.  The store reads the plan
at every append; :class:`~repro.harness.parallel.ParallelCampaign` reads it
once into the worker profile it ships to every pool worker.  Every one-shot
injection point fires *exactly once* per campaign via ``O_CREAT | O_EXCL``
claim files, so a retried or resumed attempt of a faulted cell proceeds
normally and the campaign provably converges to the fault-free result.

Worker-side fault kinds (applied by :func:`worker_chaos`):

* ``kill`` — hard ``os._exit`` mid-trial (segfault/OOM/SIGKILL model);
* ``hang`` — wedge the worker past its lease: the heartbeat thread checks
  :func:`is_wedged` and stops beating, then the worker sleeps until the
  pool's lease expiry kills the process;
* ``skew`` — a benign slow-worker clock skew: sleep briefly, keep beating;
* ``poison`` — a ``kill`` on every attempt, never claimed: the
  deterministic crasher whose retry budget must run out (targeted only).

Seeded draws pick ``kill``/``hang``/``skew`` at the plan's rates; a cell
named in ``cells`` gets its targeted kind instead.

Store-side fault kinds (applied by
:class:`~repro.harness.store.CorpusStore` during appends):

* ``torn_write`` — flush only a prefix of the record's line, then raise
  :class:`ChaosKill` (the SIGKILL-mid-write model);
* ``corrupt`` — commit the record with a poisoned checksum, modelling
  at-rest corruption the reader must detect and re-run around.

Worker faults fire only inside pool worker processes: the in-process drain
(``processes=0``, or a pool whose workers cannot start) runs none, so a
kill plan never takes the campaign itself down.  Store faults fire wherever
the store is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

#: JSON form of a ChaosPlan (see ChaosPlan.to_env / from_env).
ENV_PLAN = "RFF_CHAOS_PLAN"
#: Directory of once-only claim files for chaos injection points.
ENV_PLAN_STATE = "RFF_CHAOS_STATE"

#: Exit code of a crash-injected worker (distinctive in worker_exit records).
CRASH_EXIT_CODE = 17

#: Fault kinds applied inside pool worker processes by worker_chaos.
WORKER_FAULTS = ("kill", "hang", "skew", "poison")
#: Fault kinds applied by CorpusStore during record appends.
STORE_FAULTS = ("torn_write", "corrupt")
FAULT_KINDS = WORKER_FAULTS + STORE_FAULTS


class ChaosKill(BaseException):
    """A simulated SIGKILL during a store write.

    Derives from ``BaseException`` so generic ``except Exception`` recovery
    code cannot swallow it — like the real signal, the only valid response
    is to die and let a resumed campaign recover from disk.
    """


#: Set by wedge-style faults in the worker process; the pool worker's
#: heartbeat thread polls it and stops beating, so the parent's lease
#: machinery (not in-process cooperation) is what ends the worker.
_WEDGED = False


def is_wedged() -> bool:
    return _WEDGED


def _wedge() -> None:
    global _WEDGED
    _WEDGED = True


def cell_key(tool: str, program: str, trial: int) -> str:
    """The canonical ``"tool|program|trial"`` encoding of one campaign cell."""
    return f"{tool}|{program}|{trial}"


# ----------------------------------------------------------------------
# Seeded deterministic chaos plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic fault-injection plan.

    Each rate is the probability mass assigned to that fault kind; for one
    injection point a single uniform draw (a pure hash of ``(seed, scope,
    token)``) is partitioned across the kinds, so rates compose: with
    ``kill=0.2, hang=0.1`` a cell draws ``kill`` with 20% mass, ``hang``
    with the next 10%, nothing otherwise.  The same seed always yields the
    same injection points — the property the differential chaos suite and
    the hypothesis tests pin down.
    """

    seed: int
    kill: float = 0.0
    hang: float = 0.0
    skew: float = 0.0
    torn_write: float = 0.0
    corrupt: float = 0.0
    #: Sleep length of a wedged (hang) worker; the lease must expire first.
    hang_seconds: float = 3600.0
    #: Sleep length of a skewed (slow) worker; benign, under the lease.
    skew_seconds: float = 0.02
    #: Targeted cells, ``"tool|program|trial"`` (see :func:`cell_key`) ->
    #: worker fault kind; checked before the seeded draw.
    cells: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.cells.values()) - set(WORKER_FAULTS))
        if unknown:
            raise ValueError(f"unknown worker fault kind(s) {unknown}; expected {WORKER_FAULTS}")

    def _uniform(self, scope: str, token: str) -> float:
        digest = hashlib.sha256(f"{self.seed}|{scope}|{token}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    @staticmethod
    def _pick(draw: float, bands: list[tuple[str, float]]) -> str | None:
        low = 0.0
        for kind, rate in bands:
            if draw < low + rate:
                return kind
            low += rate
        return None

    def worker_fault(self, key: str) -> str | None:
        """Fault kind injected into cell ``key``, if any: its targeted kind,
        else the seeded draw (kill/hang/skew)."""
        if key in self.cells:
            return self.cells[key]
        return self._pick(
            self._uniform("cell", key),
            [("kill", self.kill), ("hang", self.hang), ("skew", self.skew)],
        )

    def store_fault(self, index: int) -> str | None:
        """Fault kind (torn_write/corrupt) injected into store append #index."""
        return self._pick(
            self._uniform("write", str(index)),
            [("torn_write", self.torn_write), ("corrupt", self.corrupt)],
        )

    def injection_points(self, keys: list[str]) -> dict[str, str]:
        """All worker-side injections over ``keys`` (key -> fault kind)."""
        points = {}
        for key in keys:
            kind = self.worker_fault(key)
            if kind is not None:
                points[key] = kind
        return points

    # -- environment plumbing ------------------------------------------
    def to_env(self, state_dir: str | os.PathLike) -> dict[str, str]:
        """The environment variables that arm this plan for workers and
        stores; ``state_dir`` must be an existing directory."""
        return {ENV_PLAN: json.dumps(asdict(self)), ENV_PLAN_STATE: str(state_dir)}

    @classmethod
    def from_env(cls, environ=os.environ) -> "tuple[ChaosPlan, str] | None":
        """Inverse of :meth:`to_env`: the armed plan and its claim
        directory, or None when either variable is unset."""
        raw = environ.get(ENV_PLAN)
        state = environ.get(ENV_PLAN_STATE)
        if not raw or not state:
            return None
        return cls(**json.loads(raw)), state


def claim_once(state_dir: str, token: str) -> bool:
    """Atomically claim one injection point; True exactly once per token.

    ``O_CREAT | O_EXCL`` makes exactly one attempt win the creation race;
    every later attempt (a retry, or a resumed campaign) loses the claim
    and proceeds normally."""
    name = hashlib.sha256(token.encode()).hexdigest()[:24]
    try:
        fd = os.open(os.path.join(state_dir, name), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, token.encode())
    os.close(fd)
    return True


def claimed_tokens(state_dir: str) -> list[str]:
    """The tokens of every injection point that actually fired (sorted) —
    lets tests assert exact retry/backoff accounting."""
    tokens = []
    for name in os.listdir(state_dir):
        with open(os.path.join(state_dir, name), "r", encoding="utf-8") as handle:
            tokens.append(handle.read())
    return sorted(tokens)


def worker_chaos(plan: ChaosPlan, state: str, key: str) -> None:
    """Apply the planned worker fault of cell ``key``; pool workers call
    this before every slice."""
    kind = plan.worker_fault(key)
    if kind is None:
        return
    if kind == "skew":
        # Benign slowness: fires on every attempt, never claims state —
        # a deterministically slow worker, not a one-shot failure.
        time.sleep(plan.skew_seconds)
        return
    # ``poison`` claims nothing: it kills every attempt.
    if kind != "poison" and not claim_once(state, f"{kind}:{key}"):
        return
    if kind == "hang":
        _wedge()
        time.sleep(plan.hang_seconds)
        return
    # A hard exit models a segfaulting/oom-killed worker: no exception, no
    # result message, just a dead process the engine must notice and retry.
    os._exit(CRASH_EXIT_CODE)


def store_chaos(index: int) -> str | None:
    """Store-side chaos: the planned torn_write/corrupt fault for append
    #``index``, claimed once; None when nothing fires."""
    armed = ChaosPlan.from_env()
    if armed is None:
        return None
    plan, state = armed
    kind = plan.store_fault(index)
    if kind is None:
        return None
    if not claim_once(state, f"{kind}:write-{index}"):
        return None
    return kind
