"""Five-stage, two-objective Pareto front construction around
parameter-space extension.

1. Train K base policies under evenly spread preference weights.
2. For each base, briefly retrain under one shifted weight and record
   the parameter and weight differences as its local direction.
3. Enumerate candidates training-free on a grid of direction
   coefficients: theta = base + alpha * dtheta, each with a matched
   weight w = w_base + alpha * dw. A candidate stores no theta: it is
   its base's direction set and its coefficient alpha, and theta is
   formed where it is used (one evaluation chunk, one fine-tuning job,
   one archive record at a time).
4. Roll out each grid and keep the pooled non-dominated subset.
5. Fine-tune briefly, under its matched weight, each survivor the budget
   gives at least one batch; the final archive is the non-dominated
   filter over survivors, fine-tuned policies, and the bases themselves.

The interaction budget is split 3:1:1 over the three training stages
(the extension stage trains nothing), divided evenly over each stage's
runs at whole-batch granularity; every environment step, including
evaluation rollouts, is tallied in a ledger.

Every training run of every stage goes through one runner with one
divergence rule: a run whose loss goes non-finite is warned about and
dropped, together with everything built from it (a base's directions
and grid, a retrain's grid, a fine-tune's output), and the run fails
only when fewer than two bases train. The runner trains all of a
stage's runs as one lockstep stack, whatever their budgets. Evaluation
is a pure function of (theta, episodes, seed), so identical policies
get identical returns without a cache. Returns live in two tables, one
per evaluation grade, keyed by `CandidatePolicy.key`; each policy is
rolled out once per grade, so a grid's alpha = 0 and alpha = 1 copies
take the returns of the base and the retrained policy they copy.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .envs import VectorRewardEnv, check_weight
from .pareto import FrontPoint, ParetoArchive, default_reference_point, dominates, non_dominated_filter
from .policy import ParameterVector, evaluate_returns
from .ppo import DivergenceError, PpoConfig, init_actor_critic, steps_taken, train
from .seeding import derive_seed

# Policies per lockstep evaluation rollout; it bounds the stacked arrays'
# memory and, since a candidate's theta is formed inside its chunk, the
# candidate vectors alive at once. The stacked network pass makes one
# BLAS product per policy, so the chunk size changes no result. 16
# full-size policies make a 1.1 MB stack where 64 made 4.5 MB, and a
# policy rolls out no slower in it at 32 episodes and within 5% at 8.
EVAL_CHUNK = 16


@dataclass(frozen=True)
class LleConfig:
    """Pipeline knobs: base count, shift, coefficient grid, evaluation
    grades, and the run seed every random draw derives from."""

    K: int = 6
    delta_s: float = 0.1
    alpha_start: float = -1.5
    alpha_end: float = 1.5
    delta_alpha: float = 0.05
    eval_episodes: int = 8
    final_eval_episodes: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not 0.0 < self.delta_s <= 0.5:
            raise ValueError("delta_s must be in (0, 0.5]")
        if self.alpha_start >= self.alpha_end:
            raise ValueError("alpha_start must be below alpha_end")
        if self.delta_alpha <= 0:
            raise ValueError("delta_alpha must be positive")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if self.final_eval_episodes < 1:
            raise ValueError("final_eval_episodes must be >= 1")
        # The root seed is a 32-bit word, so a seed outside that range
        # would repeat the run of the seed it wraps to.
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must be in [0, 2**32), got {self.seed}")


def alpha_grid(alpha_start: float, alpha_end: float, delta_alpha: float) -> np.ndarray:
    """Coefficient values alpha_start + i * delta, i = 0..M-1.

    M = floor((end - start) / delta) + 1, with a small epsilon so grids
    meant to land exactly on the endpoint are not cut short by rounding.
    Values within rounding of the landmarks 0 (the base) and 1 (the
    retrained policy) are set to them exactly.
    """
    m = int(math.floor((alpha_end - alpha_start) / delta_alpha + 1e-9)) + 1
    grid = alpha_start + delta_alpha * np.arange(m)
    for landmark in (0.0, 1.0):
        grid[np.abs(grid - landmark) <= 1e-9 * delta_alpha] = landmark
    return grid


def make_base_weights(k: int) -> list[np.ndarray]:
    """K two-objective preference weights spread evenly from (1, 0) to (0, 1)."""
    if k < 2:
        raise ValueError("need at least two base weights")
    return [np.array([w, 1.0 - w]) for w in np.linspace(1.0, 0.0, k)]


def shift_weight(weight: np.ndarray, delta_s: float) -> np.ndarray:
    """Nearby preference for directional retraining: subtract delta_s from
    the first coordinate, reflecting the shift when that would leave [0, 1]."""
    weight = check_weight(weight, 2)
    if delta_s >= 1.0 or delta_s <= 0.0:
        raise ValueError("delta_s must be in (0, 1)")
    if 0.0 <= weight[0] - delta_s <= 1.0:
        return np.array([weight[0] - delta_s, weight[1] + delta_s])
    return np.array([weight[0] + delta_s, weight[1] - delta_s])


def clip_to_simplex(raw: np.ndarray) -> np.ndarray:
    """Project a matched weight back onto the simplex by clip + renormalize."""
    clipped = np.clip(raw, 0.0, 1.0)
    total = clipped.sum()
    if total <= 0.0:
        return np.full(raw.shape, 1.0 / raw.shape[0])
    return clipped / total


@dataclass
class DirectionSet:
    """One base policy's local direction: the base, the policy retrained
    at its shifted weight, their parameter difference `delta` and weight
    difference `weight_delta`, whether the two are mutually non-dominated
    at final grade, and whether `delta` is zero."""

    # Directions per base; the benchmark's span hook (bench/spans.py) reads it.
    m = 1

    base_index: int
    base_theta: ParameterVector
    base_w: np.ndarray
    delta: ParameterVector
    weight_delta: np.ndarray
    retrained_theta: ParameterVector
    mutual_non_dominated: bool = False
    degenerate: bool = False

    def theta_at(self, alpha: float) -> ParameterVector:
        """A fresh theta = base + alpha * delta. alpha = 0 copies the base
        and alpha = 1 the retrained policy, verbatim so the landmarks are
        bit-exact."""
        if alpha == 0.0:
            return self.base_theta.copy()
        if alpha == 1.0:
            return self.retrained_theta.copy()
        data = self.base_theta.data.copy()
        data += alpha * self.delta.data
        return ParameterVector(data, self.base_theta.layout)


@dataclass
class CandidatePolicy:
    """A policy flowing through extension, selection, and fine-tuning.
    A base or a fine-tuned policy holds its `trained` theta; a grid point
    holds its base's `direction` set, and forms theta when it is read."""

    matched_w: np.ndarray
    raw_w: np.ndarray
    base_index: int
    alpha: float
    stage: str  # "extended" or "fine_tuned"
    policy_id: int
    trained: ParameterVector | None = None
    direction: DirectionSet | None = None

    @property
    def theta(self) -> ParameterVector:
        return self.trained if self.direction is None else self.direction.theta_at(self.alpha)

    @property
    def key(self) -> tuple[int, float] | int:
        """The policy this is, whatever its id: (base, alpha) for an
        extended one, base + alpha * direction, so a base and its grid's
        alpha = 0 copy share a key; the id for a fine-tuned one."""
        return (self.base_index, self.alpha) if self.stage == "extended" else self.policy_id

    @property
    def is_base(self) -> bool:
        """The grid's verbatim copy of its base: an extended policy with
        alpha = 0 (a fine-tuned copy of it has moved away)."""
        return self.stage == "extended" and self.alpha == 0.0


@dataclass
class BudgetLedger:
    """Environment steps actually consumed, by pipeline stage."""

    total_budget: int = 0
    init_steps: int = 0
    retrain_steps: int = 0
    extension_training_steps: int = 0
    finetune_steps: int = 0
    eval_steps: int = 0
    # Every step `_train_all` took, in any stage; not a stage of its own.
    train_all_steps: int = 0

    @property
    def training_steps(self) -> int:
        return (
            self.init_steps
            + self.retrain_steps
            + self.extension_training_steps
            + self.finetune_steps
        )

    @property
    def grand_total(self) -> int:
        return self.training_steps + self.eval_steps

    def as_dict(self) -> dict[str, int]:
        return {
            "total_budget": self.total_budget,
            "init_steps": self.init_steps,
            "retrain_steps": self.retrain_steps,
            "extension_training_steps": self.extension_training_steps,
            "finetune_steps": self.finetune_steps,
            "eval_steps": self.eval_steps,
            "training_steps": self.training_steps,
            "grand_total": self.grand_total,
        }


def _evaluate(
    thetas: Iterable[ParameterVector], n: int, env: VectorRewardEnv, episodes: int, seed: int, ledger: BudgetLedger
) -> np.ndarray:
    """The (n, d) returns matrix of the n policies `thetas` yields, row i
    for the i-th, from one `evaluate_returns` call per EVAL_CHUNK policies;
    every policy is charged to the ledger, and n = 0 gives a (0, d) matrix.
    Each theta is drawn only as its chunk fills and is copied straight
    into the one stack of min(n, EVAL_CHUNK) rows that the chunks share,
    so a vector formed on demand is dropped as soon as it is copied."""
    returns = np.empty((n, env.spec.d))
    for i, theta in enumerate(thetas):
        if not i:
            stack = np.empty((min(n, EVAL_CHUNK), theta.layout.size))
        row = i % EVAL_CHUNK
        stack[row] = theta.data
        if row == len(stack) - 1 or i == n - 1:
            chunk = ParameterVector(stack[: row + 1], theta.layout)
            returns[i - row : i + 1] = evaluate_returns(chunk, env, episodes, seed)
    ledger.eval_steps += n * episodes * env.spec.horizon
    return returns


def _graded_returns(
    policies: list[CandidatePolicy], table: dict, env: VectorRewardEnv, episodes: int, seed: int, ledger: BudgetLedger
) -> None:
    """Fill `table`, one grade's returns by `CandidatePolicy.key`: each
    policy whose key it lacks is rolled out once, in one `_evaluate` call."""
    missing = {c.key: c for c in policies if c.key not in table}
    thetas = (c.theta for c in missing.values())
    table.update(zip(missing, _evaluate(thetas, len(missing), env, episodes, seed, ledger)))


@dataclass(frozen=True)
class _Job:
    """One scalarized training run: start vector, weight, step budget, seed, log name."""

    theta: ParameterVector
    weight: np.ndarray
    steps: int
    seed: int
    name: str


def _train_all(
    jobs: list[_Job], env: VectorRewardEnv, ppo_cfg: PpoConfig, log_dir: Path | None, ledger: BudgetLedger
) -> tuple[list[ParameterVector | None], int]:
    """Train the jobs as one lockstep stack (one `train` call), each job
    on its own step budget.

    Returns the trained vectors in job order, with None for each job whose
    loss went non-finite (warned about once, in job order, and dropped),
    and the environment steps taken by the runs that completed, which
    are also added to the ledger's `train_all_steps`.
    """
    if not jobs:
        return [], 0
    if log_dir is not None:
        log_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as files:
        logs = [files.enter_context(open(log_dir / f"{job.name}.log", "w")) if log_dir else None
                for job in jobs]
        outcomes = train(
            [job.theta for job in jobs], env, [job.weight for job in jobs], max(job.steps for job in jobs),
            ppo_cfg, [job.seed for job in jobs], logs, member_steps=[job.steps for job in jobs],
        )
    trained, taken = [], 0
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, DivergenceError):
            warnings.warn(f"training run {job.name} diverged and is dropped: {outcome}", stacklevel=2)
            trained.append(None)
        else:
            trained.append(outcome)
            taken += steps_taken(job.steps, ppo_cfg)
    ledger.train_all_steps += taken
    return trained, taken


def directional_retrain(
    bases: list[CandidatePolicy],
    env: VectorRewardEnv,
    cfg: LleConfig,
    ppo_cfg: PpoConfig,
    budgets: list[int],
    ledger: BudgetLedger,
    final_returns: dict,
    log_dir: Path | None = None,
) -> list[DirectionSet]:
    """Estimate each base's local direction by brief retraining at its one
    shifted weight, for its entry of `budgets` steps.

    Each base and its retrained policy are rolled out at final evaluation
    grade, their returns written to `final_returns` as (base, 0.0) and
    (base, 1.0), and checked for mutual non-dominance; a violation or a zero
    direction is warned about and flagged, never raised, so degenerate
    runs still complete with the direction they found. A base whose
    retraining run diverges gets no direction set.
    """
    if len(budgets) != len(bases):
        raise ValueError("need one budget per base")
    shifted = [shift_weight(b.matched_w, cfg.delta_s) for b in bases]
    jobs = [
        _Job(b.theta, w, steps, derive_seed(cfg.seed, "retrain", b.base_index, 1), f"retrain_{b.base_index}_1")
        for b, w, steps in zip(bases, shifted, budgets)
    ]
    retrained, taken = _train_all(jobs, env, ppo_cfg, log_dir, ledger)
    ledger.retrain_steps += taken
    directions = [
        DirectionSet(
            base_index=b.base_index,
            base_theta=b.theta,
            base_w=b.matched_w,
            delta=ParameterVector(theta.data - b.theta.data, b.theta.layout),
            weight_delta=w - b.matched_w,
            retrained_theta=theta,
        )
        for b, w, theta in zip(bases, shifted, retrained)
        if theta is not None
    ]
    returns = _evaluate(
        (theta for dirs in directions for theta in (dirs.base_theta, dirs.retrained_theta)), 2 * len(directions),
        env, cfg.final_eval_episodes, derive_seed(cfg.seed, "eval.final"), ledger,
    )
    for dirs, base, moved in zip(directions, returns[::2], returns[1::2]):
        final_returns[dirs.base_index, 0.0], final_returns[dirs.base_index, 1.0] = base, moved
        dirs.mutual_non_dominated = not dominates(base, moved) and not dominates(moved, base)
        if not dirs.mutual_non_dominated:
            warnings.warn(
                f"base {dirs.base_index} and its retrain are not mutually non-dominated; keeping the direction",
                stacklevel=2,
            )
        dirs.degenerate = not dirs.delta.data.any()
        if dirs.degenerate:
            warnings.warn(
                f"direction for base {dirs.base_index} is zero: its retrain did not move it", stacklevel=2
            )
    return directions


def extend(dirs: DirectionSet, cfg: LleConfig, id_start: int) -> list[CandidatePolicy]:
    """Enumerate one base's coefficient grid, ids counting up from `id_start`.

    Nothing is trained or rolled out here, and no candidate stores a
    theta: each holds `dirs` and its coefficient (see
    `DirectionSet.theta_at`), and `run_pipeline` rolls its grid out.
    """
    candidates = []
    # tolist() gives Python floats, whose repr the run directory records.
    for offset, alpha in enumerate(alpha_grid(cfg.alpha_start, cfg.alpha_end, cfg.delta_alpha).tolist()):
        raw_w = dirs.base_w + alpha * dirs.weight_delta
        cand = CandidatePolicy(
            matched_w=clip_to_simplex(raw_w),
            raw_w=raw_w,
            base_index=dirs.base_index,
            alpha=alpha,
            stage="extended",
            policy_id=id_start + offset,
            direction=dirs,
        )
        candidates.append(cand)
    return candidates


def select_candidates(candidates: list[CandidatePolicy], returns: dict) -> list[CandidatePolicy]:
    """Pooled non-dominated subset over the candidates, by their `returns`
    (the selection-grade table)."""
    if not candidates:
        return []
    for c in candidates:
        if c.key not in returns:
            raise ValueError(f"candidate {c.policy_id} has not been evaluated")
    archive = non_dominated_filter(
        [FrontPoint(returns[c.key], c.policy_id, c.stage) for c in candidates]
    )
    keep = {p.policy_id for p in archive.points}
    return [c for c in candidates if c.policy_id in keep]


def fine_tune(
    selected: list[CandidatePolicy],
    env: VectorRewardEnv,
    cfg: LleConfig,
    ppo_cfg: PpoConfig,
    budgets: list[int],
    id_start: int,
    ledger: BudgetLedger,
    log_dir: Path | None = None,
) -> list[CandidatePolicy]:
    """Brief preference-aligned training of each selected candidate.

    Inputs are never mutated; each output carries stage "fine_tuned" and
    the next id from `id_start`, and `run_pipeline` rolls it out. Only
    candidates with a budget of at least one batch are trained: one with less would take no step and only copy its input, so
    it gets no output, log or ledger steps. A candidate whose run diverges gets no output either, and its
    steps are not charged; the other candidates are unaffected.
    """
    if len(budgets) != len(selected):
        raise ValueError("need one budget per selected candidate")
    funded = [(c, steps) for c, steps in zip(selected, budgets) if steps >= ppo_cfg.steps_per_batch]
    jobs = [
        _Job(c.theta, c.matched_w, steps, derive_seed(cfg.seed, "finetune", c.policy_id), f"finetune_{c.policy_id}")
        for c, steps in funded
    ]
    thetas, taken = _train_all(jobs, env, ppo_cfg, log_dir, ledger)
    ledger.finetune_steps += taken
    out = []
    for (cand, _), theta in zip(funded, thetas):
        if theta is None:
            continue
        out.append(
            CandidatePolicy(
                matched_w=cand.matched_w.copy(),
                raw_w=cand.raw_w.copy(),
                base_index=cand.base_index,
                alpha=cand.alpha,
                stage="fine_tuned",
                policy_id=id_start + len(out),
                trained=theta,
            )
        )
    return out


def _even_batch_split(total_steps: int, n_runs: int, batch: int) -> list[int]:
    """Split a stage budget over runs at whole-batch granularity.

    As even as whole batches allow; any remainder batches go to the
    earliest runs so small stage shares still train someone rather than
    rounding everyone to zero.
    """
    if n_runs == 0:
        return []
    batches = total_steps // batch
    base, extra = divmod(batches, n_runs)
    return [(base + (1 if j < extra else 0)) * batch for j in range(n_runs)]


def _batch_for_each_run(total_steps: int, n_runs: int, batch: int, runs: str) -> list[int]:
    """`_even_batch_split` for a stage whose every run must train; a share
    too small to give each run one batch is rejected."""
    if total_steps // batch < n_runs:
        raise ValueError(
            f"budget too small: a share of {total_steps} steps cannot give each of "
            f"{n_runs} {runs} one batch of {batch} steps"
        )
    return _even_batch_split(total_steps, n_runs, batch)


@dataclass
class PipelineResult:
    """Everything a run produces: archives, provenance, accounting, and
    the returns of every evaluated policy, one table per grade keyed by
    `CandidatePolicy.key`."""

    archive: ParetoArchive
    base_archive: ParetoArchive
    selection_archive: ParetoArchive
    bases: list[CandidatePolicy]
    candidates: list[CandidatePolicy]
    selected: list[CandidatePolicy]
    fine_tuned: list[CandidatePolicy]
    directions: list[DirectionSet]
    select_returns: dict[tuple[int, float] | int, np.ndarray]
    final_returns: dict[tuple[int, float] | int, np.ndarray]
    ref_point: np.ndarray
    ledger: BudgetLedger
    policies_by_id: dict[int, CandidatePolicy]


def run_pipeline(
    env: VectorRewardEnv,
    cfg: LleConfig,
    ppo_cfg: PpoConfig,
    total_budget: int,
    log_dir: str | Path | None = None,
) -> PipelineResult:
    """Execute all five stages under one interaction budget.

    The budget is split 3:1:1 over initialization, directional
    retraining, and fine-tuning. Every return vector entering the final
    archive is re-evaluated at final grade with a shared seed, so
    identical policies collapse exactly and stage-to-stage hypervolume
    can only grow. The pipeline is defined for two objectives: an
    environment with any other d is rejected before any training.
    """
    if env.spec.d != 2:
        raise ValueError(
            f"the pipeline needs a two-objective environment; {env.spec.name} has d = {env.spec.d}"
        )
    log_dir = Path(log_dir) if log_dir is not None else None
    ledger = BudgetLedger(total_budget=int(total_budget))
    batch = ppo_cfg.steps_per_batch

    init_budgets = _batch_for_each_run(3 * total_budget // 5, cfg.K, batch, "bases")
    dir_budgets = _batch_for_each_run(total_budget // 5, cfg.K, batch, "direction runs")

    weights = make_base_weights(cfg.K)
    select_seed = derive_seed(cfg.seed, "eval.select")
    final_seed = derive_seed(cfg.seed, "eval.final")

    # Stage 1: base policies; a diverged base is dropped with all it would seed.
    jobs = [
        _Job(init_actor_critic(env, derive_seed(cfg.seed, "net", k)), w, init_budgets[k],
             derive_seed(cfg.seed, "init", k), f"init_{k}")
        for k, w in enumerate(weights)
    ]
    base_thetas, ledger.init_steps = _train_all(jobs, env, ppo_cfg, log_dir, ledger)
    trained = [k for k, theta in enumerate(base_thetas) if theta is not None]
    if len(trained) < 2:
        raise DivergenceError(f"only {len(trained)} of {cfg.K} base policies trained; a front needs two")

    # Base policies as alpha = 0 candidates (id = base index) so the
    # final pool always contains them whatever the grid holds.
    bases = [
        CandidatePolicy(
            matched_w=weights[k].copy(),
            raw_w=weights[k].copy(),
            base_index=k,
            alpha=0.0,
            stage="extended",
            policy_id=k,
            trained=base_thetas[k],
        )
        for k in trained
    ]

    # Stage 2: directions, with each base's and retrained policy's
    # final-grade returns; a base whose retraining diverged is not extended.
    final_returns = {}
    directions = directional_retrain(
        bases, env, cfg, ppo_cfg, [dir_budgets[b.base_index] for b in bases], ledger, final_returns, log_dir
    )

    # Stage 3: training-free extension, then the selection-grade rollouts:
    # the bases, then one pass per grid (whose alpha = 0 copy takes its
    # base's returns).
    trained_before = ledger.train_all_steps
    grids, candidates = [], []
    for dirs in directions:
        grids.append(extend(dirs, cfg, cfg.K + len(candidates)))
        candidates += grids[-1]
    select_returns = {}
    for group in [bases, *grids]:
        _graded_returns(group, select_returns, env, cfg.eval_episodes, select_seed, ledger)

    # Stage 4: pooled selection.
    selected = select_candidates(candidates, select_returns)
    ledger.extension_training_steps = ledger.train_all_steps - trained_before

    # Stage 5: preference-aligned fine-tuning.
    ft_budgets = _even_batch_split(total_budget // 5, len(selected), batch)
    fine_tuned = fine_tune(selected, env, cfg, ppo_cfg, ft_budgets, cfg.K + len(candidates), ledger, log_dir)
    _graded_returns(fine_tuned, select_returns, env, cfg.eval_episodes, select_seed, ledger)

    # Final-grade returns of everything entering the archive pool.
    pool = bases + selected + fine_tuned
    _graded_returns(pool, final_returns, env, cfg.final_eval_episodes, final_seed, ledger)

    base_archive, selection_archive, archive = (
        non_dominated_filter([FrontPoint(final_returns[c.key], c.policy_id, c.stage) for c in group])
        for group in (bases, bases + selected, pool)
    )
    ref_point = default_reference_point([*select_returns.values(), *final_returns.values()])

    return PipelineResult(
        archive=archive,
        base_archive=base_archive,
        selection_archive=selection_archive,
        bases=bases,
        candidates=candidates,
        selected=selected,
        fine_tuned=fine_tuned,
        directions=directions,
        select_returns=select_returns,
        final_returns=final_returns,
        ref_point=ref_point,
        ledger=ledger,
        policies_by_id={c.policy_id: c for c in bases + candidates + fine_tuned},
    )
