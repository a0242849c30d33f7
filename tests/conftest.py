import pytest

from morlext import extension
from morlext.ppo import DivergenceError, steps_taken


class TrainRecord:
    """Every `extension.train` call of a pipeline run, as `(in_extension,
    steps)` pairs: `in_extension` is True when the call happened while
    `extend` or `select_candidates` was running, and `steps` counts the
    environment steps of the call's members that completed."""

    def __init__(self):
        self.calls: list[tuple[bool, int]] = []

    def training_free(self, result) -> bool:
        """No training in stages 3 and 4, and the ledger's training fields
        add up to the steps the recorded calls took."""
        ledger = result.ledger
        recorded = sum(steps for _, steps in self.calls)
        stage_sum = ledger.init_steps + ledger.retrain_steps + ledger.finetune_steps
        return not any(during for during, _ in self.calls) and stage_sum == recorded == ledger.training_steps


@pytest.fixture
def train_record(monkeypatch):
    """Wrap `extension.train`, `extension.extend` and
    `extension.select_candidates` to fill a TrainRecord."""
    record = TrainRecord()
    running = []
    real_train = extension.train

    def recording(thetas, env, weights, total_steps, cfg, seeds, logs, *, member_steps=None):
        results = real_train(thetas, env, weights, total_steps, cfg, seeds, logs, member_steps=member_steps)
        steps = member_steps if member_steps is not None else [total_steps] * len(seeds)
        taken = sum(steps_taken(s, cfg) for s, r in zip(steps, results) if not isinstance(r, DivergenceError))
        record.calls.append((bool(running), taken))
        return results

    def flagged(stage):
        def run(*args, **kwargs):
            running.append(stage)
            try:
                return stage(*args, **kwargs)
            finally:
                running.pop()

        return run

    monkeypatch.setattr(extension, "train", recording)
    for name in ("extend", "select_candidates"):
        monkeypatch.setattr(extension, name, flagged(getattr(extension, name)))
    return record
