"""Every Supervisor transition, pinned bit for bit.

``golden_meta_journal.jsonl`` / ``golden_numeric_journal.jsonl`` /
``golden_numeric_state.sha256`` (see ``replan_golden.py``) pin two long
scenarios: degradation windows around one crash, and a numeric run that
never restarts.  This golden is the outside reference for every
transition of the recovery machine those two do not reach — transient
retry, retry exhausted -> rollback, crash with and without a durable
checkpoint, node-loss regroup, node loss with no legal shrunken world,
restart budget exhausted, a fault raised *during* a retry (crash and
node-loss ladders), the grad-corruption skip and the ``repro replan``
demo switch — each in meta and, where the fault kind allows, numeric
mode.  Per cell: the monitor's journal bytes, ``report.as_dict()``
(recovery events, ledger buckets, history, final spec; floats as
``float.hex()``) and, for numeric cells, the digest of every persisted
array.

It was generated at the parent of the one-recovery-path refactor,
before the Supervisor was touched.  The one cell that commit could not
produce is derived: a node loss against an exhausted restart budget
journaled no ``unrecovered`` event there (the bug the refactor fixed),
so it is asserted equal in shape to the crash cell instead.

Regenerate (only for a deliberate change to recovery accounting or
journal wording, in the same PR)::

    PYTHONPATH=src:. python tests/faults/test_recovery_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec, Supervisor
from repro.replan.scenario import (
    DEMO_STEPS,
    DEMO_SUPERVISOR_KWARGS,
    demo_plan,
    demo_spec,
)
from repro.runtime import RunSpec
from tests.faults.replan_golden import TINY, state_digest

GOLDEN = Path(__file__).parent / "data" / "recovery_golden.json"


def _meta_spec(**overrides):
    base = dict(config=TINY, num_gpus=16, gpus_per_node=8, tp_size=2,
                fsdp_size=2, ddp_size=4, micro_batch=2, meta=True,
                monitor="on")
    base.update(overrides)
    return RunSpec(**base)


def _numeric_spec(**overrides):
    base = dict(config=TINY, num_gpus=4, gpus_per_node=4, tp_size=1,
                fsdp_size=2, ddp_size=2, micro_batch=2, meta=False, seed=5,
                monitor="on", track_device_memory=False)
    base.update(overrides)
    return RunSpec(**base)


def _numeric_two_nodes():
    """Eight DDP replicas over two nodes: the numeric world a node loss
    can shrink (the 4-GCD spec is one node)."""
    return _numeric_spec(num_gpus=16, gpus_per_node=8, ddp_size=8)


def _plan(*faults):
    return FaultPlan(faults=tuple(FaultSpec(**fault) for fault in faults))


_TIMEOUT = dict(kind="collective_timeout", step=2, rank=1)
#: Fired by the retry of ``_TIMEOUT``'s step: the timeout takes the
#: step's first collective, these wait for the gradient all-reduce.
_CRASH_IN_RETRY = dict(kind="gpu_crash", step=2, rank=1, op="all_reduce")
_NODE_LOSS_IN_RETRY = dict(kind="node_loss", step=2, rank=9, op="all_reduce")

#: name -> (plan, Supervisor kwargs, steps); run on the 16-GCD meta spec
#: and the 4-GCD numeric one.  ``checkpoint_dir`` is filled in per run.
_CELLS = {
    "retry": (_plan(_TIMEOUT), dict(checkpoint_every=2), 5),
    "retry-exhausted": (
        _plan(_TIMEOUT, _TIMEOUT, _TIMEOUT),
        dict(checkpoint_every=2, retry_budget=2), 5),
    "crash-with-checkpoint": (
        _plan(dict(kind="gpu_crash", step=3, rank=1)),
        dict(checkpoint_every=2), 5),
    "crash-without-checkpoint": (
        _plan(dict(kind="gpu_crash", step=2, rank=0)), {}, 4),
    "restart-budget-exhausted": (
        _plan(dict(kind="gpu_crash", step=1, rank=1)),
        dict(max_restarts=0), 3),
    "crash-during-retry": (
        _plan(_TIMEOUT, _CRASH_IN_RETRY), dict(checkpoint_every=2), 5),
    "grad-corruption-skip": (
        _plan(dict(kind="grad_corruption", step=2, rank=0)),
        dict(checkpoint_every=2), 5),
}

#: Node-loss cells need a world with a node to lose.
_NODE_CELLS = {
    "node-loss-regroup": (
        _plan(dict(kind="node_loss", step=3, rank=9)),
        dict(checkpoint_every=2), 5),
    "node-loss-during-retry": (
        _plan(_TIMEOUT, _NODE_LOSS_IN_RETRY), dict(checkpoint_every=2), 5),
}

_ONE_NODE_LOST = (_plan(dict(kind="node_loss", step=1, rank=0)), {}, 3)


def cases():
    """name -> (spec, plan, Supervisor kwargs, steps)."""
    out = {}
    for name, (plan, kwargs, steps) in _CELLS.items():
        out[f"meta/{name}"] = (_meta_spec(), plan, kwargs, steps)
        out[f"numeric/{name}"] = (_numeric_spec(), plan, kwargs, steps)
    for name, (plan, kwargs, steps) in _NODE_CELLS.items():
        out[f"meta/{name}"] = (_meta_spec(), plan, kwargs, steps)
        out[f"numeric/{name}"] = (_numeric_two_nodes(), plan, kwargs, steps)
    plan, kwargs, steps = _ONE_NODE_LOST
    out["meta/node-loss-no-legal-world"] = (
        _meta_spec(num_gpus=8, ddp_size=2), plan, kwargs, steps)
    out["numeric/node-loss-no-legal-world"] = (
        _numeric_spec(), plan, kwargs, steps)
    out["meta/replan-demo-switch"] = (
        demo_spec(), demo_plan(), dict(DEMO_SUPERVISOR_KWARGS), DEMO_STEPS)
    return out


#: The actions each cell exists to reach, in report order (observed /
#: health events aside): a cell that stops reaching its transition is a
#: broken fixture, not a passing one.
EXPECTED_ACTIONS = {
    "retry": ["retry"],
    "retry-exhausted": ["retry_exhausted", "rollback_restart"],
    "crash-with-checkpoint": ["rollback_restart"],
    "crash-without-checkpoint": ["rollback_restart"],
    "restart-budget-exhausted": ["unrecovered"],
    "crash-during-retry": ["rollback_restart"],
    "grad-corruption-skip": ["skip_step"],
    "node-loss-regroup": ["elastic_regroup"],
    "node-loss-during-retry": ["elastic_regroup"],
    "node-loss-no-legal-world": ["unrecovered"],
    "replan-demo-switch": ["plan_switch"],
}


def _pin(value):
    """JSON-able copy with every float as ``float.hex()`` (NaN-safe)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _pin(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pin(item) for item in value]
    return value


def run_case(spec, plan, kwargs, steps, checkpoint_dir):
    """Everything one supervised run leaves behind."""
    if kwargs.get("checkpoint_every") or spec.replan == "on":
        kwargs = dict(kwargs, checkpoint_dir=checkpoint_dir)
    supervisor = Supervisor(spec, plan, **kwargs)
    report = supervisor.run(steps)
    out = {
        "journal": supervisor.monitor.journal.to_jsonl(),
        "report": _pin(report.as_dict()),
    }
    if not spec.meta:
        out["state"] = state_digest(supervisor.session)
    return out


def _golden():
    return json.loads(GOLDEN.read_text())


def _recovery_actions(report: dict) -> list[str]:
    return [event["action"] for event in report["events"]
            if event["action"] != "observed"]


@pytest.mark.parametrize("name", sorted(cases()))
def test_transition_matches_the_parent_commit(name, tmp_path):
    got = run_case(*cases()[name], tmp_path)
    want = _golden()[name]
    assert _recovery_actions(got["report"]) == \
        EXPECTED_ACTIONS[name.split("/", 1)[1]]
    assert got["report"] == want["report"]
    assert got["journal"] == want["journal"]
    assert got.get("state") == want.get("state")


def _shape(cell: dict) -> dict:
    """What a cell looks like with the fault's own name, rank and
    message taken out: recovery events, ledger counters and buckets,
    and the journal's line sequence."""
    report = cell["report"]
    lines = [json.loads(line) for line in cell["journal"].splitlines()[1:]]
    return {
        "events": [
            (e["step"], e["action"], e["attempts"], e["lost_s"], e["lost_steps"])
            for e in report["events"]
        ],
        "unrecovered": [message.split(":")[0] for message in report["unrecovered"]],
        "steps_completed": report["steps_completed"],
        "goodput": report["goodput"],
        "journal": [
            (line["kind"], line["severity"], line["step"],
             line["data"].get("action"), line["message"])
            for line in lines
        ],
    }


def test_node_loss_against_a_spent_budget_has_the_crash_cells_shape(tmp_path):
    """The derived cell (see the module docstring): same world, same
    step, a node loss where the golden cell has a crash."""
    spec, _, kwargs, steps = cases()["meta/restart-budget-exhausted"]
    node_loss = _plan(dict(kind="node_loss", step=1, rank=1))
    got = run_case(spec, node_loss, kwargs, steps, tmp_path)
    assert _shape(got) == _shape(_golden()["meta/restart-budget-exhausted"])
    (event,) = got["report"]["events"]
    assert (event["kind"], event["rank"]) == ("node_loss", 1)
    assert "node 0 lost" in event["detail"]


def test_the_golden_covers_exactly_the_declared_cells():
    assert sorted(_golden()) == sorted(cases())


def test_a_retry_charges_the_retry_bucket_and_nothing_else():
    """The fixture is what it says: one cell per ledger bucket."""
    goodput = _golden()["meta/retry"]["report"]["goodput"]
    assert goodput["retries"] == 1 and goodput["restarts"] == 0
    assert float.fromhex(goodput["lost_retry_s"]) > 0
    assert float.fromhex(goodput["lost_rollback_s"]) == 0


if __name__ == "__main__":
    import tempfile

    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/faults/test_recovery_golden.py --regen")
    document = {}
    for case_name, case in sorted(cases().items()):
        with tempfile.TemporaryDirectory() as scratch:
            document[case_name] = run_case(*case, Path(scratch))
        actions = _recovery_actions(document[case_name]["report"])
        expected = EXPECTED_ACTIONS[case_name.split("/", 1)[1]]
        assert actions == expected, (case_name, actions, expected)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
