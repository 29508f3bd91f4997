"""The forward tape against its oracle, the per-op forward.

A replay must be ``array_equal`` to ``model(*inputs)`` and report the
same FLOP totals to every active context; anything the tape cannot
classify must send the signature back to the per-op forward, counted.
Nothing here is approximate.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.meta import MetaArray
from repro.models import ClimaXViT, OrbitConfig
from repro.nn import ExecutionContext, ForwardTape, execution_context, ops
from repro.nn.context import _state
from repro.nn.precision import BF16_MIXED, FP32
from repro.nn.tape import _Recording, replay
from repro.train.optimizer import AdamW
from tests.invariants import WRAPPER_CALLS

CONFIG = OrbitConfig("tape", embed_dim=8, depth=2, num_heads=2, in_vars=3,
                     out_vars=3, img_height=4, img_width=8, patch_size=2)
TOKENS = CONFIG.num_patches  # 8


def _vit(qk=True, rng=0):
    config = dataclasses.replace(CONFIG, qk_layernorm=qk)
    return ClimaXViT(config, rng=rng)


def _vit_inputs(batch, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 3, 4, 8)).astype(np.float32)
    return x, np.full(batch, 6.0, np.float32)


def _tokens(batch, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((batch, TOKENS, 8)).astype(np.float32),)


def _var_tokens(batch, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((batch, 3, TOKENS, 8)).astype(np.float32),)


#: name -> (build(qk_layernorm), inputs(batch)).
#: Every Module class ``repro.nn`` exports, plus the model built of them.
MODULES = {
    "Linear": (lambda qk: nn.Linear(8, 5, rng=2), _tokens),
    "LayerNorm": (lambda qk: nn.LayerNorm(8), _tokens),
    "MLP": (lambda qk: nn.MLP(8, rng=3), _tokens),
    "MultiHeadAttention": (
        lambda qk: nn.MultiHeadAttention(8, 2, qk_layernorm=qk, rng=4), _tokens),
    "CrossVariableAggregation": (
        lambda qk: nn.CrossVariableAggregation(8, 2, rng=5), _var_tokens),
    "PatchEmbedding": (
        lambda qk: nn.PatchEmbedding(3, 4, 8, 2, 8, rng=6),
        lambda batch: _vit_inputs(batch)[:1]),
    "VariableEmbedding": (lambda qk: nn.VariableEmbedding(3, 8, rng=7), _var_tokens),
    "PositionalEmbedding": (
        lambda qk: nn.PositionalEmbedding(TOKENS, 8, rng=8), _tokens),
    "LeadTimeEmbedding": (
        lambda qk: nn.LeadTimeEmbedding(8, rng=9),
        lambda batch: _tokens(batch) + (np.full(batch, 24.0, np.float32),)),
    "TransformerBlock": (
        lambda qk: nn.TransformerBlock(8, 2, qk_layernorm=qk, rng=1), _tokens),
    "TransformerStack": (
        lambda qk: nn.TransformerStack(8, 2, 2, qk_layernorm=qk, rng=10), _tokens),
    "Module": None,  # the abstract base: no forward of its own
    "ClimaXViT": (_vit, _vit_inputs),
}


def test_every_nn_module_class_is_under_the_oracle():
    exported = {
        name for name in nn.__all__
        if inspect.isclass(getattr(nn, name)) and issubclass(getattr(nn, name), nn.Module)
    }
    assert exported | {"ClimaXViT"} == set(MODULES)


def _run(fn, policy):
    """``(result, outer totals, inner totals)`` of ``fn`` under nested contexts."""
    outer, inner = ExecutionContext(precision=policy), ExecutionContext()
    with execution_context(outer), execution_context(inner):
        out = fn()
    return out, (outer.flops, outer.matmul_flops), (inner.flops, inner.matmul_flops)


class TestOracle:
    @pytest.mark.parametrize("name", [n for n, spec in MODULES.items() if spec])
    @settings(max_examples=12, deadline=None)
    @given(batch=st.integers(1, 5), qk=st.booleans(),
           policy=st.sampled_from([FP32, BF16_MIXED]))
    def test_replay_equals_the_per_op_forward(self, name, batch, qk, policy):
        build, make_inputs = MODULES[name]
        model = build(qk)
        inputs = make_inputs(batch)
        tape = ForwardTape(model)

        def per_op():
            out = model(*inputs)
            model.clear_cache()
            return out

        expected, outer, inner = _run(per_op, policy)
        assert outer == inner and inner[0] > 0
        for call in range(3):  # one recording, two replays
            got, got_outer, got_inner = _run(lambda: tape(*inputs), policy)
            assert np.array_equal(got, expected), f"call {call}"
            assert got.dtype == expected.dtype
            assert got_outer == outer and got_inner == inner, f"call {call}"
        assert tape.counts() == {"records": 1, "replays": 2, "fallbacks": 0}

    def test_signature_separates_shapes_dtypes_and_precision(self):
        model = nn.MLP(8, rng=0)
        tape = ForwardTape(model)
        (x,) = _tokens(2)
        tape(x)
        tape(x[:1])
        tape(x.astype(np.float64))
        with execution_context(ExecutionContext(precision=BF16_MIXED)):
            bf16 = tape(x)
            assert np.array_equal(bf16, model(x))
        assert tape.records == 4 and tape.replays == 0
        assert not np.array_equal(bf16, tape(x))  # the fp32 tape, replayed

    def test_the_tape_holds_no_activation_after_recording(self):
        tape = ForwardTape(_vit())
        inputs = _vit_inputs(2)
        tape(*inputs)
        (template, _params, program, *_rest), = tape._tapes.values()
        assert not any(isinstance(value, np.ndarray) for value in template)
        # a kernel is a NumPy function, or one bound to constant kwargs
        for fn, *_slots in program:
            bound = getattr(fn, "keywords", {})
            assert not any(isinstance(v, np.ndarray) for v in bound.values())
        assert _state.tape is None and not _state.stack


class TestWeightsAreReadAtReplay:
    def _warm(self):
        model, inputs = _vit(), _vit_inputs(2)
        tape = ForwardTape(model)
        tape(*inputs)
        tape(*inputs)
        return model, tape, inputs

    def _assert_fresh(self, model, tape, inputs):
        replays = tape.replays
        got = tape(*inputs)
        assert tape.replays == replays + 1
        assert np.array_equal(got, model(*inputs))
        model.clear_cache()

    def test_after_load_state_dict(self):
        model, tape, inputs = self._warm()
        before = tape(*inputs)
        model.load_state_dict(_vit(rng=99).state_dict())
        self._assert_fresh(model, tape, inputs)
        assert not np.array_equal(before, tape(*inputs))

    def test_after_an_optimizer_step(self):
        model, tape, inputs = self._warm()
        optimizer = AdamW(model.parameters(), lr=1e-2)
        model.backward(np.ones_like(model(*inputs)))
        optimizer.step()
        model.clear_cache()
        self._assert_fresh(model, tape, inputs)

    def test_after_a_parameter_is_reassigned(self):
        model, tape, inputs = self._warm()
        model.head.proj.weight = nn.Parameter(
            np.ones_like(model.head.proj.weight.data), "weight")
        self._assert_fresh(model, tape, inputs)


class TestTrainingIsUntouched:
    def test_backward_after_taped_inference_has_no_cached_forward(self):
        model, inputs = _vit(), _vit_inputs(2)
        tape = ForwardTape(model)
        for _ in range(2):  # after the recording, and after a replay
            out = tape(*inputs)
            with pytest.raises(RuntimeError, match="without a cached forward"):
                model.backward(np.ones_like(out))

    def test_train_step_after_inference_is_bitwise_the_untouched_one(self):
        def train_step(model):
            x, lead = _vit_inputs(3, seed=5)
            ctx = ExecutionContext(precision=BF16_MIXED)
            with execution_context(ctx):
                prediction = model(x, lead)
                loss = float(np.mean(np.square(prediction)))
                model.backward(2.0 * prediction / prediction.size)
            return loss, [np.array(p.grad) for p in model.parameters()], ctx.flops

        used, untouched = _vit(), _vit()
        tape = ForwardTape(used)
        for _ in range(3):
            tape(*_vit_inputs(2))
        loss, grads, flops = train_step(used)
        ref_loss, ref_grads, ref_flops = train_step(untouched)
        assert loss == ref_loss and flops == ref_flops
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


class _OutsideOps(nn.Module):
    """Feeds ``ops`` an array it made itself."""

    def __init__(self):
        super().__init__()
        self.inner = nn.Linear(8, 8, rng=0)

    def forward(self, x):
        return ops.add(self.inner(x), np.ones(8, np.float32))


class _ValueDependent(nn.Module):
    def forward(self, x):
        return ops.multiply(x, np.float32(x.max()))  # a NumPy scalar made outside ops


class TestFailClosed:
    def _assert_falls_back(self, model, inputs, reason):
        tape = ForwardTape(model)
        expected = model(*inputs)
        for call in range(1, 4):
            assert np.array_equal(tape(*inputs), expected)
            assert tape.counts() == {"records": 0, "replays": 0, "fallbacks": call}
        (why,) = tape._tapes.values()
        assert reason in why
        return tape

    def test_array_made_outside_ops(self):
        model = _OutsideOps()
        self._assert_falls_back(model, _tokens(2), "ndarray operand")
        assert model.inner._cache is None  # the entry still clears caches

    def test_numpy_scalar_made_outside_ops(self):
        self._assert_falls_back(_ValueDependent(), _tokens(2), "float32 operand")

    @pytest.mark.parametrize("fn", [
        lambda x: ops.add(x, np.zeros_like(x)),
        lambda x: ops.add(x, np.zeros(x.shape)),
    ])
    def test_an_op_that_is_not_tape_aware(self, fn):
        """An array made from nothing has no operand to replay from."""
        class Model(nn.Module):
            def forward(self, x):
                return fn(x)

        self._assert_falls_back(Model(), _tokens(1), "ndarray operand")

    def test_result_that_no_taped_op_made(self):
        class Model(nn.Module):
            def forward(self, x):
                return np.asarray(ops.exp(x)) + 1.0

        self._assert_falls_back(Model(), _tokens(1), "not the output of a taped op")

    def test_model_that_is_not_a_module(self):
        calls = []

        def stub(x):
            calls.append(x.shape)
            return x * 2.0

        tape = self._assert_falls_back(stub, _tokens(2), "not a Module")
        assert len(calls) == 4 and tape.model is stub

    def test_meta_input_and_meta_model(self):
        real, meta = nn.Linear(8, 4, rng=0), nn.Linear(8, 4, meta=True)
        for model, x in [(real, MetaArray((2, 8))), (meta, MetaArray((2, 8))),
                         (meta, np.ones((2, 8), np.float32))]:
            tape = ForwardTape(model)
            for call in range(1, 3):
                assert tape(x).shape == (2, 4)
                assert tape.counts() == {"records": 0, "replays": 0, "fallbacks": call}
            assert model._cache is None

    def test_input_validation_raises_the_same_error_and_leaves_no_tape(self):
        model = _vit()
        tape = ForwardTape(model)
        bad = (np.zeros((2, 3, 4, 7), np.float32), np.full(2, 6.0, np.float32))
        with pytest.raises(ValueError) as direct:
            model(*bad)
        for _ in range(2):
            with pytest.raises(ValueError) as taped:
                tape(*bad)
            assert str(taped.value) == str(direct.value)
        assert tape._tapes == {} and _state.tape is None and not _state.stack
        assert tape.counts() == {"records": 0, "replays": 0, "fallbacks": 0}
        good = _vit_inputs(2)
        assert np.array_equal(tape(*good), model(*good))  # still records afterwards


#: One real-mode call per public function of ``repro.nn.ops``.
_X = np.arange(12, dtype=np.float32).reshape(3, 4) + 1.0
OPS_CALLS = {
    "matmul": lambda: ops.matmul(_X, ops.swapaxes(_X, 0, 1)),
    "add": lambda: ops.add(_X, 1.0),
    "subtract": lambda: ops.subtract(_X, _X),
    "multiply": lambda: ops.multiply(_X, 2.0),
    "divide": lambda: ops.divide(1.0, _X),
    "exp": lambda: ops.exp(_X),
    "sqrt": lambda: ops.sqrt(_X),
    "erf": lambda: ops.erf(_X),
    "square": lambda: ops.square(_X),
    "sum_": lambda: ops.sum_(_X, axis=0),
    "mean": lambda: ops.mean(_X, axis=-1, keepdims=True),
    "amax": lambda: ops.amax(_X),
    "reshape": lambda: ops.reshape(_X, (2, 6)),
    "transpose": lambda: ops.transpose(_X, (1, 0)),
    "swapaxes": lambda: ops.swapaxes(_X, 0, 1),
    "concat": lambda: ops.concat([_X, _X], axis=1),
    "broadcast_to": lambda: ops.broadcast_to(_X, (2, 3, 4)),
    "kernel": lambda: ops.kernel(np.add.reduce, _X, axis=0, keepdims=True),
}


class TestOpsRegistry:
    def test_every_public_op_is_checked_below(self):
        public = {
            name for name, fn in vars(ops).items()
            if inspect.isfunction(fn) and fn.__module__ == ops.__name__
            and not name.startswith("_")
        }
        assert public == set(OPS_CALLS)

    @pytest.mark.parametrize("name", sorted(OPS_CALLS))
    def test_op_is_tape_aware_or_listed_as_forcing_fallback(self, name):
        """Every op appends kernels that reproduce its result from the
        recorded operands."""
        recording = _Recording((_X,), {})
        _state.tape = recording
        try:
            with execution_context(ExecutionContext()):
                expected = OPS_CALLS[name]()
        finally:
            _state.tape = None
        assert recording.failed is None and recording.program
        values = list(recording.template)
        values[0] = _X
        for fn, args, out in recording.program:
            values[out] = fn(*[values[i] for i in args])
        parts = expected if isinstance(expected, list) else [expected]
        for part in parts:
            replayed = values[recording.slots[id(part)]]
            assert np.array_equal(replayed, part) and replayed.dtype == part.dtype


class TestRecorder:
    """The one recorder under both tapes: what it pins and retires."""

    def test_a_dead_output_leaves_no_slot_and_pins_nothing(self):
        recording = _Recording((_X,), {})
        with recording, execution_context(ExecutionContext()):
            dead = ops.exp(_X)
            key = id(dead)
            assert key in recording.slots
            del dead
            # an untaped array at the same address fails closed, never
            # stands in for the dead one
            assert key not in recording.slots
            parts = ops.kernel(np.split, _X, 2, axis=1)
        assert not any(isinstance(v, (np.ndarray, list)) for v in recording.pinned[1:])
        assert recording.failed is None and len(parts) == 2

    def test_a_recording_opened_inside_another_restores_it(self):
        outer, inner = _Recording((_X,), {}), _Recording((_X,), {})
        with outer:
            with inner:
                assert _state.tape is inner
            assert _state.tape is outer
        assert _state.tape is None

    def test_an_in_place_kernel_replays_in_place(self):
        """``Parameter.add_grad``: the accumulator keeps its dtype."""
        param = nn.Parameter(np.zeros((3, 4), np.float32))
        grads = (_X.astype(np.float64), (2 * _X).astype(np.float64))
        recording = _Recording(grads, {})
        with recording:
            for grad in grads:
                param.add_grad(grad)
        tape = recording.freeze([recording.slots[id(param.grad)]], ExecutionContext())
        again = (3 * _X).astype(np.float64), (4 * _X).astype(np.float64)
        (replayed,) = replay(tape, again)
        param.zero_grad()
        for grad in again:
            param.add_grad(grad)
        assert replayed.dtype == np.float32
        assert np.array_equal(replayed, param.grad)


#: NumPy's Python-level wrappers (and ops' fallback around one): a tape of
#: real arrays records the C call each would make instead.
WRAPPERS = (*WRAPPER_CALLS.values(), np.amax, np.broadcast_to)


def _wrapper_kernels(program) -> list:
    return [fn for fn, *_slots in program if getattr(fn, "func", fn) in WRAPPERS]


class TestLoweredKernels:
    """The two tapes the benchmarks replay hold C calls, one per kernel."""

    def test_the_serve_forward_tape(self):
        from repro.serve.bench import build_serve_world

        _, forecaster = build_serve_world()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 8, 16)).astype(np.float32)
        forecaster.infer(x, np.full(1, 6.0, np.float32))
        (tape,) = forecaster.infer._tapes.values()
        program = tape[2]
        assert len(program) == 136 and not _wrapper_kernels(program)

    def test_the_numeric_train_step_tape(self):
        """The ``numeric-train`` bench spec; its second step records."""
        from repro.models import OrbitConfig
        from repro.runtime import STEP_TAPES, RunSpec, Session

        config = OrbitConfig("bench-wall-numeric", embed_dim=64, depth=4,
                             num_heads=4, in_vars=8, out_vars=4, img_height=16,
                             img_width=32, patch_size=4)
        session = Session(RunSpec(
            config=config, num_gpus=8, gpus_per_node=8, tp_size=2, fsdp_size=2,
            ddp_size=2, micro_batch=2, meta=False, seed=0))
        session.numeric_step(0)
        session.numeric_step(1)
        (tape,) = STEP_TAPES.values()
        program = tape.kernels[2]
        assert len(program) == 9001 and not _wrapper_kernels(program)
