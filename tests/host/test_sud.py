"""The SUD backend: gate state machine properties + cost classes.

The headline property (from the issue): re-enable-on-trap never leaves
the gate open -- after *every* completed transition, and after every
rejected one, guest code must not be able to issue an unmediated
syscall (``open_for_guest_syscalls`` is False).  Hypothesis drives the
gate through arbitrary operation sequences against a model of the legal
transitions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.backend import create_host
from repro.host.sud import GateState, SudBackend, SudGate, SudViolation
from repro.hw.costs import COSTS
from repro.runtime.image import ImageBuilder
from repro.wasp.hypercall import Hypercall
from repro.wasp.policy import DefaultDenyPolicy, PermissivePolicy
from repro.wasp.virtine import PolicyKill

OPS = ("enter", "trap", "resume", "exit")

#: The legal-transition model: op -> state required to succeed.
REQUIRES = {
    "enter": GateState.ALLOW,
    "trap": GateState.BLOCK,
    "resume": GateState.ALLOW,
    "exit": None,  # always legal
}


def _apply(gate: SudGate, op: str) -> int:
    return {
        "enter": gate.enter_guest,
        "trap": gate.trap_syscall,
        "resume": gate.resume_guest,
        "exit": gate.exit_guest,
    }[op]()


class TestGateProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(OPS), max_size=30))
    def test_gate_never_observably_open(self, ops):
        """After every operation -- completed or rejected -- the gate is
        not open for unmediated guest syscalls."""
        gate = SudGate(COSTS)
        for op in ops:
            try:
                cost = _apply(gate, op)
            except SudViolation:
                pass
            else:
                assert cost >= 0
            assert not gate.open_for_guest_syscalls

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(OPS), max_size=30))
    def test_transitions_match_model(self, ops):
        """Exactly the model-illegal transitions raise, and the violation
        counter counts them."""
        gate = SudGate(COSTS)
        expected_state = GateState.ALLOW
        expected_violations = 0
        for op in ops:
            required = REQUIRES[op]
            if required is not None and expected_state is not required:
                expected_violations += 1
                with pytest.raises(SudViolation):
                    _apply(gate, op)
            else:
                _apply(gate, op)
                if op in ("enter", "resume"):
                    expected_state = GateState.BLOCK
                elif op in ("trap", "exit"):
                    expected_state = GateState.ALLOW
            assert gate.state is expected_state
        assert gate.violations == expected_violations

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=20))
    def test_bounce_rounds_rearm_and_count(self, rounds):
        """N trap/resume rounds leave the gate armed, count N traps, and
        charge the same per-round cost every time (determinism)."""
        gate = SudGate(COSTS)
        gate.enter_guest()
        costs = []
        for _ in range(rounds):
            out = gate.trap_syscall()
            assert not gate.open_for_guest_syscalls
            back = gate.resume_guest()
            costs.append((out, back))
            assert gate.state is GateState.BLOCK
            assert gate.privileged_masked
        assert gate.traps == rounds
        assert len(set(costs)) == 1

    def test_touch_privileged_always_violates(self):
        gate = SudGate(COSTS)
        gate.enter_guest()
        with pytest.raises(SudViolation, match="PROT_NONE"):
            gate.touch_privileged()
        assert gate.violations == 1


class TestSudBackendCosts:
    @pytest.fixture
    def host(self):
        return create_host("sud")

    def test_creation_is_near_zero(self, host):
        backend = host.isolation
        assert backend.creation_cycles() == (
            COSTS.PRCTL_SUD_SETUP + COSTS.MPROTECT_REGION)
        # The whole point of the mechanism: creation is cheaper than one
        # of its own syscall bounces.
        assert backend.creation_cycles() < COSTS.SIGSYS_TRAP + COSTS.SIGRETURN

    def test_every_hypercall_pays_the_trap_tax(self, host):
        """The live gate is what the dispatch path drives: N hypercalls
        mean N SIGSYS traps."""

        def entry(env):
            for _ in range(5):
                fd = env.hypercall(Hypercall.OPEN, "/f")
                env.hypercall(Hypercall.CLOSE, fd)
            return "done"

        host.kernel.fs.add_file("/f", b"x")
        image = ImageBuilder().hosted("taxed", entry)
        result = host.launch(image, policy=PermissivePolicy())
        assert result.value == "done"
        assert result.hypercall_count == 10

    def test_gate_left_armed_after_launch_with_hypercalls(self, host):
        """The finally-path re-arms the gate even when dispatch raises."""
        seen = {}

        def entry(env):
            try:
                env.hypercall(Hypercall.OPEN)
            finally:
                gate = env._virtine.shell.state["gate"]
                seen["open_after_denial"] = gate.open_for_guest_syscalls

        image = ImageBuilder().hosted("denied", entry)
        with pytest.raises(PolicyKill):
            host.launch(image, policy=DefaultDenyPolicy())
        assert seen["open_after_denial"] is False
