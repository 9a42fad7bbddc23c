"""The container backend: seccomp filter properties + kill semantics.

Hypothesis pins the filter state machine: chain layout is deterministic
under a seed, static chains agree with the policy they were compiled
from on every syscall number, dynamic chains defer to the live policy
while still charging a full walk, and EXIT is always allowed.  The
kill-on-violation path is asserted uncatchable end to end.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.backend import IsolationKill, create_host
from repro.host.container import (
    ContainerBackend,
    SeccompAction,
    SeccompFilter,
    SeccompKill,
)
from repro.hw.costs import COSTS
from repro.runtime.image import ImageBuilder
from repro.wasp.hypercall import Hypercall
from repro.wasp.policy import (
    BitmaskPolicy,
    DefaultDenyPolicy,
    OneShotPolicy,
    PermissivePolicy,
    VirtineConfig,
)
from repro.wasp.virtine import PolicyKill

ALL_NRS = list(Hypercall)


def _mask_policy(mask: int) -> BitmaskPolicy:
    return BitmaskPolicy(VirtineConfig(allowed_mask=mask))


class TestSeccompFilterProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_chain_layout_deterministic_under_seed(self, seed):
        a = SeccompFilter.from_policy(DefaultDenyPolicy(), COSTS, seed=seed)
        b = SeccompFilter.from_policy(DefaultDenyPolicy(), COSTS, seed=seed)
        assert [r.nr for r in a.rules] == [r.nr for r in b.rules]

    def test_chain_layout_differs_across_seeds(self):
        orders = {
            tuple(r.nr for r in SeccompFilter.from_policy(
                DefaultDenyPolicy(), COSTS, seed=seed).rules)
            for seed in range(8)
        }
        assert len(orders) > 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**len(ALL_NRS) - 1),
           st.integers(min_value=0, max_value=1000))
    def test_static_chain_agrees_with_policy(self, mask, seed):
        policy = _mask_policy(mask)
        filt = SeccompFilter.from_policy(policy, COSTS, seed=seed)
        assert not filt.dynamic
        for nr in ALL_NRS:
            action, walked = filt.evaluate(nr)
            expected = nr is Hypercall.EXIT or policy.allows(nr)
            assert (action is SeccompAction.ALLOW) == expected, nr
            assert 1 <= walked <= len(ALL_NRS)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_every_number_appears_exactly_once(self, seed):
        filt = SeccompFilter.from_policy(PermissivePolicy(), COSTS, seed=seed)
        assert sorted(r.nr for r in filt.rules) == sorted(ALL_NRS)

    def test_stateful_policy_compiles_dynamic(self):
        policy = OneShotPolicy(PermissivePolicy(), once=(Hypercall.OPEN,))
        filt = SeccompFilter.from_policy(policy, COSTS)
        assert filt.dynamic
        # A dynamic chain always walks its full length and defers the
        # verdict to the live policy: first OPEN allowed, second killed.
        action, walked = filt.evaluate(Hypercall.OPEN, policy)
        assert action is SeccompAction.ALLOW and walked == len(ALL_NRS)
        action, _ = filt.evaluate(Hypercall.OPEN, policy)
        assert action is SeccompAction.KILL

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_exit_always_allowed(self, seed):
        filt = SeccompFilter.from_policy(DefaultDenyPolicy(), COSTS, seed=seed)
        action, _ = filt.evaluate(Hypercall.EXIT)
        assert action is SeccompAction.ALLOW

    def test_eval_cycles_monotonic_in_walk_length(self):
        filt = SeccompFilter.from_policy(DefaultDenyPolicy(), COSTS)
        costs = [filt.eval_cycles(w) for w in range(1, len(ALL_NRS) + 1)]
        assert costs == sorted(costs)
        assert costs[0] >= COSTS.SECCOMP_EVAL_BASE


class TestKillSemantics:
    @pytest.fixture
    def host(self):
        return create_host("container", seed=42)

    def test_violation_kill_is_uncatchable_by_guest(self, host):
        def entry(env):
            try:
                env.hypercall(Hypercall.OPEN)
            except Exception:
                return "swallowed"
            return "allowed"

        image = ImageBuilder().hosted("swallower", entry)
        with pytest.raises(PolicyKill, match="seccomp"):
            host.launch(image, policy=DefaultDenyPolicy())
        assert host.isolation.kills == 1

    def test_seccomp_kill_is_a_base_exception(self):
        assert issubclass(SeccompKill, IsolationKill)
        assert issubclass(SeccompKill, BaseException)
        assert not issubclass(SeccompKill, Exception)

    def test_filter_installed_per_launch(self, host):
        def entry(env):
            return "ok"

        image = ImageBuilder().hosted("filtered", entry)
        host.launch(image, policy=PermissivePolicy())
        # prepare_launch left the compiled filter on the virtine; a new
        # launch with a different policy recompiles.
        host.launch(image, policy=DefaultDenyPolicy())

    def test_seeded_walk_costs_are_reproducible(self):
        """Two hosts with the same seed charge identical cycles for the
        same launch; a different seed may lay the chain out differently
        (and therefore charge differently)."""
        def entry(env):
            fd = env.hypercall(Hypercall.OPEN, "/f")
            env.hypercall(Hypercall.CLOSE, fd)
            return "done"

        def run(seed):
            host = create_host("container", seed=seed)
            host.kernel.fs.add_file("/f", b"x")
            image = ImageBuilder().hosted("walk", entry)
            return host.launch(image, policy=PermissivePolicy()).cycles

        assert run(7) == run(7)


class TestContainerCosts:
    def test_creation_is_mid_range(self):
        host = create_host("container")
        creation = host.isolation.creation_cycles()
        process = create_host("process").isolation.creation_cycles()
        sud = create_host("sud").isolation.creation_cycles()
        # Namespaces + cgroup + pivot_root + filter load sit on top of a
        # plain fork: dearer than a process, far dearer than SUD.
        assert creation > process > sud

    def test_crossing_pays_the_filter_walk(self):
        backend = create_host("container").isolation
        assert isinstance(backend, ContainerBackend)
        assert backend.enter_cycles() > backend.exit_cycles()
