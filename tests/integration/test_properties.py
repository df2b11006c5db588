"""Property-based tests of the paper's delivery guarantees (Sec. 3.2.2).

Random workloads are generated from a seeded :class:`SyntheticConfig` and
run under each policy; hypothesis explores the seed/composition space.  The
properties checked are exactly the ones the paper proves:

* perceptible alarms are always delivered within their window interval;
* no wakeup alarm is ever delivered outside its grace interval;
* adjacent-delivery gaps respect the (1 +/- beta) bounds;
* static alarms are delivered once and only once per repeating interval;
* energy accounting is conservative (parts sum to totals).

The gap and once-per-interval properties are checked by the online
invariant monitor, armed with ``monitor="record"``: its predicates
(:mod:`repro.core.invariants`) are the one Sec. 3.2.2 checker.  All bounds
allow the RTC wake latency as slack — the same physical artifact the paper
observes on the Nexus 5 — which is also the monitor's tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_workload
from repro.core.exact import ExactPolicy
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.metrics.delay import max_grace_violation_ms
from repro.power.accounting import account
from repro.power.profiles import NEXUS5
from repro.simulator.engine import SimulatorConfig, simulate
from repro.workloads.synthetic import SyntheticConfig, generate

LATENCY_MS = 350
HORIZON_MS = 1_800_000  # 30 minutes keeps each example fast

configs = st.builds(
    SyntheticConfig,
    app_count=st.integers(min_value=2, max_value=12),
    dynamic_fraction=st.floats(min_value=0.0, max_value=1.0),
    beta=st.floats(min_value=0.5, max_value=0.99),
    seed=st.integers(min_value=0, max_value=10_000),
    horizon=st.just(HORIZON_MS),
    period_range_s=st.just((45, 600)),
)


def run(policy, config, monitor=None):
    workload = generate(config)
    sim_config = SimulatorConfig(
        horizon=config.horizon,
        wake_latency_ms=LATENCY_MS,
        tail_ms=500,
        monitor=monitor,
    )
    trace = simulate(policy, workload.alarms(), sim_config)
    return trace


@settings(max_examples=25, deadline=None)
@given(configs)
def test_simty_never_exceeds_grace(config):
    trace = run(SimtyPolicy(), config)
    assert max_grace_violation_ms(trace) <= LATENCY_MS


@settings(max_examples=25, deadline=None)
@given(configs)
def test_native_never_exceeds_window(config):
    trace = run(NativePolicy(), config)
    # NATIVE's guarantee is the window interval for every wakeup alarm.
    violations = [
        record.window_delay
        for record in trace.deliveries()
        if record.wakeup
    ]
    assert max(violations, default=0) <= LATENCY_MS


@settings(max_examples=25, deadline=None)
@given(configs)
def test_simty_perceptible_alarms_within_window(config):
    trace = run(SimtyPolicy(), config)
    violations = [
        record.window_delay
        for record in trace.deliveries()
        if record.perceptible and record.wakeup
    ]
    assert max(violations, default=0) <= LATENCY_MS


@settings(max_examples=20, deadline=None)
@given(configs)
def test_simty_periodicity_bounds(config):
    # The monitor reads each record's own beta*ReIn (grace_end - nominal):
    # the effective grace fraction is max(alpha, beta) for each alarm.
    trace = run(SimtyPolicy(), config, monitor="record")
    assert trace.violations == []


@settings(max_examples=20, deadline=None)
@given(configs)
def test_native_periodicity_bounds(config):
    """NATIVE keeps the gap bounds with alpha (its window) for beta.

    The monitor checks gaps against each record's grace, which is at least
    its window, so the alpha bound follows from three checks instead.
    ``test_native_never_exceeds_window`` puts every wakeup delivery in
    ``[nominal, nominal + alpha*ReIn + latency]``; the lower end is the
    monitor's no-early-delivery check; and the monitor's grid step keeps a
    static alarm's adjacent nominals exactly ``ReIn`` apart.  So a static
    gap lies in ``[(1-alpha)*ReIn - latency, (1+alpha)*ReIn + latency]``.
    A dynamic alarm's next nominal is its previous delivery plus ``ReIn``
    (``Alarm.next_nominal_after``), so its gap is ``ReIn`` plus the
    delivery's lateness, at most ``(1+alpha)*ReIn + latency``.
    """
    trace = run(NativePolicy(), config, monitor="record")
    assert trace.violations == []


@settings(max_examples=20, deadline=None)
@given(configs)
def test_static_alarms_once_per_interval(config):
    # The monitor's grid step: each static delivery's nominal time lies
    # exactly one ReIn after the previous one.
    for policy in (NativePolicy(), SimtyPolicy(), ExactPolicy()):
        trace = run(policy, config, monitor="record")
        assert trace.violations == []


@settings(max_examples=20, deadline=None)
@given(configs)
def test_every_occurrence_delivered_exactly_once(config):
    # No occurrence (alarm, nominal) may be delivered twice: the monitor
    # flags a nominal time that does not pass the alarm's previous one.
    trace = run(SimtyPolicy(), config, monitor="record")
    assert trace.violations == []


@settings(max_examples=20, deadline=None)
@given(configs)
def test_energy_accounting_conservation(config):
    trace = run(SimtyPolicy(), config)
    breakdown = account(trace, NEXUS5)
    assert breakdown.sleep_ms + breakdown.awake_ms == config.horizon
    assert abs(
        breakdown.total_mj
        - (
            breakdown.sleep_mj
            + breakdown.awake_base_mj
            + breakdown.wake_transitions_mj
            + breakdown.hardware_mj
        )
    ) < 1e-6


@settings(max_examples=20, deadline=None)
@given(configs)
def test_deliveries_happen_inside_wake_sessions(config):
    trace = run(SimtyPolicy(), config)
    sessions = [
        (session.start, session.end if session.end is not None else trace.horizon)
        for session in trace.sessions
    ]
    for batch in trace.batches:
        assert any(
            start <= batch.delivered_at <= end for start, end in sessions
        ), batch

static_configs = st.builds(
    SyntheticConfig,
    app_count=st.integers(min_value=2, max_value=12),
    dynamic_fraction=st.just(0.0),
    beta=st.floats(min_value=0.5, max_value=0.99),
    seed=st.integers(min_value=0, max_value=10_000),
    horizon=st.just(HORIZON_MS),
    period_range_s=st.just((45, 600)),
)


@settings(max_examples=15, deadline=None)
@given(static_configs)
def test_oracle_is_a_true_lower_bound_for_static_workloads(config):
    # Greedy interval stabbing is provably minimum for a fixed interval
    # set; dynamic re-appointment makes the interval set depend on the
    # stab choices, where the greedy is only a strong estimate (see
    # repro.core.oracle docstring) — so the strict bound is asserted on
    # static-only workloads.
    from repro.core.oracle import minimum_wakeups

    # Occurrences whose tolerance straddles the horizon may legally be
    # postponed out of the window by a policy, so the strict bound is over
    # occurrences that complete inside it.
    oracle = minimum_wakeups(
        generate(config).alarms(),
        horizon=config.horizon,
        complete_tolerances_only=True,
    )
    # Zero latency so every policy delivery instant is a legal stab point;
    # the policy's distinct batch instants then form a valid piercing set,
    # which the oracle's minimum can never exceed.
    sim_config = SimulatorConfig(
        horizon=config.horizon, wake_latency_ms=0, tail_ms=0
    )
    for policy in (NativePolicy(), SimtyPolicy(), ExactPolicy()):
        trace = simulate(policy, generate(config).alarms(), sim_config)
        distinct_instants = len(
            {batch.delivered_at for batch in trace.batches}
        )
        assert oracle.wakeups <= distinct_instants


@settings(max_examples=15, deadline=None)
@given(configs)
def test_wakeup_counts_never_exceed_exact_baseline(config):
    exact = run(ExactPolicy(), config)
    simty = run(SimtyPolicy(), config)
    # Alignment can only reduce wakeups relative to the no-alignment run
    # of the same static grids; dynamic stretch can only reduce further.
    assert simty.wake_count() <= exact.wake_count()
