"""Multi-version streaming scenarios: version chains with known per-hop policies.

The pairwise workloads evolve one snapshot once; streaming scenarios model the
shape real audit pipelines have — a roster that receives a new export every
period, each period governed by its own latent policy.  The generated
:class:`~repro.timeline.store.TimelineStore` plus the list of ground-truth
per-hop policies turn a timeline run into a measurable recovery task, exactly
like the pairwise workloads do for one hop.

The default policy sequence deliberately produces *localised* hops (each wave
touches one education group and leaves the rest of the roster byte-identical):
that is both how real periodic updates behave and the regime where the
incremental machinery — delta short-circuits — has something to work with.
"""

from __future__ import annotations

from repro.core.condition import Condition, Descriptor
from repro.core.transformation import LinearTransformation
from repro.timeline.store import TimelineStore
from repro.workloads.employee import generate_employees
from repro.workloads.policies import Policy, apply_policy

__all__ = ["streaming_bonus_policies", "streaming_employee_timeline"]


def streaming_bonus_policies(num_hops: int) -> list[Policy]:
    """Ground-truth policies for a ``num_hops``-hop streaming bonus scenario.

    Hops cycle through education groups (PhD wave, MS wave, BS wave) with
    rates that drift a little each cycle, so consecutive hops touch disjoint
    row groups and no two hops apply the exact same rule.  A fourth kind of
    hop — a salary-only cost-of-living adjustment that leaves the bonus
    untouched — appears once per cycle, giving timeline runs a hop the delta
    layer can skip outright when the target is the bonus.
    """
    if num_hops < 1:
        raise ValueError(f"num_hops must be >= 1, got {num_hops}")
    policies: list[Policy] = []
    for hop in range(num_hops):
        cycle, kind = divmod(hop, 4)
        drift = 0.01 * cycle
        if kind == 0:
            policies.append(
                Policy.from_rules(
                    name=f"hop {hop + 1}: PhD retention wave",
                    target="bonus",
                    description="PhD bonuses raised; everyone else untouched",
                    rules=[
                        (
                            Condition.of(Descriptor.equals("edu", "PhD")),
                            LinearTransformation("bonus", ("bonus",), (1.05 + drift,), 1000.0),
                        )
                    ],
                )
            )
        elif kind == 1:
            policies.append(
                Policy.from_rules(
                    name=f"hop {hop + 1}: MS tenure wave",
                    target="bonus",
                    description="MS bonuses raised by tenure band",
                    rules=[
                        (
                            Condition.of(
                                Descriptor.equals("edu", "MS"), Descriptor.at_least("exp", 3)
                            ),
                            LinearTransformation("bonus", ("bonus",), (1.04 + drift,), 800.0),
                        ),
                        (
                            Condition.of(
                                Descriptor.equals("edu", "MS"), Descriptor.less_than("exp", 3)
                            ),
                            LinearTransformation("bonus", ("bonus",), (1.03 + drift,), 400.0),
                        ),
                    ],
                )
            )
        elif kind == 2:
            policies.append(
                Policy.from_rules(
                    name=f"hop {hop + 1}: BS catch-up wave",
                    target="bonus",
                    description="BS bonuses raised; everyone else untouched",
                    rules=[
                        (
                            Condition.of(Descriptor.equals("edu", "BS")),
                            LinearTransformation("bonus", ("bonus",), (1.02 + drift,), 250.0),
                        )
                    ],
                )
            )
        else:
            policies.append(
                Policy.from_rules(
                    name=f"hop {hop + 1}: salary-only COLA",
                    target="salary",
                    description="across-the-board salary adjustment; bonus untouched",
                    rules=[
                        (
                            Condition.always(),
                            LinearTransformation("salary", ("salary",), (1.02 + drift,), 0.0),
                        )
                    ],
                )
            )
    return policies


def streaming_employee_timeline(
    num_rows: int,
    num_versions: int = 4,
    seed: int = 0,
    noise_fraction: float = 0.0,
    noise_scale: float = 0.02,
) -> tuple[TimelineStore, list[Policy]]:
    """A version chain of the employee roster evolved by per-hop policies.

    Returns the populated :class:`~repro.timeline.store.TimelineStore` (version
    names ``v1`` .. ``v{num_versions}``) and the ``num_versions - 1``
    ground-truth policies, one per consecutive hop.  Unlike
    :func:`~repro.workloads.employee.employee_pair`, experience does *not*
    advance between versions: a streaming export changes the governed
    attribute, not every descriptive column, and keeping the condition
    attributes stable is what lets incremental runs reuse work across hops.
    """
    if num_versions < 2:
        raise ValueError(f"num_versions must be >= 2, got {num_versions}")
    policies = streaming_bonus_policies(num_versions - 1)
    store = TimelineStore(key="name")
    current = generate_employees(num_rows, seed=seed)
    store.append("v1", current)
    for hop, policy in enumerate(policies, start=2):
        current = apply_policy(
            current,
            policy,
            noise_fraction=noise_fraction,
            noise_scale=noise_scale,
            seed=seed + hop,
        )
        store.append(f"v{hop}", current)
    return store, policies
