"""Configuration of the core algorithm.

:class:`CoreConfigSpec` is the one configuration type: frozen, picklable
and content-hashable, carried by a
:class:`~repro.experiments.scenario.Scenario` as its ``config`` and taken
as is by :class:`repro.core.node.CoreAllocatorNode`.  The scheduling
function is referenced by its registry name; each node looks the policy
up once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.policies import get_policy


@dataclass(frozen=True)
class CoreConfigSpec:
    """Tunable knobs of :class:`repro.core.node.CoreAllocatorNode`.

    Attributes
    ----------
    enable_loan:
        Toggles the loan mechanism — ``True`` reproduces the paper's
        "With loan" variant, ``False`` the "Without loan" one.
    loan_threshold:
        A waiting process asks for a loan only when the number of resources
        it is still missing is positive and at most this threshold.  The
        paper's evaluation uses 1; the threshold ablation (A1) sweeps it.
        ``None`` means "use the threshold carried by the workload
        parameters": the algorithm's builder resolves it when it binds the
        run, so the same spec composes with any
        :class:`~repro.workload.params.WorkloadParams`.  A lending node
        needs it resolved.
    policy:
        Registry name of the scheduling function ``A`` (see
        :func:`repro.core.policies.get_policy`); defaults to the paper's
        mean of non-zero counter values.
    initial_holder:
        Site owning every resource token at time zero (the *elected node*
        of the initialisation pseudo-code).
    single_resource_optimization:
        Enables the Section 4.6.1 optimisation: a request for exactly one
        resource skips the counter phase; the token holder applies ``A`` to
        the counter itself and treats the counter request as a resource
        request, halving the synchronisation cost of single-resource
        requests.  Off by default (the paper's evaluation does not state
        whether it was active).
    """

    enable_loan: bool = True
    loan_threshold: Optional[int] = None
    policy: str = "mean_nonzero"
    initial_holder: int = 0
    single_resource_optimization: bool = False

    def __post_init__(self) -> None:
        if self.loan_threshold is not None and self.loan_threshold < 0:
            raise ValueError("loan_threshold must be >= 0")
        if self.initial_holder < 0:
            raise ValueError("initial_holder must be a valid site id")
        # Fail fast on policy-name typos, without holding the instance.
        get_policy(self.policy)

    def describe(self) -> str:
        """One-line summary used by experiment reports."""
        loan = (
            f"loan<={self.loan_threshold if self.loan_threshold is not None else 'params'}"
            if self.enable_loan
            else "no-loan"
        )
        return f"CoreConfigSpec({loan}, A={self.policy})"
