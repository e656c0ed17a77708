"""smirsim: two-level SMIR (Susceptible-Misinformed-Infected-Recovered) simulator.

Mean-field ODE dynamics with homophily, plus an agent-based pipeline that
spreads misinformation over a retweet network, samples county populations
matched to vote records, wires them into a mobility-informed contact network,
and runs discrete-time epidemics on it.
"""

__version__ = "0.5.0"

from .abm import AbmConfig, EpidemicResult, run, seed_infection, step
from .contactnet import (
    ContactNetwork,
    SampledNodes,
    build_contact_network,
    expected_edges,
    load_contact_network,
    sample_population,
    save_contact_network,
)
from .infonet import (
    InfoNetwork,
    generate_synthetic_infonet,
    load_infonet,
    save_infonet,
    spread_misinformation,
)
from .meanfield import (
    MeanFieldParams,
    Trajectory,
    TrajectorySummary,
    derivatives,
    initial_state,
    integrate,
    integrate_many,
    r0,
    summarize,
    sweep,
    sweep_grid,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    generate_scenario,
    generate_synthetic_mobility,
    load_scenario,
    save_scenario,
)

__all__ = [
    "__version__",
    "AbmConfig", "EpidemicResult", "run", "seed_infection", "step",
    "ContactNetwork", "SampledNodes", "build_contact_network", "expected_edges",
    "load_contact_network", "sample_population", "save_contact_network",
    "InfoNetwork", "generate_synthetic_infonet",
    "load_infonet", "save_infonet", "spread_misinformation",
    "MeanFieldParams", "Trajectory", "TrajectorySummary",
    "derivatives", "initial_state", "integrate", "integrate_many", "r0", "summarize",
    "sweep", "sweep_grid",
    "Scenario", "ScenarioConfig", "generate_scenario", "generate_synthetic_mobility",
    "load_scenario", "save_scenario",
]
