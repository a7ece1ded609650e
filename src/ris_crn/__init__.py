"""RIS-aided cognitive-radio downlink simulator.

Joint optimization of the secondary base station's transmit beamformer,
vertical antenna tilt and reconfigurable-intelligent-surface phase shifts
under an interference-power cap at the primary user, by alternating
optimization whose steps are mostly closed forms; the rest solve a
semidefinite relaxation with sequential rank-one recovery.
"""

from .antenna import vertical_attenuation_db, vertical_gain_linear
from .channels import ChannelSet, generate_channels, pbs_beamformer
from .experiments import (SweepResult, SweepSpec, load_sweep_spec, run_sweep,
                          run_trial)
from .metrics import (DesignState, effective_pu_row, effective_su_row,
                      pattern_gains, pu_interference, se_su, sinr_su)
from .optimizer import (OptimizerResult, TiltDecision, run_algorithm1,
                        select_tilt)
from .scenario import Scenario, ScenarioError, load_scenario, paper_default

__version__ = "0.1.0"

__all__ = [
    "ChannelSet", "DesignState", "OptimizerResult", "Scenario",
    "ScenarioError", "SweepResult", "SweepSpec", "TiltDecision",
    "effective_pu_row", "effective_su_row", "generate_channels",
    "load_scenario", "load_sweep_spec", "paper_default", "pattern_gains",
    "pbs_beamformer", "pu_interference", "run_algorithm1", "run_sweep",
    "run_trial", "se_su", "select_tilt", "sinr_su",
    "vertical_attenuation_db", "vertical_gain_linear",
]
