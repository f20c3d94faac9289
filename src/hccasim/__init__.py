"""Deterministic discrete-event simulator of polled-TXOP WLAN uplink scheduling.

Compares a reference fixed-grant polling scheduler against two adaptive
variants (per-station piggyback sizing, and a shared multi-poll frame) over
trace-driven variable-bit-rate video, and evaluates a closed-form delay
model against the simulation.
"""

__version__ = "0.1.0"

from .phy import (
    PhyProfile,
    PROFILE_11B,
    PROFILE_11G,
    PROFILES,
    airtime_control,
    airtime_data,
    airtime_multipoll,
    poll_gain_ratio,
)
from .traces import (
    TraceFrame,
    TraceStats,
    Tspec,
    VideoTrace,
    derive_tspec,
    load_trace,
    parse_trace,
    trace_stats,
)
from .hcca import (
    GrantBasis,
    admissible,
    compute_si,
    min_msi,
    msdu_count,
    reference_bytes,
    reference_overhead,
    txop_reference,
)
from .adaptive import SizeLedger
from .engine import (
    Mobility,
    RunResult,
    Scenario,
    StationSpec,
    phy_rate_for_distance,
    run_scenario,
)
from .metrics import (
    MetricsReport,
    PacketRecord,
    aggregate_throughput,
    aggregate_txop,
    e2e_delay,
    utilization_improvement,
)
from .analytic import (
    AnalyticInputs,
    aggregate_delay,
    aggregate_delay_alt,
    analytic_inputs,
    position_delays,
    td_i,
)
